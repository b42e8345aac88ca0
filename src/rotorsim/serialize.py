"""Deterministic JSON/CSV output: 9 significant digits, stable key order.

The bytes are a contract. `to_json_text(document)` writes exactly
`json.dumps(payload, indent=2) + "\\n"`, where payload is the document
with `schema_version` stamped in first, every float (Python or numpy)
replaced by float(f"{v:.9g}"), numpy integers by int, and tuples and
arrays by lists. `to_csv_text(header, rows)` writes exactly what
`csv.writer(lineterminator="\\n")` writes for the header and for each
row with its cells rendered as f"{v:.9g}" for floats, str(int(v)) for
numpy integers and str(v) for anything else.

A `Table` stands in both writers for its rows. Each float column is
formatted by one "%.9g" pass, and those strings are its CSV cells and,
but for a few, its JSON literals. For a float v with s = "%.9g" % v, s is
already json.dumps(float(s)) unless

- v is not finite (s is "nan" or "inf", the literals NaN and Infinity),
- |v| < 1e-290 (a subnormal's shortest repr can have fewer digits), or
- |v - round(v)| <= 1e-8·|v|, so s may be integral and repr adds ".0".
  This covers every |v| >= 5e7 and so the range 1e9 <= |x| < 1e16,
  where repr writes no exponent and "%.9g" writes one, and zero.

Everywhere else float(s) is a normal double that s names exactly, no
other decimal of at most 9 digits lies within its spacing of about
1e-16·|x|, so repr picks s, and both switch to an exponent below 1e-4.
"""

import csv
import io
import json
from functools import cached_property
from itertools import chain, compress, repeat

import numpy as np

SCHEMA_VERSION = 1
# JSON-encoded scalars never hold a raw newline, so it splits them apart
_encode_split = json.JSONEncoder(separators=("\n", ":")).encode
# stands for a Table in the text json.dumps writes; to_json_text raises
# ValueError on a document string equal to it
_TABLE = "\x00rotorsim.serialize.Table\x00"


def _format9(values):
    """f"{v:.9g}" of each value, by one format and one split."""
    return (("%.9g " * len(values)) % tuple(values)).split()


def _float_cells(values):
    """f"{v:.9g}" of each value of a float array; one format for a run of one repeated value."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return _format9(values[:1].tolist()) * len(values)
    return _format9(values.tolist())


def _json_floats(values, cells):
    """The JSON literal of each value of a float array from its "%.9g" cell (module docstring)."""
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        flagged = (~np.isfinite(values) | (size < 1e-290)
                   | (np.abs(values - np.round(values)) <= 1e-8 * size))
    if not flagged.any():
        return cells
    distinct = list(dict.fromkeys(compress(cells, flagged.tolist())))
    # the literal depends on the cell alone, so equal unflagged cells may take it too
    literal = dict(zip(distinct, _encode_split(list(map(float, distinct)))[1:-1].split("\n")))
    return list(map(literal.get, cells, cells))


class _Row(dict):
    """One row of a Table: a dict whose iteration yields its cells, as a CSV row's does."""

    def __iter__(self):
        return iter(self.values())


class Table(list):
    """Rows held as columns under one header, handed to both writers.

    Each column is a float64 array or a list of str, all of one length, and
    there is at least one. The writers read the columns and share `cells`,
    so each float is formatted once. Anything else that iterates a table
    sees its rows, each a dict that iterates as its cells, so it reads as
    the JSON rows or the CSV rows it stands for; index or compare
    list(table), as the list itself holds nothing.
    """

    def __init__(self, header, columns):
        self.header = list(header)
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        columns = [column.tolist() if isinstance(column, np.ndarray) else column
                   for column in self.columns]
        return map(_Row, map(zip, repeat(self.header), zip(*columns)))

    @cached_property
    def cells(self):
        """Each column's CSV cells: "%.9g" of each float, the strings as they are."""
        return [_float_cells(column) if isinstance(column, np.ndarray) else column
                for column in self.columns]


def _json_rows(table, newline):
    """The table's rows as json.dumps(indent=2) writes them, each line after `newline`."""
    if not len(table):
        return "[]"
    outer = newline + "  "
    inner = outer + "  "
    heads = [("," if j else "{") + inner + json.dumps(key) + ": "
             for j, key in enumerate(table.header)]
    literals = [_json_floats(column, cells) if isinstance(column, np.ndarray)
                else _encode_split(column)[1:-1].split("\n")
                for column, cells in zip(table.columns, table.cells)]
    pieces = chain.from_iterable(zip(map(repeat, heads), literals))
    texts = map("".join, zip(*pieces, repeat(outer + "}")))
    return f"[{outer}{(',' + outer).join(texts)}{newline}]"


def _round9(obj, tables):
    """obj as json.dumps should see it: floats rounded, each Table collected into `tables`."""
    if isinstance(obj, (float, np.floating)):
        return float("%.9g" % obj)
    if isinstance(obj, (str, int)):  # bool among them
        return obj
    if isinstance(obj, dict):
        return {key: _round9(value, tables) for key, value in obj.items()}
    if isinstance(obj, Table):
        tables.append(obj)
        return _TABLE
    if isinstance(obj, (list, tuple)):
        return [_round9(value, tables) for value in obj]
    if isinstance(obj, np.ndarray):
        return _round9(obj.tolist(), tables)
    return int(obj) if isinstance(obj, np.integer) else obj


def to_json_text(document: dict) -> str:
    """Serialize with the schema version stamped in; byte-stable."""
    tables = []
    text = json.dumps(_round9({"schema_version": SCHEMA_VERSION, **document}, tables), indent=2)
    pieces = text.split(json.dumps(_TABLE))
    parts = [pieces[0]]
    for table, piece in zip(tables, pieces[1:], strict=True):
        line = parts[-1].rsplit("\n", 1)[-1]  # the indent, then the key if any
        parts += [_json_rows(table, "\n" + line[:len(line) - len(line.lstrip())]), piece]
    return "".join(parts) + "\n"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_json(path, document: dict):
    return _write(path, to_json_text(document))


def _cell(value):
    # str of a numpy integer is str(int(v))
    return "%.9g" % value if isinstance(value, (float, np.floating)) else str(value)


def _quoted(table):
    """True when csv.writer may quote a string cell; float cells never need it."""
    strings = [column for column in table.columns if not isinstance(column, np.ndarray)]
    text = "".join(chain.from_iterable(strings))
    # a lone CR counts whether or not this Python's csv quotes it; an empty
    # cell is quoted when it is its row's only one
    return (any(char in text for char in ',"\r\n')
            or (len(table.columns) == 1 == len(strings) and "" in strings[0]))


def to_csv_text(header, rows) -> str:
    """CSV with a header row; cells rendered at 9 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if not isinstance(rows, Table):
        writer.writerows(map(_cell, row) for row in rows)
    elif _quoted(rows):
        writer.writerows(zip(*rows.cells))
    elif len(rows):
        buf.write("\n".join(map(",".join, zip(*rows.cells))) + "\n")
    return buf.getvalue()


def write_csv(path, header, rows):
    return _write(path, to_csv_text(header, rows))
