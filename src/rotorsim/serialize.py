"""Deterministic JSON/CSV output: 9 significant digits, stable key order.

The bytes are a contract. `to_json_text(document)` writes exactly
`json.dumps(payload, indent=2) + "\\n"`, where payload is the document
with `schema_version` stamped in first, every float (Python or numpy)
replaced by float(f"{v:.9g}"), numpy integers by int, and tuples and
arrays by lists. `to_csv_text(header, rows)` writes exactly what
`csv.writer(lineterminator="\\n")` writes for the header and for each
row with its cells rendered as f"{v:.9g}" for floats, str(int(v)) for
numpy integers and str(v) for anything else.

The per-value work runs in C. A table, either CSV rows of one length or
a JSON list of flat dicts sharing one key order, is written column by
column. A column whose values are all Python floats is formatted by one
"%.9g" format and one split (once in all when it repeats one value), and
that one list of strings is both its CSV cells and, but for a few cells,
its JSON literals. For a float v with s = "%.9g" % v, s is already
json.dumps(float(s)) unless

- v is not finite (s is "nan" or "inf", the literals NaN and Infinity),
- |v| < 1e-290 (a subnormal's shortest repr can have fewer digits), or
- |v - round(v)| <= 1e-8·|v|, so s may be integral and repr adds ".0".
  This covers every |v| >= 5e7 and so the range 1e9 <= |x| < 1e16,
  where repr writes no exponent and "%.9g" writes one, and zero.

Everywhere else float(s) is a normal double that s names exactly, no
other decimal of at most 9 digits lies within its spacing of about
1e-16·|x|, so repr picks s, and both switch to an exponent below 1e-4.
One numpy mask over the column finds these cells, and each distinct
flagged string goes through the C encoder once. The other columns are
rendered per value. A CSV row with a cell that csv.writer may quote is
written by csv.writer. `Table` lets a caller hand one table to both
writers, which then format its float columns once between them.

Ragged CSV rows go through a "%" template cached per cell-type
signature, and any other JSON container of scalars through the C
encoder at once, its floats rounded by one format and one split and its
indentation given as the item separator. Python walks only the nesting
above the scalars.
"""

import csv
import io
import json
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat

import numpy as np

SCHEMA_VERSION = 1
INDENT = "  "
_NESTED = (dict, list, tuple, np.ndarray)
_FLOATS = (float, np.floating)
# JSON-encoded scalars never hold a raw newline, so it splits them apart
_encode_split = json.JSONEncoder(separators=("\n", ":")).encode


@lru_cache(maxsize=None)
def _encode_leaf(level):
    """C encoder for a container of scalars at nesting `level`, brackets unindented."""
    return json.JSONEncoder(separators=(",\n" + INDENT * (level + 1), ": ")).encode


def _format9(values):
    """f"{v:.9g}" of each value, by one format and one split."""
    return (("%.9g " * len(values)) % tuple(values)).split()


def _round9_all(values):
    """float(f"{v:.9g}") of each value."""
    return list(map(float, _format9(values)))


def _float_cells(values):
    """f"{v:.9g}" of each value of a float array; one format for a run of one repeated value."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return _format9(values[:1].tolist()) * len(values)
    return _format9(values.tolist())


def _columns(rows):
    """(columns, cells) of a list of rows of one nonzero length; else None.

    columns[j] holds the values of column j, as a float64 array when all
    are Python floats and then with cells[j] their "%.9g" strings; else
    as a tuple, with cells[j] None.
    """
    if len(set(map(len, rows))) != 1 or not len(rows[0]):
        return None
    columns = [np.array(column) if set(map(type, column)) == {float} else column
               for column in zip(*rows)]
    return columns, [_float_cells(column) if isinstance(column, np.ndarray) else None
                     for column in columns]


class Table(list):
    """Rows of flat dicts sharing one key order, handed to both writers.

    Put the table in the JSON document and pass `table.csv_rows()` to
    write_csv: the two writers then share one column pass, formed when
    the first of them runs, so the rows must not change after it. Each
    iterates like the plain rows it stands for, so any writer reads it.
    """

    @cached_property
    def columns(self):
        return _columns(list(map(dict.values, self)))

    def csv_rows(self):
        return _TableValues(self)


class _TableValues:
    """A Table's rows as CSV rows: each row's values in key order."""

    def __init__(self, table):
        self.table = table

    def __iter__(self):
        return map(dict.values, self.table)


def _scalars(values):
    """The values as the JSON encoder should see them; None if one is a container."""
    kinds = set(map(type, values))
    if any(issubclass(kind, _NESTED) for kind in kinds):
        return None
    floats = [issubclass(kind, _FLOATS) for kind in kinds]
    if all(floats):
        return _round9_all(values)
    if not any(floats) and not any(issubclass(kind, np.integer) for kind in kinds):
        return values
    rounded = iter(_round9_all([v for v in values if isinstance(v, _FLOATS)]))
    return [next(rounded) if isinstance(v, _FLOATS)
            else int(v) if isinstance(v, np.integer) else v for v in values]


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


def _leaf(container, level):
    text = _encode_leaf(level)(container)
    if not container:
        return text
    return f"{text[0]}\n{INDENT * (level + 1)}{text[1:-1]}\n{INDENT * level}{text[-1]}"


def _keys(keys):
    """Each dict key as the encoder writes it, quotes included."""
    text = _encode_split(dict.fromkeys(keys, 0))
    return [item[:-2] for item in text[1:-1].split("\n")]


def _rows(rows, level):
    """A list of flat dicts that share one key order, joined column by column; else None."""
    if set(map(type, rows)) != {dict} or len(set(map(tuple, rows))) != 1 or not rows[0]:
        return None
    columns, cells = rows.columns if isinstance(rows, Table) else _columns(
        list(map(dict.values, rows)))
    literals = []
    for column, column_cells in zip(columns, cells):
        if column_cells is not None:
            literals.append(_json_floats(column, column_cells))
            continue
        values = _scalars(column)
        if values is None:
            return None
        literals.append(_encode_split(values)[1:-1].split("\n"))
    outer = "\n" + INDENT * (level + 1)
    inner = outer + INDENT
    heads = [("," if j else "{") + inner + key + ": " for j, key in enumerate(_keys(rows[0]))]
    pieces = chain.from_iterable(zip(map(repeat, heads, repeat(len(rows))), literals))
    texts = map("".join, zip(*pieces, repeat(outer + "}", len(rows))))
    return f"[{outer}{(',' + outer).join(texts)}\n{INDENT * level}]"


def _encode(obj, level):
    """obj as json.dumps(..., indent=2) writes it at nesting `level`, floats rounded."""
    if isinstance(obj, dict):
        values = _scalars(list(obj.values()))
        if values is not None:
            return _leaf(dict(zip(obj, values)), level)
        items = [f"{key}: {_encode(value, level + 1)}"
                 for key, value in zip(_keys(obj), obj.values())]
        brackets = "{}"
    elif isinstance(obj, _NESTED):
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        values = _scalars(obj)
        if values is not None:
            return _leaf(values, level)
        text = _rows(obj, level)
        if text is not None:
            return text
        items = [_encode(value, level + 1) for value in obj]
        brackets = "[]"
    else:
        return _encode_leaf(level)(_scalars([obj])[0])
    outer = "\n" + INDENT * (level + 1)
    return f"{brackets[0]}{outer}{(',' + outer).join(items)}\n{INDENT * level}{brackets[1]}"


def to_json_text(document: dict) -> str:
    """Serialize with the schema version stamped in; byte-stable."""
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(document)
    return _encode(payload, 0) + "\n"


def write_json(path, document: dict):
    text = to_json_text(document)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _cell_format(kind):
    # str of a numpy integer is str(int(v))
    return "%.9g" if issubclass(kind, _FLOATS) else "%s"


def _may_be_quoted(line, n_cells):
    """True when csv.writer may quote a cell of this rendered row.

    A lone carriage return counts too, so the output does not depend on
    whether this Python's csv module quotes it.
    """
    return ('"' in line or "\r" in line or "\n" in line or line.count(",") != n_cells - 1
            or (n_cells == 1 and line == ""))


def _csv_rows(writer, buf, rows):
    """Each row rendered per cell, through one template cached per cell-type signature."""
    templates = {}
    for row in rows:
        row = tuple(row)
        signature = tuple(map(type, row))
        if signature not in templates:
            formats = tuple(map(_cell_format, signature))
            templates[signature] = ",".join(formats), formats
        template, formats = templates[signature]
        line = template % row
        if _may_be_quoted(line, len(row)):
            writer.writerow([fmt % (value,) for fmt, value in zip(formats, row)])
        else:
            buf.write(line + "\n")


def _csv_columns(writer, buf, columns, cells):
    """Rows of one length from their columns: float cells given, the others rendered here."""
    rendered = []
    for column, column_cells in zip(columns, cells):
        if column_cells is None:
            formats = {kind: _cell_format(kind) for kind in set(map(type, column))}
            column_cells = [formats[type(v)] % (v,) for v in column]
        rendered.append(column_cells)
    lines = list(map(",".join, zip(*rendered)))
    body = "\n".join(lines)
    n_cells = len(rendered)
    # the joins add len(lines) - 1 newlines, and n_cells - 1 commas to each line
    if (body.count("\n") == len(lines) - 1 and body.count(",") == len(lines) * (n_cells - 1)
            and '"' not in body and "\r" not in body and (n_cells > 1 or "" not in lines)):
        buf.write(body + "\n")
    else:  # some row may be quoted: write the rendered rows one by one
        _csv_rows(writer, buf, zip(*rendered))


def to_csv_text(header, rows) -> str:
    """CSV with a header row; cells rendered at 9 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, _TableValues):
        table = rows.table.columns
    else:
        rows = list(map(tuple, rows))
        table = _columns(rows) if rows else None
    if table is None:
        _csv_rows(writer, buf, rows)
    else:
        _csv_columns(writer, buf, *table)
    return buf.getvalue()


def write_csv(path, header, rows):
    text = to_csv_text(header, rows)
    with open(path, "w") as fh:
        fh.write(text)
    return text
