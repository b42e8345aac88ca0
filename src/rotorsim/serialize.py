"""Deterministic JSON/CSV output: 9 significant digits, stable key order.

The bytes are a contract. `to_json_text(document)` writes exactly
`json.dumps(payload, indent=2) + "\\n"`, where payload is the document
with `schema_version` stamped in first, every float (Python or numpy)
replaced by float(f"{v:.9g}"), numpy integers by int, and tuples and
arrays by lists. `to_csv_text(header, rows)` writes exactly what
`csv.writer(lineterminator="\\n")` writes for the header and for each
row with its cells rendered as f"{v:.9g}" for floats, str(int(v)) for
numpy integers and str(v) for anything else.

The per-value work runs in C. The floats of each container of scalars
are rounded together by one "%.9g" format and one split, and the
container goes through the C JSON encoder once, its indentation given
as the item separator. A list of flat dicts sharing one key order is
filled through one `%` template, and each CSV row through a template
cached per cell-type signature; a row with a cell that csv.writer may
quote is written by csv.writer. Python walks only the nesting above
the scalars.
"""

import csv
import io
import json
from functools import lru_cache
from itertools import chain, repeat

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


def _round9_all(values):
    """float(f"{v:.9g}") of each value, by one format and one split."""
    return list(map(float, (("%.9g " * len(values)) % tuple(values)).split()))


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
    """A list of flat dicts that share one key order, through one template; else None."""
    if set(map(type, rows)) != {dict} or len(set(map(tuple, rows))) != 1 or not rows[0]:
        return None
    columns = []
    for column in zip(*map(dict.values, rows)):
        values = _scalars(column)
        if values is None:
            return None
        columns.append(_encode_split(values)[1:-1].split("\n"))
    outer = "\n" + INDENT * (level + 1)
    inner = outer + INDENT
    fields = ("," + inner).join(key.replace("%", "%%") + ": %s" for key in _keys(rows[0]))
    template = "{" + inner + fields + outer + "}"
    body = ("," + outer).join(repeat(template, len(rows)))
    body %= tuple(chain.from_iterable(zip(*columns)))
    return f"[{outer}{body}\n{INDENT * level}]"


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


def to_csv_text(header, rows) -> str:
    """CSV with a header row; cells rendered at 9 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
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
    return buf.getvalue()


def write_csv(path, header, rows):
    text = to_csv_text(header, rows)
    with open(path, "w") as fh:
        fh.write(text)
    return text
