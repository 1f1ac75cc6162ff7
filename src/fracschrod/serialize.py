"""JSON and CSV writers with a fixed floating-point contract.

All numeric output of the toolkit prints IEEE-754 doubles at 17 significant
digits, enough to round-trip any double exactly.  JSON is built through a
formatting pass of our own because the stdlib encoder does not expose the
float format.
"""

import json
from itertools import chain, islice

import numpy as np


def format_double(x: float) -> str:
    """Render a double at 17 significant digits."""
    return f"{float(x):.17g}"


def dumps(obj) -> str:
    """Serialize to JSON text with the 17-digit float format."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_double(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(format_double, obj)) + "]"
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    # numpy scalars and arrays
    if hasattr(obj, "tolist"):
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


_ROWS_PER_WRITE = 1024


def write_csv(path, header, rows) -> None:
    """Write a CSV file; floats at 17 significant digits, header row first.

    A cell that is a float or has a dtype prints as format_double, any
    other cell as str.  rows may be any iterable of sequences, written
    _ROWS_PER_WRITE at a time by _format_rows.
    """
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, _ROWS_PER_WRITE)):
            fh.write(_format_rows(block))


def _format_rows(block) -> str:
    """The CSV lines of a block of rows.  Where every column holds one
    type that _row_format formats exactly, that is one %-format of the
    whole block; otherwise each cell by the rule of write_csv."""
    width = len(block[0])
    if all(len(row) == width for row in block):
        cells = list(chain.from_iterable(block))
        types = [set(map(type, cells[k::width])) for k in range(width)]
        if all(len(t) == 1 for t in types):
            fmt = _row_format([t.pop() for t in types])
            if fmt:
                return fmt * len(block) % tuple(cells)
    return "".join(",".join(format_double(v) if isinstance(v, float)
                            or hasattr(v, "dtype") else str(v) for v in row) + "\n"
                   for row in block)


def _row_format(types) -> str:
    """The %-format of a row with cells of these types, or "" if a type
    needs the per-cell rule.  %.17g is format_double for floats and numpy
    real scalars (both go through __float__), and %d is str for an int."""
    cells = []
    for t in types:
        if t is float or issubclass(t, (np.floating, np.integer)):
            cells.append("%.17g")
        elif t is int:
            cells.append("%d")
        else:
            return ""
    return ",".join(cells) + "\n"
