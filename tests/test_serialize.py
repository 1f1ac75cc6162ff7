"""Byte contract of the CSV and JSON writers.

The per-cell rule defines a CSV cell: a float or anything with a dtype
prints as format_double, every other cell as str.  write_csv formats a
whole block of rows at once wherever its cell types allow; these tests
hold it to the per-cell bytes.
"""

import math

import numpy as np

from fracschrod.serialize import _ROWS_PER_WRITE, dumps, format_double, write_csv


def per_cell(rows) -> bytes:
    return "".join(",".join(format_double(v) if isinstance(v, float)
                            or hasattr(v, "dtype") else str(v) for v in row) + "\n"
                   for row in rows).encode()


ROWS = [
    (1, 0.5, True, "a"),
    (np.float64(0.1), np.float32(0.1), np.int64(2**60 + 1)),
    (-0.0, math.nan, math.inf, -math.inf),
    (2**53 + 1, -(10**30), np.int64(-(2**53) - 1), 5e-324),
    (np.float64(-0.0), np.float32(np.nan), np.uint64(2**64 - 1), np.int32(-7)),
    [3, 0.25, False],
    (np.bool_(True), np.str_("2.5"), None, 1.5),
    np.array([0.1, -0.0, np.inf]),
    (7, 1e-300),
    (),
]


def test_write_csv_is_the_per_cell_rule(tmp_path):
    path = tmp_path / "rows.csv"
    # each signature alone, so its block takes one format where one exists
    for row in ROWS:
        write_csv(path, ["a", "b"], [row] * 3)
        assert path.read_bytes() == b"a,b\n" + per_cell([row] * 3)
    # rows of mixed lengths and types in one block
    write_csv(path, ["a"], iter(ROWS))
    assert path.read_bytes() == b"a\n" + per_cell(ROWS)
    # blocks of wide-range doubles, and a column whose type changes
    # inside the last block
    rng = np.random.default_rng(7)
    n = 2 * _ROWS_PER_WRITE + 5
    wide = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    rows = [(k, *row) for k, row in enumerate(wide.tolist())]
    rows[-2] = (rows[-2][0], 2**60 + 1, *rows[-2][2:])
    write_csv(path, ["k", "x", "y", "z"], rows)
    assert path.read_bytes() == b"k,x,y,z\n" + per_cell(rows)


def test_dumps_float_list_is_the_per_element_render():
    rng = np.random.default_rng(8)
    floats = (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
    floats += [-0.0, 5e-324, 2.0**60]
    assert dumps(floats) == "[" + ", ".join(format_double(v) for v in floats) + "]"
    assert dumps({"x": floats[:2]}) == (
        '{"x": [' + ", ".join(format_double(v) for v in floats[:2]) + "]}")
    # a list holding any other type keeps each element's own rule
    assert dumps([1, 0.5, True, None, np.float64(0.25), "x", [2.0]]) == (
        '[1, 0.5, true, null, 0.25, "x", [2]]')
    assert dumps([]) == "[]"
