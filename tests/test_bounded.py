"""Bounded tier: every sample output within a stated bound of its reference.

tests/golden/ holds reference copies of the numeric outputs of the six
sample configs and of the 2D operator application and Neumann trace of
the golden grids.  Each column must stay within the absolute bound listed
here; a bound of 0 means the column must match exactly (flags, counts,
sizes, coordinates, and every column no legitimate reordering moves).
Each bound is ten times the largest deviation that a deliberate summation
reordering of the exterior product, or of the row sums that set the
operator's diagonal (solve/ and recover/), produced; tests/golden/README.md
gives the derivation and the measured deviations.  The sha256 pins of
test_golden stay the default contract: a change that moves them must
still pass this tier against references it did not edit, and no bound is
widened or reference regenerated to make it pass.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import GRIDS_2D, smooth_field
from fracschrod import annulus_window, apply_operator, neumann_derivative

GOLDEN = Path(__file__).resolve().parent / "golden"

BOUNDS = {
    "apply_2d/box-s0.5.csv": {"node": 0.0, "value": 4e-14},
    "apply_2d/rect-s0.25.csv": {"node": 0.0, "value": 1.56e-14},
    "forward/cauchy_bank.json": {"window": 0.0, "g-0/trace": 0.0,
                                 "g-0/neumann": 1.67e-15, "g-1/trace": 0.0,
                                 "g-1/neumann": 2.78e-16},
    "forward/newton_trace.csv": {"iteration": 0.0, "residual": 2.65e-14},
    "forward/solution.csv": {"x": 0.0, "value": 1.67e-15},
    "linearize/linearize.csv": {"eta": 0.0, "e_l2": 1.73e-11, "e_sup": 1.81e-11,
                                "converged": 0.0},
    "neumann_2d/box-s0.5.csv": {"node": 0.0, "value": 0.0},
    "neumann_2d/rect-s0.25.csv": {"node": 0.0, "value": 0.0},
    "principles/principles.csv": {"trial": 0.0, "min_u": 1.12e-15,
                                  "comparison_ok": 0.0, "linf_lhs": 3.34e-15,
                                  "linf_rhs": 8.89e-15, "linf_ok": 0.0,
                                  "barrier_C": 8.89e-15, "barrier_ok": 0.0},
    "probe/probe.csv": {"window_size": 0.0, "sigma_min": 0.0},
    "recover/misfit.csv": {"probe": 0.0, "misfit": 6.38e-15},
    "recover/recover.csv": {"x": 0.0, "a_true": 0.0, "a_estimate": 4.87e-8},
    "solve/solution.csv": {"x": 0.0, "value": 1.1e-12},
}

CLI_FILES = sorted(name for name in BOUNDS if not name.split("/")[0].endswith("_2d"))


def columns(path: Path) -> dict[str, np.ndarray]:
    """Named columns of an output file: CSV columns, or the Cauchy bank's
    window and per-datum arrays.  Non-numeric columns stay strings."""
    if path.suffix == ".json":
        bank = json.loads(path.read_text())
        out = {"window": np.asarray(bank["window"], dtype=float)}
        for datum in bank["data"]:
            for key, values in datum.items():
                if key != "g-id":
                    out[f"{datum['g-id']}/{key}"] = np.asarray(values, dtype=float)
        return out
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    out = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        try:
            out[name] = np.asarray([float(c) for c in cells])
        except ValueError:
            out[name] = np.asarray(cells)
    return out


def assert_within(name: str, actual: dict[str, np.ndarray]) -> None:
    reference = columns(GOLDEN / name)
    bounds = BOUNDS[name]
    assert actual.keys() == reference.keys() == bounds.keys()
    for col, bound in bounds.items():
        got, want = actual[col], reference[col]
        assert got.shape == want.shape, f"{name}:{col} has {got.shape} rows"
        if bound == 0.0 or want.dtype.kind == "U":
            assert np.array_equal(got, want), f"{name}:{col} differs"
        else:
            dev = float(np.max(np.abs(got - want), initial=0.0))
            assert dev <= bound, f"{name}:{col} deviates by {dev:.3g} > {bound:.3g}"


@pytest.mark.parametrize("name", CLI_FILES)
def test_cli_output_within_bounds(cli_outputs, name):
    assert_within(name, columns(cli_outputs / name))


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_apply_2d_within_bounds(ops_2d, name):
    op = ops_2d[name]
    vals = apply_operator(op, smooth_field(op.grid), farfield=0.25)
    assert_within(f"apply_2d/{name}.csv",
                  {"node": op.grid.interior_index.astype(float), "value": vals})


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_neumann_2d_within_bounds(ops_2d, name):
    op = ops_2d[name]
    window = annulus_window(op.grid, 0.25, 1.0)
    vals = neumann_derivative(op.grid, op.params, smooth_field(op.grid), window.indices)
    assert_within(f"neumann_2d/{name}.csv",
                  {"node": window.indices.astype(float), "value": vals})


def test_every_reference_has_bounds():
    files = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*")
             if p.suffix in (".csv", ".json")}
    assert files == set(BOUNDS)
