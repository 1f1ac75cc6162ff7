"""Byte-level pins of the outputs the discretization produces.

Every CSV (and the Cauchy bank) written by the six sample configs, the
assembled 2D operator arrays, the raw quadrature rows at every exterior
node, a 2D Neumann trace and a 2D operator application are pinned by
sha256.  A refactor that is meant to leave the numbers alone must leave
these hashes alone.

The pins hold for one numpy/scipy/BLAS build; a different build may
round the last bit of a transcendental or a reduction differently, in
which case every pin here moves at once and should be re-recorded only
after an independent check that the change is roundoff.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fracschrod import (
    Domain,
    annulus_window,
    apply_operator,
    assemble,
    build_grid,
    neumann_derivative,
    sample_function,
)
from fracschrod.cli import EXPERIMENTS, run
from fracschrod.fraclap import operator_row

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_OF = {"solve": "getoor", "forward": "forward", "principles": "principles",
             "linearize": "linearize", "recover": "recover", "probe": "probe"}

CLI_PINS = {
    "forward/cauchy_bank.json":
        "80720be4ed67b5070c855133ba5eac9c09ccf284f1587cb54c743b44863a5b6b",
    "forward/newton_trace.csv":
        "6daa8047e9bc719a241d8e6e25dbb2f4625709d3acdca243432a17b05b313ebb",
    "forward/solution.csv":
        "03955fe9e6092abafa8eb4427379c105a8c0412d06ccf45dbddd129114b561a9",
    "linearize/linearize.csv":
        "8ea075ea21ed21cefed59a2049ff6dbba6b43093b7e28216dcb44585452c09d5",
    "principles/principles.csv":
        "1d3565adaab7fbf27f3735d18a695857312ea56dd77f881ec3c42217637f6e9d",
    "probe/probe.csv":
        "018f540c6682b237d05a879ec0916b79ce85c6b9bab48c78f9f21abf7dc54108",
    "recover/misfit.csv":
        "86499ec09eb4a9db3f1f173593158f049b221eb8cf53617d2c696dbaef59a081",
    "recover/recover.csv":
        "884ba036bc4bbd3c6e09ea9c7e946c48e180b83c8373f3bd7d3750a04c677019",
    "solve/solution.csv":
        "30b52e3e65d0fc7e3d88207baa34fb878abfd84462eb7355b839019588ca71ad",
}

# (-1,1)^2 at h=2^-3, s=0.5 and (-1,1)x(-0.5,0.5) at h=1/8, s=0.25; R=3
GRIDS_2D = {
    "box-s0.5": (Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-3, 3.0, 0.5),
    "rect-s0.25": (Domain.box((-1.0, -0.5), (1.0, 0.5)), 1.0 / 8, 3.0, 0.25),
}

OPERATOR_PINS = {
    "box-s0.5": "5ac50c61b91243292a01c7a90ea3376473da49ef8ab34d3e40d8d891c24804f8",
    "rect-s0.25": "1cb94a49806512d2beb78e1e0ec6d4d28d29fb0ea38c576a7df226af6ef7996b",
}

# operator_row at every exterior node: tail clamp near R, face and corner cells
ROW_PINS = {
    "box-s0.5": "2c78482fe8c7193a98a090b82492957a4c32dc0b8aede94d9d9f35df8967a72b",
    "rect-s0.25": "ea0232298e97aac7775757961825b6a84831db83ef48503b48d6621cd1150c58",
}

NEUMANN_PINS = {
    "box-s0.5": "f5ada0e0995a02c2ffc80fffc3aa275e2b3f523cad8c5d54387d3f6ca5cf9c8a",
    "rect-s0.25": "47ea6782a76e13f08dcb0134876c1927e69f6a04340506ebe6e2269d3b4f534c",
}

# apply_operator of the Neumann test's field with far-field value 0.25
APPLY_PINS = {
    "box-s0.5": "d4975a04e98bfc88ee7aa38a493eadec4b9f6cebb80307d775daa24818108f3e",
    "rect-s0.25": "91254b39d952fe97b05ed0ed36e746f25ffd460e577e321946d1fe95bf97a553",
}


def smooth_field(grid):
    return sample_function(grid, lambda x, y: np.cos(1.3 * x - 0.4) * np.exp(-y * y))


def sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for experiment in EXPERIMENTS:
        cfg = CONFIGS / f"{CONFIG_OF[experiment]}.json"
        assert run(experiment, str(cfg), str(root / experiment)) == 0
    return root


@pytest.fixture(scope="module")
def ops_2d():
    return {name: assemble(build_grid(dom, h, R), s)
            for name, (dom, h, R, s) in GRIDS_2D.items()}


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_output_bytes(cli_outputs, name):
    digest = hashlib.sha256((cli_outputs / name).read_bytes()).hexdigest()
    assert digest == CLI_PINS[name]


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_operator_bytes_2d(ops_2d, name):
    op = ops_2d[name]
    assert sha(op.a_ii, op.a_ie, op.tail) == OPERATOR_PINS[name]


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_exterior_rows_2d(ops_2d, name):
    op = ops_2d[name]
    digest = hashlib.sha256()
    for g in op.grid.exterior_index:
        w, tail_coeff = operator_row(op, int(g))
        digest.update(w.tobytes())
        digest.update(np.float64(tail_coeff).tobytes())
    assert digest.hexdigest() == ROW_PINS[name]


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_neumann_annulus_2d(ops_2d, name):
    op = ops_2d[name]
    grid = op.grid
    u = smooth_field(grid)
    window = annulus_window(grid, 0.25, 1.0)
    vals = neumann_derivative(grid, op.params, u, window.indices)
    assert sha(window.indices.astype(float), vals) == NEUMANN_PINS[name]


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_apply_2d(ops_2d, name):
    op = ops_2d[name]
    vals = apply_operator(op, smooth_field(op.grid), farfield=0.25)
    assert sha(vals) == APPLY_PINS[name]
