"""Byte-level pins of the outputs the discretization produces.

Every CSV (and the Cauchy bank) written by the six sample configs, the
assembled 2D operator arrays, the raw quadrature rows at every exterior
node, a 2D Neumann trace and a 2D operator application are pinned by
sha256.  A refactor that is meant to leave the numbers alone must leave
these hashes alone.

A change that legitimately reorders a summation may re-record the pins
it moves, provided tests/test_bounded.py still passes against references
it did not edit.  The pins hold for one numpy/scipy/BLAS build; a
different build may round the last bit of a transcendental or a
reduction differently, in which case every pin here moves at once and
should be re-recorded only after an independent check that the change is
roundoff.
"""

import hashlib

import numpy as np
import pytest

from conftest import GRIDS_2D, dense_interior, smooth_field
from fracschrod import annulus_window, apply_operator, neumann_derivative
from fracschrod.fraclap import _blocks, _Stencil

# forward/, principles/ and linearize/ were re-recorded when the exterior
# product became a lattice convolution, and forward/ and linearize/ again
# when the interior product did (Newton's residual); both are summation-order
# changes, and the outputs pass the bounded tier against tests/golden/,
# recorded before either
CLI_PINS = {
    "forward/cauchy_bank.json":
        "c760265621e4e26a677aa1a345376023f4a1223c429c6e390e204d58fafa4116",
    "forward/newton_trace.csv":
        "7ec89a0e242115c8f3b625dd90576c1f7b0b4b7d7fc959d6f18dd5301d026ff6",
    "forward/solution.csv":
        "4896561fdda3a82e73f7c6fac628d1d3de9554862535e1aa143f2bb761ffe7c9",
    "linearize/linearize.csv":
        "a060ed1880002784cfbc5e53cce3306b908047a83b4da1a399278ffaeb0b8c24",
    "principles/principles.csv":
        "6f4913c0505830b8fbdd0ce9744d0f984c977d7b5b0d06683a03cc8ded35b797",
    "probe/probe.csv":
        "018f540c6682b237d05a879ec0916b79ce85c6b9bab48c78f9f21abf7dc54108",
    "recover/misfit.csv":
        "86499ec09eb4a9db3f1f173593158f049b221eb8cf53617d2c696dbaef59a081",
    "recover/recover.csv":
        "884ba036bc4bbd3c6e09ea9c7e946c48e180b83c8373f3bd7d3750a04c677019",
    "solve/solution.csv":
        "30b52e3e65d0fc7e3d88207baa34fb878abfd84462eb7355b839019588ca71ad",
}

OPERATOR_PINS = {
    "box-s0.5": "5ac50c61b91243292a01c7a90ea3376473da49ef8ab34d3e40d8d891c24804f8",
    "rect-s0.25": "1cb94a49806512d2beb78e1e0ec6d4d28d29fb0ea38c576a7df226af6ef7996b",
}

# stencil rows at every exterior node: tail clamp near R, face and corner cells
ROW_PINS = {
    "box-s0.5": "2c78482fe8c7193a98a090b82492957a4c32dc0b8aede94d9d9f35df8967a72b",
    "rect-s0.25": "ea0232298e97aac7775757961825b6a84831db83ef48503b48d6621cd1150c58",
}

NEUMANN_PINS = {
    "box-s0.5": "f5ada0e0995a02c2ffc80fffc3aa275e2b3f523cad8c5d54387d3f6ca5cf9c8a",
    "rect-s0.25": "47ea6782a76e13f08dcb0134876c1927e69f6a04340506ebe6e2269d3b4f534c",
}

# apply_operator of the Neumann test's field with far-field value 0.25;
# re-recorded with each convolution, like the CLI pins above
APPLY_PINS = {
    "box-s0.5": "24f90879028064d54ba8e5840147f6e44989328d454b6b053c6c790caa273a63",
    "rect-s0.25": "bc6a53b0e6df42c91019375435a0e90d02a123f746795a6a010200f987d83c5a",
}


def sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_output_bytes(cli_outputs, name):
    digest = hashlib.sha256((cli_outputs / name).read_bytes()).hexdigest()
    assert digest == CLI_PINS[name]


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_operator_bytes_2d(ops_2d, name):
    # the interior block's dense fill and the exterior block's exact columns
    # are the bytes of the dense blocks
    op = ops_2d[name]
    columns = op.a_ie.columns(np.arange(op.grid.n_exterior))
    assert sha(dense_interior(op), columns, op.tail) == OPERATOR_PINS[name]


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
def test_exterior_rows_2d(ops_2d, name):
    op = ops_2d[name]
    stencil = _Stencil(op.grid, op.params)
    exterior = op.grid.exterior_index
    digest = hashlib.sha256()
    for sl in _blocks(exterior.size, op.grid.n_nodes):
        w, tail = stencil.rows(exterior[sl])
        for row, tail_coeff in zip(w, tail):
            digest.update(row.tobytes())
            digest.update(tail_coeff.tobytes())
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
