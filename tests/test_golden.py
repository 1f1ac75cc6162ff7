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

from conftest import GRIDS_2D, dense_exterior, dense_interior, smooth_field
from fracschrod import annulus_window, apply_operator, neumann_derivative
from fracschrod.fraclap import _blocks, _Stencil

# forward/, principles/ and linearize/ were re-recorded when the exterior
# product became a lattice convolution, and forward/ and linearize/ again
# when the interior product did (Newton's residual); all but probe/ were
# re-recorded when the row sums that set the diagonal became the blocks'
# convolutions with ones.  Each is a summation-order change, and the outputs
# pass the bounded tier against tests/golden/, recorded before any of them
CLI_PINS = {
    "forward/cauchy_bank.json":
        "a1fc2c89d7465cc0b3bb1f0f8e7a4c72f06d063b7bc03cdaabed5404c11aa90f",
    "forward/newton_trace.csv":
        "df011359025b965be2d8cecb3b015c7684f515a833e1cb91085faf62199b8dd7",
    "forward/solution.csv":
        "6f9dbaf9276978cb126001a002df1a904a390636fce6844b1a0f2975c56e58c5",
    "linearize/linearize.csv":
        "0d922a3f9b7667b8dd024908f6abcc3eed4bedca409427dc142362f8a56d7ad6",
    "principles/principles.csv":
        "306fcdd0dcfc83dde6983717f55efe25255aab36c606bf72e42b700f1bee4f19",
    "probe/probe.csv":
        "018f540c6682b237d05a879ec0916b79ce85c6b9bab48c78f9f21abf7dc54108",
    "recover/misfit.csv":
        "e37d1abd3d4b005ee23735274f0410b597d1cc9d1388c494a4303e2d1c969b2a",
    "recover/recover.csv":
        "b9fa656f282f428eff101e601e462605316614b2e41acbd7a513af900389047e",
    "solve/solution.csv":
        "129be51493b5da5489a5cece738e9fda46766d50ecd2d419c080f116eda8bc4a",
}

# the diagonal moved with the row sums; the off-diagonal fill, the exterior
# columns and the tail kept their bytes
OPERATOR_PINS = {
    "box-s0.5": "97eb5b858ff6b5048516b3817b176b16d65ec24d45d8a722b4f05908e8b65065",
    "rect-s0.25": "240b6f4f46f8d34ab68d87d4521251f4ceff2e11cc008cbe0cb8d673d9e59792",
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
# re-recorded with each convolution and with the row sums, like the CLI pins
APPLY_PINS = {
    "box-s0.5": "f8899118a0fd93930fa5a985f7c3e163fdfec6b86eebd135f67890afa34f53cb",
    "rect-s0.25": "1fdb3e1c88b9b4a33aefecab343b68d89370c1b9743006bdc8a01eb3392cc60f",
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
    # the interior block's dense fill and the stencil's exact exterior
    # columns are the bytes of the dense blocks
    op = ops_2d[name]
    assert sha(dense_interior(op), dense_exterior(op), op.tail) == OPERATOR_PINS[name]


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
