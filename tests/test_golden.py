"""Byte-level pins of the outputs the discretization produces.

Every CSV (and the Cauchy bank) written by the six sample configs, the
assembled 2D operator arrays, the raw quadrature rows at every exterior
node, a 2D Neumann trace and a 2D operator application are pinned by
sha256.  A refactor that is meant to leave the numbers alone must leave
these hashes alone.

A change that legitimately reorders a summation may re-record the pins
it moves, provided tests/test_bounded.py still passes against references
it did not edit.  A declared fix of the numbers re-records only the pins
and references it names, as tests/golden/README.md sets out.  The pins hold for one numpy/scipy/BLAS build; a
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
# pass the bounded tier against tests/golden/, recorded before any of them.
# probe/ alone was re-recorded, with its reference, by the declared fix of
# the probe's self-weight (tests/golden/README.md): sigma_min moved by at
# most 4.3e-4 relative (4.27e-17 absolute).
# All but probe/ were re-recorded again, a summation-order change, when the
# Cholesky factor moved to rectangular full packed storage ("packed factor":
# LAPACK's dpftrf and dpftrs block the factorization and the solves
# differently); each such pin names its largest deviation from its
# reference, relative to its bound (tests/golden/README.md).
# forward/ and linearize/ were re-recorded again, a summation-order change,
# when Newton's linear step became CG preconditioned by the factor of J0
# ("CG step").  recover/ alone was re-recorded, a summation-order change,
# when trf came to see the R factor of [J | r] instead of the tall residual
# ("R factor"): trf's steps are the same in exact arithmetic, but 500
# iterations of an ill-conditioned problem carry the roundoff along.
# recover/ alone was re-recorded again, a summation-order change, when that
# R factor came from LAPACK's recursive blocked QR, dgeqrt, instead of the
# unblocked dgeqrf ("blocked QR")
CLI_PINS = {
    # circulant CG: g-1/neumann 5.55e-17 off, 0.20 of its bound
    "forward/cauchy_bank.json":
        "db979773fc9df2deabce902c1fc19472eb1e7c053d6cb1b10772e55785af880c",
    # circulant CG: residual 4.64e-15 off, 0.17 of its bound
    "forward/newton_trace.csv":
        "c8755936979d2f0cbb85e4a68be37a735f3a420f6e3038191254992308ac28a8",
    # circulant CG: value 4.3e-16 off, 0.26 of its bound
    "forward/solution.csv":
        "d83ca54bb6cb2c9c90faa921e02f8fd77761f97d2a799aaed665b13c9d39f335",
    # circulant CG: e_l2 2.57e-12 off, 0.15 of its bound
    "linearize/linearize.csv":
        "0cb4aa0721a6de2165c5de51a45b86b047ab35b1b11b4e9461fb81b011dd618b",
    # packed factor: min_u 6.11e-16 off, 0.55 of its bound
    "principles/principles.csv":
        "cec051a450a2e9597b029fc83d7c2f6eda90d2994e8ef02bb5e1d69ff37865c5",
    "probe/probe.csv":
        "45841a257404ce20da1e8fb106cd9a6c77f28527aca160637da5abe86a7e781c",
    # blocked QR: misfit 5.99e-16 off, 0.09 of its bound
    "recover/misfit.csv":
        "8746030227cccda239df0f3253550222b96b1dc45592ee49236ed9eaf6ff92f3",
    # blocked QR: a_estimate 1.21e-09 off, 0.02 of its bound
    "recover/recover.csv":
        "a3bf772709ee51a55caa1a52bb6abd1b39f3dca7574deadeec6fec438e798bda",
    # packed factor: value 1.37e-14 off, 0.01 of its bound
    "solve/solution.csv":
        "0bd014401efc4b518b2c6bcf0a17b71e3b373ae073ccedddda4de28ccd5b0c58",
}

# the diagonal moved with the row sums; the off-diagonal fill, the exterior
# columns and the tail kept their bytes.  Re-recorded by the declared
# singular-cell fix (tests/golden/README.md): the diagonal and the axis
# neighbors' weights moved, by at most 2.24 (box) and 0.269 (rect)
OPERATOR_PINS = {
    "box-s0.5": "ff42b8baaee2038776b912111712ce01c007874c5112605a7b614df15501b85e",
    "rect-s0.25": "07002e7137fdd4d5d4476f554f912f0bf25a6aa0ee948cd5f2c4a4c4996e1ee5",
}

# stencil rows at every exterior node: tail clamp near R, face and corner
# cells.  Re-recorded by the declared singular-cell fix: weights moved by at
# most 0.561 (box) and 0.0673 (rect), tails by 1.68 and 0.202
ROW_PINS = {
    "box-s0.5": "71f2428ffd63f536a8724d255a2bb60db061567bb9922c6278a4a17b82d02869",
    "rect-s0.25": "a9a5fc01b331314a434b06a09eeccfc20ab04390f0ac499fd2f0c9d3bae536f9",
}

NEUMANN_PINS = {
    "box-s0.5": "f5ada0e0995a02c2ffc80fffc3aa275e2b3f523cad8c5d54387d3f6ca5cf9c8a",
    "rect-s0.25": "47ea6782a76e13f08dcb0134876c1927e69f6a04340506ebe6e2269d3b4f534c",
}

# apply_operator of the Neumann test's field with far-field value 0.25;
# re-recorded with each convolution and with the row sums, like the CLI pins,
# and by the declared singular-cell fix, with tests/golden/apply_2d/
# (values moved by at most 9.95e-2 (box) and 1.51e-2 (rect))
APPLY_PINS = {
    "box-s0.5": "00e5f58ff42685f2dee4db4224f8a9d8c874537cc2d850b120e8dbcf9bc27d34",
    "rect-s0.25": "defae56d61ce65912a56a75f68cc8b5edc1e9dad44417a084edbc061a2d985e1",
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
