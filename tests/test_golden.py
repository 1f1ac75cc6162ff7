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
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracschrod
from conftest import CONFIGS, GRIDS_2D, dense_exterior, dense_interior, smooth_field
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
# unblocked dgeqrf ("blocked QR").  forward/, linearize/, principles/ and
# solve/ were re-recorded again, a summation-order change, when the
# convolutions' direct near field shrank from |k|_inf <= 8 to 4 ("near
# field"): more of each product goes through the FFT, which moves the row
# sums that set the diagonal and every product's last bits.  recover/ was
# re-recorded, with its two references, by the declared fix that replaced
# trf with a bounded Levenberg-Marquardt iteration ("recovery to the
# truth", tests/golden/README.md): the estimate went from 2.03e-2 to
# 6.92e-8 relative of the config's truth.  recover/ alone was re-recorded
# again, a summation-order change, when each evaluation came to give the
# cost, gradient and Gauss-Newton matrix from the Khatri-Rao structure of
# the Jacobian instead of the R factor of [J | r] ("Khatri-Rao
# Gauss-Newton"): the iteration is the same in exact arithmetic, but its
# roundoff path is not.  forward/ and linearize/ were re-recorded again, a
# summation-order change, when Newton's CG step came to be preconditioned
# by the optimal tau matrix instead of T. Chan's circulant ("CG step on the
# tau matrix"): CG stops at the same relative residual after fewer
# iterations, so each step's last bits differ
CLI_PINS = {
    # CG step on the tau matrix: g-1/neumann 5.55e-17 off, 0.20 of its bound
    # (unchanged)
    "forward/cauchy_bank.json":
        "c5561919400646f3a8347868d57c8da440949535b7a31c9e9ab1adbfb5e8bf74",
    # CG step on the tau matrix: residual 8.23e-15 off, 0.31 of its bound
    # (was 5.25e-15, 0.20)
    "forward/newton_trace.csv":
        "fd733659d00cccbb6f9aa38be3a9f0bf5ca649a945a72a25a68a010cb3a58b08",
    # CG step on the tau matrix: value 2.91e-16 off, 0.17 of its bound
    # (unchanged)
    "forward/solution.csv":
        "6785da034a7af52419b5d5d7708124d6df3c28e3393aa948afb5c993e4399c64",
    # CG step on the tau matrix: e_l2 8.49e-13 off, 0.05 of its bound (was
    # 9.25e-13, 0.05)
    "linearize/linearize.csv":
        "26bfc132859198590d88516f80ef60b330e4b1c7719527e2155df6eb59b23351",
    # near field: min_u 6.66e-16 off, 0.59 of its bound
    "principles/principles.csv":
        "21664c5a045cc55ca3a7e705f1dc9920426b44fc720ec057069e3878351dfb45",
    "probe/probe.csv":
        "45841a257404ce20da1e8fb106cd9a6c77f28527aca160637da5abe86a7e781c",
    # Khatri-Rao Gauss-Newton: misfit 9.35e-17 off, 0.01 of its bound
    "recover/misfit.csv":
        "24b60f9ada1cd519ed0c8ff9322f020d1d6d99cc526e51fde245210ba9e74e76",
    # Khatri-Rao Gauss-Newton: a_estimate 2.02e-8 off, 0.42 of its bound
    "recover/recover.csv":
        "92168db8b29ce40c040f969dca92f79419ee8612df2b9cdc3cf3106fb3693954",
    # near field: value 2.28e-14 off, 0.02 of its bound.  Holds at 2 and 4
    # OpenBLAS threads, not at 1, where the packed Cholesky moves values by
    # up to 7.33e-15 (test_solve_output_across_blas_threads)
    "solve/solution.csv":
        "093e65600ba87d3170f95686a8b07b5b45549682357a563488e02df6bfa99f01",
}

# the diagonal moved with the row sums; the off-diagonal fill, the exterior
# columns and the tail kept their bytes.  Re-recorded by the declared
# singular-cell fix (tests/golden/README.md): the diagonal and the axis
# neighbors' weights moved, by at most 2.24 (box) and 0.269 (rect).
# Re-recorded with the near field (a summation-order change): only the
# diagonal moved, by at most 3.55e-15 (box) and 8.88e-16 (rect), 2.6e-16
# relative.  rect alone was re-recorded when the 2D singular cell's mass
# came from a Gauss-Legendre rule instead of scipy's hyp2f1 ("cell mass by
# quadrature", tests/golden/README.md): its exterior columns moved by at
# most 5.55e-17 (1.5e-16 relative); box kept its bytes
OPERATOR_PINS = {
    "box-s0.5": "4f511ad8844b43be36188c89a1e5d7528cd7eb379c3beed129caca591f571ffd",
    "rect-s0.25": "33f958af49f9abfcebdd1c0083822a222265e1443dea038230e3323e53313752",
}

# stencil rows at every exterior node: tail clamp near R, face and corner
# cells.  Re-recorded by the declared singular-cell fix: weights moved by at
# most 0.561 (box) and 0.0673 (rect), tails by 1.68 and 0.202.  Re-recorded
# with the cell mass by quadrature: weights moved by at most 2.22e-16 (box)
# and 5.55e-17 (rect), tails by 3.55e-15 and 8.88e-16, 2.0e-16 relative
ROW_PINS = {
    "box-s0.5": "7597f7db58e342c525d2574f8ea85ce2156d6f5eacc00469a2e45b6442d9fc62",
    "rect-s0.25": "2cd78d50b24017e8b56ada9da4955dc3c27298e0ceb7a71ab9f9315d94107ae3",
}

NEUMANN_PINS = {
    "box-s0.5": "f5ada0e0995a02c2ffc80fffc3aa275e2b3f523cad8c5d54387d3f6ca5cf9c8a",
    "rect-s0.25": "47ea6782a76e13f08dcb0134876c1927e69f6a04340506ebe6e2269d3b4f534c",
}

# apply_operator of the Neumann test's field with far-field value 0.25;
# re-recorded with each convolution and with the row sums, like the CLI pins,
# and by the declared singular-cell fix, with tests/golden/apply_2d/
# (values moved by at most 9.95e-2 (box) and 1.51e-2 (rect)).  Re-recorded
# with the near field: value 1.33e-15 (box) and 8.88e-16 (rect) off
# tests/golden/apply_2d/, 0.03 and 0.06 of the bounds
APPLY_PINS = {
    "box-s0.5": "7e772e439b071a6fbcc79df5f51166a5b409e9464b4154a284f0752c17bfd244",
    "rect-s0.25": "da056856605df17df2bddade1060f5a65b06073366c54bca1c27da15f87bafda",
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


def test_solve_output_across_blas_threads(tmp_path):
    # the solve/ pin's bytes depend on the BLAS thread count; the values at
    # 1 and 2 OpenBLAS threads stay within the solve/ bound of the bounded
    # tier (measured 7.33e-15 apart)
    from test_bounded import BOUNDS, columns

    src = str(Path(fracschrod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "fracschrod.cli", "solve",
             "--config", str(CONFIGS / "getoor.json"), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(columns(out / "solution.csv"))
    one, two = outputs
    bounds = BOUNDS["solve/solution.csv"]
    assert one.keys() == two.keys() == bounds.keys()
    for col, bound in bounds.items():
        assert np.max(np.abs(one[col] - two[col])) <= bound, col


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
