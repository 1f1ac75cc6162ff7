"""Peak memory of assembly, the system factorization, linear solves, DN
assembly and the operator apply.

tracemalloc sees numpy's buffers, so the peak counts every array the call
allocates, including the ones it returns.  Measured on (-1,1)^2 at h=2^-4,
R=3, where the stencil tables are small next to the dense blocks.
"""

import tracemalloc

import numpy as np
import pytest

from fracschrod import (
    Domain,
    Field,
    LinearProblem,
    annulus_window,
    apply_operator,
    assemble,
    build_grid,
    canonical_probes,
    solve_linear,
)
from fracschrod.calderon import _DnAssembler
from fracschrod.solver import _factor_system


def traced_peak(fn, *args):
    """Result of fn(*args) and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def traced_assembly():
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-4, 3.0)
    return traced_peak(assemble, grid, 0.5)


def test_assembly_peak_is_the_blocks(traced_assembly):
    # no full-width row block and no take copy on top of a_ii and a_ie
    op, peak = traced_assembly
    assert peak <= 1.25 * (op.a_ii.nbytes + op.a_ie.nbytes)


def test_factorization_peak_is_one_matrix(traced_assembly):
    # one Fortran-order copy, factored in place, plus the finiteness mask
    op, _ = traced_assembly
    diagonal = op.tail + np.linspace(0.0, 1.0, op.grid.n_interior)
    _, peak = traced_peak(_factor_system, op, diagonal)
    assert peak <= 1.25 * op.a_ii.nbytes


def test_solves_hold_one_factor(traced_assembly):
    # the operator keeps the last factor; a new potential frees it before
    # factoring, so two factors (2.1 x a_ii.nbytes) never coexist
    op, _ = traced_assembly
    grid = op.grid
    ni = grid.n_interior

    def solve_two_potentials():
        for a in (np.full(ni, 0.25), np.linspace(0.0, 1.0, ni)):
            solve_linear(LinearProblem(op=op, a=a, f=np.ones(ni), g=Field.zeros(grid)))

    _, peak = traced_peak(solve_two_potentials)
    assert peak <= 1.25 * op.a_ii.nbytes


def test_solve_and_dn_assembly_share_one_factor(traced_assembly):
    # solve_linear and the DN assembler keep their factor in the operator's
    # one memo, so a DN matrix after a solve replaces the solve's factor
    # rather than holding a second one (2.1 x a_ii.nbytes)
    grid = traced_assembly[0].grid
    op = assemble(grid, 0.5)
    ni = grid.n_interior
    window = annulus_window(grid, grid.h, grid.h)
    asm = _DnAssembler(op, window, canonical_probes(window)[:2])

    def solve_then_dn_matrix():
        solve_linear(LinearProblem(op=op, a=np.full(ni, 0.25), f=np.ones(ni),
                                   g=Field.zeros(grid)))
        asm.matrix(np.linspace(0.0, 1.0, ni))

    _, peak = traced_peak(solve_then_dn_matrix)
    assert peak <= 1.25 * op.a_ii.nbytes


def test_apply_peak_is_one_block(traced_assembly):
    # the difference rows are formed one block at a time; all interior rows
    # against all exterior nodes at once would be a_ie.nbytes (47 MB)
    op, _ = traced_assembly
    u = Field.from_values(op.grid, np.linspace(-1.0, 1.0, op.grid.n_nodes))
    out, peak = traced_peak(apply_operator, op, u)
    assert peak <= 2**21 + out.nbytes
