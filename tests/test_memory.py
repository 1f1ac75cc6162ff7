"""Peak memory of assembly, the system factorization, linear and Newton
solves, DN assembly, a recovery evaluation, the operator apply, the Neumann
trace, bump sampling and the solution CSV.

tracemalloc sees numpy's buffers, so the peak counts every array the call
allocates, including the ones it returns.  Measured on (-1,1)^2 at h=2^-4,
R=3: the factor, packed as ni (ni + 1) / 2 floats, is 3.7 MB, a dense
ni x ni matrix would be 7.4 MB and a dense exterior block 47 MB.  The
operator itself holds none of them.
"""

import tracemalloc

import numpy as np
import pytest

from fracschrod import (
    Domain,
    Field,
    LinearProblem,
    Region,
    annulus_window,
    apply_operator,
    assemble,
    build_grid,
    c3_bump,
    catalogue,
    neumann_derivative,
    sample_function,
    solution_to_csv,
    solve_linear,
    solve_semilinear,
)
from fracschrod.calderon import _DnAssembler
from fracschrod.fraclap import _Stencil
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


def matrix_bytes(op) -> int:
    """Bytes of one factor of the system: ni (ni + 1) / 2 float64, packed."""
    ni = op.grid.n_interior
    return ni * (ni + 1) // 2 * 8


def test_assembly_peak_is_the_blocks(traced_assembly):
    # no row is formed: the peak is the stencil's tables and the blocks'
    # set-up, a few arrays the size of the stencil kernel, (4K+1)^n floats
    # (measured: 1.7 MiB here and 6.7 MiB at h=2^-5, 6.0 and 5.9 kernels;
    # 7.1 and 6.7 kernels when the blocks gathered their kernels through
    # integer offset arrays), bounded with a margin of two kernels;
    # the blocks hold under a twentieth of a dense ni x ni matrix
    op, peak = traced_assembly
    assert peak < 8 * _Stencil(op.grid, op.params).kernel.nbytes
    assert op.a_ii.nbytes + op.a_ie.nbytes < 0.05 * op.grid.n_interior ** 2 * 8


def test_no_call_forms_a_dense_exterior_block(traced_assembly):
    # a dense (ni, n_exterior) array alone would be 47 MB here
    op, assembly_peak = traced_assembly
    grid = op.grid
    ni = grid.n_interior
    dense = ni * grid.n_exterior * 8
    g = Field.from_values(grid, np.where(grid.labels == Region.EXTERIOR, 0.5, 0.0))
    # the 132 nodes one step off the domain (measured: 20.0 MiB for the DN
    # set-up, 27.5 MiB with probe fields, against 44.9 MiB for a dense
    # exterior block)
    window = annulus_window(grid, grid.h, grid.h)
    peaks = {"assemble": assembly_peak}
    calls = {
        "apply_operator": lambda: apply_operator(op, g),
        "solve_linear": lambda: solve_linear(LinearProblem(
            op=op, a=np.full(ni, 0.25), f=np.ones(ni), g=g)),
        "solve_semilinear": lambda: solve_semilinear(
            op, catalogue("saturating-cubic", 1.0), g),
        "_DnAssembler": lambda: _DnAssembler(op, window),
    }
    for name, call in calls.items():
        peaks[name] = traced_peak(call)[1]
    assert all(peak < dense for peak in peaks.values()), peaks


def test_factorization_peak_is_one_matrix(traced_assembly):
    # one packed array filled from the interior block and factored in place;
    # no finiteness mask and no dense ni x ni array (measured: 1.3 KiB over
    # the packed factor here)
    op, _ = traced_assembly
    diagonal = op.tail + np.linspace(0.0, 1.0, op.grid.n_interior)
    _, peak = traced_peak(_factor_system, op, diagonal)
    assert peak <= matrix_bytes(op) + 2**16


def test_solves_hold_one_factor(traced_assembly):
    # the operator keeps the last factor; a new potential frees it before
    # factoring, so two factors never coexist (measured: 564 KiB over one
    # packed factor, mostly the exterior product's FFT buffers)
    op, _ = traced_assembly
    grid = op.grid
    ni = grid.n_interior

    def solve_two_potentials():
        for a in (np.full(ni, 0.25), np.linspace(0.0, 1.0, ni)):
            solve_linear(LinearProblem(op=op, a=a, f=np.ones(ni), g=Field.zeros(grid)))

    _, peak = traced_peak(solve_two_potentials)
    assert peak <= matrix_bytes(op) + 2**20


def test_solve_and_dn_assembly_share_one_factor(traced_assembly):
    # solve_linear and the DN assembler keep their factor in the operator's
    # one memo, so a DN matrix after a solve replaces the solve's factor
    # rather than holding a second one (measured: 556 KiB over one packed
    # factor)
    grid = traced_assembly[0].grid
    op = assemble(grid, 0.5)
    ni = grid.n_interior
    window = annulus_window(grid, grid.h, grid.h)
    asm = _DnAssembler(op, window, window.indices[:2])

    def solve_then_dn_matrix():
        solve_linear(LinearProblem(op=op, a=np.full(ni, 0.25), f=np.ones(ni),
                                   g=Field.zeros(grid)))
        asm.matrix(np.linspace(0.0, 1.0, ni))

    _, peak = traced_peak(solve_then_dn_matrix)
    assert peak <= matrix_bytes(op) + 2**20


def test_newton_holds_no_factor(traced_assembly):
    # every Newton step is CG preconditioned by the optimal tau matrix,
    # inverted by sine transforms over the interior box, so the solve
    # allocates a few vectors and FFT buffers and no ni x ni array, not even
    # the packed factor of one (measured: 590 KiB with 4 Newton steps, as
    # with the circulant before it, against 3.7 MB for a factor)
    grid = traced_assembly[0].grid
    op = assemble(grid, 0.5)
    g = Field.from_values(grid, np.where(grid.labels == Region.EXTERIOR, 0.5, 0.0))
    sol, peak = traced_peak(solve_semilinear, op, catalogue("saturating-cubic", 1.0), g)
    assert sol.iterations >= 2
    assert peak < matrix_bytes(op) / 2


def test_neumann_trace_peak():
    # 2D h=2^-5 and the 6768-node window of the forward benchmark: the
    # stencil's kernel distances are formed in place and the kernel rows and
    # differences are batched at 512 KiB each (measured: 4.77 MiB; 11.76 MiB
    # with the meshgrid distances and 4 MiB batches)
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-5, 3.0)
    op = assemble(grid, 0.5)
    u = Field.from_values(grid, np.sin(np.arange(grid.n_nodes)))
    window = annulus_window(grid, 0.5, 1.0)
    _, peak = traced_peak(neumann_derivative, grid, op.params, u, window.indices)
    assert window.size == 6768
    assert peak <= 6 * 2**20


def test_apply_peak_is_one_block(traced_assembly):
    # both products are lattice convolutions (measured: 492 KiB); all
    # interior rows against all exterior nodes at once would be 47 MB
    op, _ = traced_assembly
    u = Field.from_values(op.grid, np.linspace(-1.0, 1.0, op.grid.n_nodes))
    out, peak = traced_peak(apply_operator, op, u)
    assert peak <= 2**21 + out.nbytes


def test_dn_assembler_keeps_its_three_arrays(traced_assembly):
    # the window rows, one batch at a time, are set-up temporaries: the
    # assembler keeps the Neumann kernel, filled from the window rows'
    # interior columns, the probe right-hand sides and the constant part,
    # and forms no N x p or k x N array (measured: 29.3 MiB retained of a
    # 42.0 MiB peak with 1220 window-node probes; 78.5 MiB with probe fields'
    # values at their support and a dense rank check of the window block,
    # 87.4 MiB with a separate gather of the Neumann kernel, 205 MiB with
    # the N-wide arrays)
    op, _ = traced_assembly
    window = annulus_window(op.grid, op.grid.h, 0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        asm = _DnAssembler(op, window)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert asm.nodes.size == 1220
    assert held <= asm.neumann_lin.nbytes + asm.rhs.nbytes + asm.const.nbytes + 2**20
    assert peak <= 82 * 2**20


@pytest.mark.parametrize("h, bound_mib", [(0.25, 1), (0.125, 10)], ids=["h4", "h8"])
def test_gauss_newton_holds_no_jacobian(h, bound_mib):
    # one recovery evaluation holds the probe and Green solves (ni x p and
    # ni x k), the k x p residual and ni x ni products, never the (k p) x ni
    # Jacobian: at h = 1/4 (ni = 49, 176 window-node probes on a 176-node
    # window) the stack [J | r] with its Tikhonov rows was 31025 x 50, 11.8
    # MiB, and at h = 1/8 (ni = 225, 708 probes) 501489 x 226, 865 MiB
    # (measured: 0.57 and 7.7 MiB)
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), h, 3.0)
    op = assemble(grid, 0.5)
    ni = grid.n_interior
    window = annulus_window(grid, grid.h, 1.0)
    asm = _DnAssembler(op, window)
    target = asm.matrix(np.full(ni, 0.5))
    a = np.linspace(0.0, 1.0, ni)
    _, peak = traced_peak(asm.gauss_newton, a, target, 1e-6)
    assert peak <= bound_mib * 2**20


@pytest.fixture(scope="module")
def grid_h5():
    """(-1,1)^2 at h=2^-5, R=3: the forward-2d benchmark's 28661 nodes."""
    return build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-5, 3.0)


def test_solution_csv_streams_node_blocks(grid_h5, tmp_path):
    # rows reach write_csv a block of nodes at a time, so no per-node list
    # is as long as the grid (measured: 0.33 MiB; 4.0 MiB when the rows
    # were one list of tuples over the whole grid)
    u = Field.from_values(grid_h5, np.linspace(-1.0, 1.0, grid_h5.n_nodes))
    _, peak = traced_peak(solution_to_csv, tmp_path / "solution.csv", u)
    assert peak < 2 * 2**20


def test_bump_sampling_holds_a_few_region_arrays(grid_h5):
    # one array formula over the 24.7k exterior points; the fourth power
    # runs in Python floats on the support only (measured: 1.22 MiB; 1.58
    # MiB with one Python call per point)
    _, peak = traced_peak(sample_function, grid_h5, c3_bump((1.6, 0.3), 0.4),
                          Region.EXTERIOR)
    assert peak < 1.5 * 2**20
