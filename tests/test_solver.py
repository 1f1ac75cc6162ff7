import dataclasses
import functools
import gc
import os
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.linalg.lapack import dtfttr, dtrttf

from fracschrod import (
    Domain,
    Field,
    LinearProblem,
    NewtonConfig,
    Nonlinearity,
    Region,
    apply_operator,
    assemble,
    build_barrier,
    build_grid,
    catalogue,
    check_comparison,
    check_linf_bound,
    cns,
    dn_map,
    evaluate_at,
    linearization_study,
    solution_to_csv,
    solve_linear,
    solve_semilinear,
)
from fracschrod import solver
from fracschrod.errors import (
    GridMismatch,
    JacobianSingular,
    NewtonDiverged,
    NonPositiveLambda,
    OperatorTooLarge,
    SingularSystem,
    StepNotConverged,
    Validation,
)
from fracschrod.fraclap import _Stencil
from fracschrod.grid import Window
from fracschrod.solver import _factor_system, _lapack, _physical_memory, _solve_system
from conftest import dense_interior, exterior_bump
from oracles import picard_semilinear


def zeros_like_interior(op):
    return np.zeros(op.grid.n_interior)


# homogenization: the zero extension of exterior data g induces the
# interior source apply_operator(op, g), so solving with zero exterior data
# and the shifted source reproduces the solution after adding g back
def test_homogenize_zero_data(op_small):
    assert np.all(apply_operator(op_small, Field.zeros(op_small.grid)) == 0.0)


def test_homogenize_sign(op_small):
    # interior nodes see an exterior bump only through the negative coupling
    g = exterior_bump(op_small.grid, 1.5, 0.25)
    assert np.all(apply_operator(op_small, g) < 0.0)


def test_homogenize_reconstruction(op_small):
    grid = op_small.grid
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, grid.n_interior)
    f = rng.uniform(-1, 1, grid.n_interior)
    g = exterior_bump(grid, 1.5, 0.4, 0.8)
    direct = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
    shifted = solve_linear(LinearProblem(op=op_small, a=a,
                                         f=f - apply_operator(op_small, g),
                                         g=Field.zeros(grid)))
    reconstructed = shifted.values + g.values
    assert np.max(np.abs(reconstructed - direct.values)) <= 1e-10


def test_size_guard_budgets_one_factor(monkeypatch):
    # 2D h=2^-4: 961 interior rows, 7085 nodes; the guard sits at the factor
    # request and needs one packed factor, ni (ni + 1) / 2 8 bytes (3.7 MB),
    # not a dense ni^2 8 or ni N 8; the operator itself never needs it, and
    # neither does a Newton solve whose steps are all CG
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-4, 3.0)
    ni = grid.n_interior
    budget = ni * (ni + 1) // 2 * 8
    assert ni * grid.n_nodes * 8 > 2 * budget
    g = exterior_bump(grid, (1.5, 0.0), 0.5)
    window = Window(grid, grid.exterior_index[:2])
    cubic = catalogue("saturating-cubic", 1.0)
    unpatched = solve_semilinear(assemble(grid, 0.5), cubic, g).u.values
    monkeypatch.setattr(solver, "_physical_memory", lambda: budget)
    solve_linear(LinearProblem(op=assemble(grid, 0.5), a=np.zeros(ni),
                               f=np.ones(ni), g=g))
    monkeypatch.setattr(solver, "_physical_memory", lambda: budget - 1)
    op = assemble(grid, 0.5)
    assert apply_operator(op, g).shape == (ni,)
    assert evaluate_at(op, g, window.indices).shape == (2,)
    u = solve_semilinear(op, cubic, g).u.values
    assert np.max(np.abs(u - unpatched)) <= 1e-15
    solves = (
        lambda: solve_linear(LinearProblem(op=op, a=np.zeros(ni), f=np.ones(ni), g=g)),
        lambda: solve_semilinear(op, catalogue("linear", 1e4), g),
        lambda: dn_map(op, np.zeros(ni), window),
    )
    for call in solves:
        with pytest.raises(OperatorTooLarge, match="one packed factor of the system matrix"):
            call()


def test_operator_too_large_raises_before_allocating():
    # (-1,1)^2 at h=2^-7, R=3: the operator assembles and applies, and one
    # packed factor of 65025 rows, 15.8 GiB, is refused before allocation
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-7, 3.0)
    ni = grid.n_interior
    if ni * (ni + 1) // 2 * 8 <= _physical_memory():
        pytest.skip("this machine holds one factor of the test grid")
    op = assemble(grid, 0.5)
    assert apply_operator(op, Field.zeros(grid)).shape == (ni,)
    a, rhs = np.zeros(ni), np.ones(ni)
    tracemalloc.start()
    try:
        with pytest.raises(OperatorTooLarge, match="GiB"):
            _solve_system(op, a, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(OperatorTooLarge):
        solve_linear(LinearProblem(op=op, a=a, f=rhs, g=Field.zeros(grid)))


def test_solve_linear_getoor(op_fine):
    grid = op_fine.grid
    u = solve_linear(LinearProblem(op=op_fine, a=np.zeros(grid.n_interior),
                                   f=np.ones(grid.n_interior),
                                   g=Field.zeros(grid)))
    xi = grid.interior_nodes.ravel()
    exact = np.sqrt(1.0 - xi**2)
    mask = np.abs(xi) <= 0.9
    rel = np.abs(u.interior_values[mask] - exact[mask]) / exact[mask]
    assert np.max(rel) < 0.02
    i0 = int(np.argmin(np.abs(xi)))
    assert u.interior_values[i0] == pytest.approx(1.0, abs=0.02)


def test_solve_linear_zero_problem(op_small):
    u = solve_linear(LinearProblem(op=op_small, a=np.ones(op_small.grid.n_interior),
                                   f=zeros_like_interior(op_small),
                                   g=Field.zeros(op_small.grid)))
    assert np.all(u.values == 0.0)


def test_solve_linear_residual(op_small):
    grid = op_small.grid
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 2, grid.n_interior)
    f = rng.standard_normal(grid.n_interior)
    g = exterior_bump(grid, -1.5, 0.3, 0.5)
    u = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
    res = (op_small.a_ii @ u.interior_values + op_small.a_ie @ u.exterior_values
           + op_small.tail * u.interior_values + a * u.interior_values - f)
    assert np.max(np.abs(res)) <= 1e-10 * max(1.0, np.max(np.abs(f)))


def test_maximum_principle_trials(op_small):
    rng = np.random.default_rng(42)
    grid = op_small.grid
    for _ in range(20):
        a = rng.uniform(0, 1, grid.n_interior)
        f = rng.uniform(0, 1, grid.n_interior)
        ge = rng.uniform(0, 1, grid.n_exterior)
        values = np.zeros(grid.n_nodes)
        values[grid.exterior_index] = ge
        u = solve_linear(LinearProblem(op=op_small, a=a, f=f,
                                       g=Field.from_values(grid, values)))
        assert np.min(u.interior_values) >= -1e-10


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_maximum_principle_other_orders(s):
    from fracschrod import assemble

    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    op = assemble(grid, s)
    rng = np.random.default_rng(int(s * 100))
    for _ in range(10):
        a = rng.uniform(0, 1, grid.n_interior)
        f = rng.uniform(0, 1, grid.n_interior)
        values = np.zeros(grid.n_nodes)
        values[grid.exterior_index] = rng.uniform(0, 1, grid.n_exterior)
        u = solve_linear(LinearProblem(op=op, a=a, f=f,
                                       g=Field.from_values(grid, values)))
        assert np.min(u.interior_values) >= -1e-10


def test_negative_potential_rejected(op_small):
    with pytest.raises(Validation):
        LinearProblem(op=op_small, a=np.full(op_small.grid.n_interior, -0.1),
                      f=zeros_like_interior(op_small), g=Field.zeros(op_small.grid))


def counted(monkeypatch, name):
    """Replace solver.<name> by a wrapper; returns the list of its calls."""
    calls = []
    real = getattr(solver, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, name, wrapper)
    return calls


def principles_data(grid, seed):
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_nodes)
    values[grid.exterior_index] = rng.uniform(0, 1, grid.n_exterior)
    return (rng.uniform(0, 1, grid.n_interior), rng.uniform(0, 1, grid.n_interior),
            Field.from_values(grid, values))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_rejected(monkeypatch, bad):
    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    op = assemble(grid, 0.5)
    factors = counted(monkeypatch, "_factor_system")
    applies = counted(monkeypatch, "apply_operator")
    ni = grid.n_interior
    spoiled = np.zeros(ni)
    spoiled[ni // 2] = bad
    for a, f in ((spoiled, np.ones(ni)), (np.zeros(ni), spoiled)):
        with pytest.raises(Validation):
            LinearProblem(op=op, a=a, f=f, g=Field.zeros(grid))
    with pytest.raises(Validation):
        build_barrier(op, spoiled)
    assert factors == [] and applies == []


def test_solve_linear_factors_each_potential_once(monkeypatch):
    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    op = assemble(grid, 0.5)
    a0, f0, g0 = principles_data(grid, 0)
    a1, f1, g1 = principles_data(grid, 1)
    problems = [(a0, f0, g0), (a0, f1, g1), (a1, f0, g0), (a0, f0, g0)]
    expected = [solve_linear(LinearProblem(op=assemble(grid, 0.5), a=a, f=f, g=g))
                for a, f, g in problems]
    factors = counted(monkeypatch, "_factor_system")
    counts = []
    for (a, f, g), want in zip(problems, expected):
        u = solve_linear(LinearProblem(op=op, a=a.copy(), f=f, g=g))
        assert u.values.tobytes() == want.values.tobytes()
        counts.append(len(factors))
    # a repeated potential reuses the factor; only the last one is kept
    assert counts == [1, 1, 2, 3]


def test_barrier_applies_the_operator_once(monkeypatch):
    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    op = assemble(grid, 0.5)
    potentials = [principles_data(grid, seed)[0] for seed in (0, 1)]
    expected = [build_barrier(assemble(grid, 0.5), a) for a in potentials]
    applies = counted(monkeypatch, "apply_operator")
    for a, want in zip(potentials, expected):
        barrier = build_barrier(op, a)
        assert barrier.phi.values.tobytes() == want.phi.values.tobytes()
        assert (barrier.lam, barrier.big_c) == (want.lam, want.big_c)
    assert len(applies) == 1


def test_barrier_names_a_nonpositive_lambda(monkeypatch):
    # the cutoff needs a truncation ball strictly around the domain, which
    # build_grid's R >= diameter guarantees, so the grid with R at the
    # domain's half-diagonal is made by hand
    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    zero = np.zeros(grid.n_interior)
    op = assemble(grid, 0.5)
    tight = dataclasses.replace(op, grid=dataclasses.replace(grid, R=1.0))
    with pytest.raises(NonPositiveLambda, match="strictly contain"):
        build_barrier(tight, zero)
    # on an assembled operator L eta > 0, as eta peaks on the domain and the
    # tail mass is positive, so a zero image of the cutoff stands in for
    # one that rounds to lam <= 0
    monkeypatch.setattr(solver, "apply_operator",
                        lambda op, u, farfield=0.0: np.zeros(op.grid.n_interior))
    with pytest.raises(NonPositiveLambda, match="enlarge R"):
        build_barrier(op, zero)


def test_retained_state_dies_with_the_operator():
    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    op = assemble(grid, 0.5)
    a, f, g = principles_data(grid, 0)
    solve_linear(LinearProblem(op=op, a=a, f=f, g=g))
    build_barrier(op, a)
    ref = weakref.ref(op)
    del op
    gc.collect()
    assert ref() is None


def test_semilinear_zero_model_matches_linear(op_medium):
    g = exterior_bump(op_medium.grid, 1.5, 0.4)
    sol = solve_semilinear(op_medium, catalogue("zero"), g)
    lin = solve_linear(LinearProblem(op=op_medium,
                                     a=zeros_like_interior(op_medium),
                                     f=zeros_like_interior(op_medium), g=g))
    assert np.max(np.abs(sol.u.values - lin.values)) <= 1e-12


def test_semilinear_zero_data_zero_solution(op_medium):
    sol = solve_semilinear(op_medium, catalogue("saturating-cubic", 1.0),
                           Field.zeros(op_medium.grid))
    assert np.all(sol.u.values == 0.0)
    assert sol.iterations == 0


def test_semilinear_agrees_with_picard(op_medium):
    nl = catalogue("saturating-cubic", 1.0)
    g = exterior_bump(op_medium.grid, 1.5, 0.4, 1.0)
    newton = solve_semilinear(op_medium, nl, g,
                              NewtonConfig(residual_tol=1e-12))
    picard = picard_semilinear(op_medium, nl, g, tol=1e-10)
    assert np.max(np.abs(newton.u.interior_values - picard)) <= 1e-6


def test_newton_quadratic_tail(op_medium):
    nl = catalogue("saturating-cubic", 1.0)
    g = exterior_bump(op_medium.grid, 1.5, 0.4, 1.0)
    sol = solve_semilinear(op_medium, nl, g, NewtonConfig(residual_tol=1e-12))
    rs = [r for r in sol.residuals if r > 1e-14]
    assert sol.residuals[-1] <= 1e-10
    assert len(rs) >= 3
    kappas = [rs[k + 1] / rs[k] ** 2 for k in range(len(rs) - 1)]
    assert all(np.isfinite(k) for k in kappas)
    assert rs[-1] <= max(kappas) * rs[-2] ** 2 * (1 + 1e-9)


def test_newton_diverged_max_iters(op_medium):
    nl = catalogue("saturating-cubic", 1.0)
    g = exterior_bump(op_medium.grid, 1.5, 0.4, 1.0)
    with pytest.raises(NewtonDiverged):
        solve_semilinear(op_medium, nl, g,
                         NewtonConfig(max_iters=1, residual_tol=1e-14))


@pytest.mark.parametrize("max_iters", [-3, 2.5, True])
def test_bad_max_iters_rejected(max_iters):
    # -3 would report -3 iterations on zero data, and NewtonDiverged "after
    # -3 iterations" otherwise; 2.5 would raise TypeError inside Newton;
    # True is an Integral, ran as 1 and reported "after True iterations"
    with pytest.raises(Validation, match="max_iters"):
        NewtonConfig(max_iters=max_iters)
    assert NewtonConfig(max_iters=np.int64(0)).max_iters == 0
    # an integral float is an integer, as for every other integer setting
    assert NewtonConfig(max_iters=2.0).max_iters == 2
    assert isinstance(NewtonConfig(max_iters=2.0).max_iters, int)


@pytest.mark.parametrize("field, value", [
    ("residual_tol", np.inf), ("residual_tol", np.nan), ("damping", np.nan),
    ("residual_tol", True), ("damping", True),
    ("residual_tol", "1e-3"), ("damping", "0.5"), ("damping", 1 + 0j),
    ("residual_tol", np.array([1e-3, 1e-4])), ("damping", np.array([0.5, 0.25]))])
def test_bad_newton_tolerance_or_damping_rejected(field, value):
    # an infinite tolerance returned the zero interior as converged after 0
    # iterations and True ran as 1; a string or complex raised a bare
    # TypeError and an array a bare ValueError in the comparison
    with pytest.raises(Validation, match=field):
        NewtonConfig(**{field: value})
    assert NewtonConfig(residual_tol=np.float32(1e-6), damping=np.float64(0.25))


def test_jacobian_singular_on_negative_derivative(op_small):
    bad = Nonlinearity(name="bad", q=lambda x, t: -np.asarray(t, dtype=float),
                       dq=lambda x, t: -np.ones_like(np.asarray(t, dtype=float)),
                       mu=1.0, delta=2.5, b0=0.5, r=1.0, m0=1.0)
    g = exterior_bump(op_small.grid, 1.5, 0.25)
    with pytest.raises(JacobianSingular):
        solve_semilinear(op_small, bad, g)


def test_jacobian_singular_on_non_finite_coefficient(op_small):
    # LAPACK is called without scipy's finiteness scan, so the solver's own
    # check of the diagonal must name the failure (it was a raw ValueError)
    node = op_small.grid.interior_nodes[5]
    coeff = lambda x: np.where(np.all(np.atleast_2d(x) == node, axis=1), np.nan, 1.0)
    g = exterior_bump(op_small.grid, 1.5, 0.25)
    with pytest.raises(JacobianSingular, match="non-finite"):
        solve_semilinear(op_small, catalogue("linear", coeff, a_sup=1.0), g)


# Newton's CG iterations per step with the tau preconditioner, each bound
# the largest count measured on test_newton_cg_counts and
# test_newton_cg_counts_across_orders plus a margin of 2 (measured at s =
# 1/2: 10-12 in 1D at h=2^-6..2^-8, 9-10/11/12 in 2D at h=2^-3/2^-4/2^-5;
# at the finest levels 11, 11 and 9-10 in 1D and 11, 11 and 9 in 2D at s =
# 1/4, 3/4 and 0.9).  Tightened from the circulant's 18 and 27, whose
# counts were 14-16 and 17-25 at s = 1/2 and up to 31 and 45 at s = 0.9;
# never loosened
CG_BOUND_1D = 14
CG_BOUND_2D = 14


def sine_basis(box):
    """The orthonormal multilevel DST-I over a box as a dense matrix Q, the
    Kronecker product of q_j(a) = sqrt(2 / (n + 1)) sin(pi j a / (n + 1))."""
    factors = []
    for n in box:
        j = np.arange(1, n + 1)
        factors.append(np.sqrt(2.0 / (n + 1))
                       * np.sin(np.pi / (n + 1) * np.outer(j, j)))
    return functools.reduce(np.kron, factors)


def tau_of(op, dq):
    """Eigenvalues of the optimal tau matrix of J = a_ii + diag(tail + dq),
    as _newton_step forms them, flattened to the interior order."""
    a_ii = op.a_ii
    diagonal = a_ii.diagonal + op.tail + dq
    return (a_ii.tau_eigenvalues() + a_ii.tau_diagonal(diagonal)).ravel()


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("dim", [1, 2])
def test_tau_is_within_the_spectrum_of_j(dim, s):
    # Q is orthogonal, so each lambda_j = q_j^T J q_j is a Rayleigh quotient
    # of J and lies in [lambda_min(J), lambda_max(J)]: the preconditioner is
    # positive definite with no row-sum argument
    if dim == 1:
        grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-5, 3.0)
    else:
        grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-3, 3.0)
    op = assemble(grid, s)
    u = np.random.default_rng(3).uniform(0.0, 2.0, grid.n_interior)
    dq = catalogue("saturating-cubic", 1.0).dq(grid.interior_nodes, u)
    jacobian = dense_interior(op) + np.diag(op.tail + dq)
    low, high = np.linalg.eigvalsh(jacobian)[[0, -1]]
    tau = tau_of(op, dq)
    assert low > 0
    assert low * (1 - 1e-12) <= tau.min() and tau.max() <= high * (1 + 1e-12)


# (-1,1)^2 at h=1/4 (7 x 7 box), (-1,1)x(-1/2,1/2) at h=1/8 (15 x 7) and
# the latter's even_order grid (14 x 7)
TAU_GRIDS = {
    "square": (Domain.box((-1.0, -1.0), (1.0, 1.0)), 0.25, 3.0, False),
    "rect": (Domain.box((-1.0, -0.5), (1.0, 0.5)), 1.0 / 8, 3.0, False),
    "rect-even": (Domain.box((-1.0, -0.5), (1.0, 0.5)), 1.0 / 8, 3.0, True),
}


@pytest.mark.parametrize("name", sorted(TAU_GRIDS))
def test_tau_is_the_diagonal_of_q_j_q(name):
    # the optimal tau matrix Q diag(lambda) Q is the Frobenius projection of
    # J onto the tau algebra, so lambda = diag(Q J Q): here against the dense
    # J, built from a_ii column by column (measured: 4.3e-16, 1.2e-15 and
    # 5.9e-16 of the largest lambda on the square, rect and rect-even boxes)
    domain, h, R, even = TAU_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(even_order(grid) if even else grid, 0.5)
    ni = op.grid.n_interior
    box = op.a_ii.box
    assert box == {"square": (7, 7), "rect": (15, 7), "rect-even": (14, 7)}[name]
    dq = np.random.default_rng(4).uniform(0.0, 1.0, ni)
    jacobian = (np.column_stack([op.a_ii @ e for e in np.eye(ni)])
                + np.diag(op.tail + dq))
    q = sine_basis(box)
    want = np.diag(q @ jacobian @ q)
    tau = tau_of(op, dq)
    assert np.max(np.abs(tau - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, level", [(1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5)])
def test_newton_cg_counts(dim, level):
    if dim == 1:
        grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-level, 3.0)
        g, bound = exterior_bump(grid, 1.5, 0.4), CG_BOUND_1D
    else:
        grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-level, 3.0)
        g, bound = exterior_bump(grid, (1.5, 0.0), 0.4), CG_BOUND_2D
    sol = solve_semilinear(assemble(grid, 0.5), catalogue("saturating-cubic", 1.0), g)
    assert sol.iterations >= 2
    assert all(1 <= k <= bound for k in sol.cg_iterations), sol.cg_iterations


@pytest.mark.parametrize("s", [0.25, 0.75, 0.9])
@pytest.mark.parametrize("dim", [1, 2])
def test_newton_cg_counts_across_orders(dim, s):
    # the tau preconditioner's count stays within the s = 1/2 bounds at the
    # finest level of test_newton_cg_counts, for orders either side
    if dim == 1:
        grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-8, 3.0)
        g, bound = exterior_bump(grid, 1.5, 0.4), CG_BOUND_1D
    else:
        grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-5, 3.0)
        g, bound = exterior_bump(grid, (1.5, 0.0), 0.4), CG_BOUND_2D
    sol = solve_semilinear(assemble(grid, s), catalogue("saturating-cubic", 1.0), g)
    assert sol.iterations >= 2
    assert all(1 <= k <= bound for k in sol.cg_iterations), sol.cg_iterations


def test_newton_solves_factor_nothing(monkeypatch):
    # three Newton solves on one operator take every step by CG on the
    # tau matrix, so nothing is factored until a linear solve at a = 0; each
    # Newton step records its CG count
    grid = build_grid(Domain.interval(-1, 1), 1.0 / 16, 3.0)
    op = assemble(grid, 0.5)
    nl = catalogue("saturating-cubic", 1.0)
    factors = counted(monkeypatch, "_factor_system")
    for amplitude in (1.0, 0.5, 2.0):
        sol = solve_semilinear(op, nl, exterior_bump(grid, 1.5, 0.4, amplitude))
        assert len(sol.cg_iterations) == sol.iterations >= 2
        assert all(1 <= k <= CG_BOUND_1D for k in sol.cg_iterations)
    assert factors == []
    ni = grid.n_interior
    solve_linear(LinearProblem(op=op, a=np.zeros(ni), f=np.ones(ni), g=Field.zeros(grid)))
    assert len(factors) == 1


@pytest.mark.parametrize("fixture", ["op_medium", "grid_2d"])
def test_cg_step_is_the_direct_solve(request, fixture):
    # the Jacobian at a rough iterate, solved by CG on the tau matrix and by
    # a Cholesky factor of its own (measured: 10 iterations each, 2.6e-14
    # relative in 1D and 1.0e-13 in 2D)
    op = request.getfixturevalue(fixture)
    if fixture == "grid_2d":
        op = assemble(op, 0.5)
    ni = op.grid.n_interior
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 2.0, ni)
    dq = catalogue("saturating-cubic", 1.0).dq(op.grid.interior_nodes, u)
    rhs = rng.standard_normal(ni)
    step, iterations = solver._newton_step(op, dq, rhs, op.a_ii.tau_eigenvalues())
    direct = solver._solve(_factor_system(op, op.tail + dq), rhs)
    assert iterations > 1
    assert np.linalg.norm(step - direct) <= 1e-12 * np.linalg.norm(direct)


def test_cg_step_failures_are_named(op_small, monkeypatch):
    g = exterior_bump(op_small.grid, 1.5, 0.25)
    nl = catalogue("saturating-cubic", 1.0)
    monkeypatch.setattr(solver, "_CG_MAX_ITERS", 1)
    # every step, the first at dq = 0 included, needs more than one
    with pytest.raises(StepNotConverged, match="1 iterations"):
        solve_semilinear(op_small, nl, g)
    # a Jacobian that is not positive definite shows a negative curvature
    ni = op_small.grid.n_interior
    with pytest.raises(StepNotConverged, match="curvature"):
        solver._newton_step(op_small, np.full(ni, -1e6), np.ones(ni),
                            op_small.a_ii.tau_eigenvalues())
    # a study records the failed step as a diverged eta: its base, at zero
    # data, takes no step, and each eta's first step needs more than one
    study = linearization_study(op_small, nl, Field.zeros(op_small.grid), g,
                                [1e-1, 1e-2])
    assert study.converged == (False, False)


@pytest.mark.parametrize("s", [0.5, 0.9])
@pytest.mark.parametrize("a", [1e4, 1e8])
def test_stiff_newton_step_is_direct(monkeypatch, s, a):
    # a potential above 3 times J0's least row sum sends each step to a
    # direct solve (the switch bounds cond(J0^-1 J), the measure of the J0
    # preconditioner CG no longer uses), factored once and kept, which a
    # linear solve at the same potential reuses
    grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-6, 4.0)
    op = assemble(grid, s)
    g = exterior_bump(grid, 1.5, 0.4, 1.0)
    factors = counted(monkeypatch, "_factor_system")
    sol = solve_semilinear(op, catalogue("linear", a), g)
    assert sol.residuals[-1] <= 1e-10
    assert sol.cg_iterations == (0,) * sol.iterations and sol.iterations >= 1
    ni = grid.n_interior
    u = solve_linear(LinearProblem(op=op, a=np.full(ni, a), f=np.zeros(ni), g=g))
    assert len(factors) == 1
    assert np.max(np.abs(sol.u.values - u.values)) <= 1e-14 * np.max(np.abs(u.values))
    # just inside the bound the step is CG on the tau matrix, factoring nothing
    lam0 = np.min(op.tail - op.a_ie.row_sums)
    rhs, tau = np.ones(ni), op.a_ii.tau_eigenvalues()
    assert solver._newton_step(op, np.full(ni, 2.99 * lam0), rhs, tau)[1] > 1
    assert len(factors) == 1
    assert solver._newton_step(op, np.full(ni, 3.01 * lam0), rhs, tau)[1] == 0
    assert len(factors) == 2


def even_order(grid):
    """grid with the last lattice row of its interior box relabeled exterior:
    build_grid's interior boxes are odd along every axis, so this is the way
    to an even order."""
    inner = grid.interior_index
    labels = grid.labels.copy()
    labels[inner[grid.nodes[inner, 0] == grid.nodes[inner, 0].max()]] = Region.EXTERIOR
    return dataclasses.replace(grid, labels=labels,
                               interior_index=np.flatnonzero(labels == Region.INTERIOR),
                               exterior_index=np.flatnonzero(labels == Region.EXTERIOR))


# (-1,1) at h=1/8 (order 15, and 14) and (-1,1)x(-1/2,1/2) at h=1/8 (15 x 7
# box rows, order 105, and 14 x 7 = 98): odd and even packed layouts
PACKED_GRIDS = {
    "1d": (Domain.interval(-1.0, 1.0), 1.0 / 8, 3.0),
    "2d-rect": (Domain.box((-1.0, -0.5), (1.0, 0.5)), 1.0 / 8, 3.0),
}

# two Cholesky factors of one matrix, blocked differently, agree to a few
# eps |L| (measured at most 0.95 eps |L| on these grids)
FACTOR_EPS = 16


@pytest.mark.parametrize("order", ["odd", "even"])
@pytest.mark.parametrize("name", sorted(PACKED_GRIDS))
def test_factor_system_is_the_packed_cholesky(name, order):
    domain, h, R = PACKED_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(even_order(grid) if order == "even" else grid, 0.5)
    ni = op.grid.n_interior
    assert ni % 2 == (order == "odd")
    before = op.a_ii.diagonal.copy()
    diagonal = op.tail + np.linspace(0.0, 2.0, ni)
    # the dense system matrix from the stencil rows, packed by LAPACK, is the
    # fill bit for bit
    dense = -_Stencil(op.grid, op.params).rows(op.grid.interior_index,
                                                op.grid.interior_index)[0]
    dense[np.diag_indices(ni)] = op.a_ii.diagonal + diagonal
    packed = np.empty(ni * (ni + 1) // 2)
    op.a_ii.fill(packed, diagonal)
    assert packed.tobytes() == dtrttf(dense, transr="N", uplo="L")[0].tobytes()
    # the packed factor is the dense one to roundoff
    factor = _factor_system(op, diagonal)
    lower = np.tril(dtfttr(ni, factor, transr="N", uplo="L")[0])
    want = scipy.linalg.cholesky(dense, lower=True)
    assert np.max(np.abs(lower - want)) <= FACTOR_EPS * np.finfo(float).eps * np.max(want)
    # one right-hand side or several columns, each solved alone
    rhs = np.random.default_rng(3).standard_normal((ni, 3))
    columns = solver._solve(factor, rhs)
    assert columns.shape == (ni, 3)
    for k in range(3):
        one = solver._solve(factor, rhs[:, k])
        assert one.shape == (ni,) and np.array_equal(one, columns[:, k])
    # residual measured at most 5.4e-16 of the largest right-hand side entry
    assert np.max(np.abs(dense @ columns - rhs)) <= 1e-13 * np.max(np.abs(rhs))
    assert op.a_ii.diagonal.tobytes() == before.tobytes()
    assert not op.a_ii.diagonal.flags.writeable


def test_factor_system_names_the_failure(op_small):
    indefinite = np.full(op_small.grid.n_interior, -1e6)
    with pytest.raises(SingularSystem):
        _factor_system(op_small, indefinite)
    not_finite = op_small.tail.copy()
    not_finite[3] = np.inf
    with pytest.raises(SingularSystem, match="non-finite"):
        _factor_system(op_small, not_finite)
    factor = _factor_system(op_small, op_small.tail)
    rhs = np.ones(op_small.grid.n_interior)
    rhs[2] = np.nan
    with pytest.raises(SingularSystem, match="non-finite"):
        solver._solve(factor, rhs)


def test_a_missing_lapack_module_names_the_directory_searched(monkeypatch, tmp_path):
    # the wrappers load from scipy's own linalg directory, with no fallback
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(os.path.join(str(tmp_path), "linalg"))):
        _lapack()


def test_barrier_validity_and_tail_bound():
    grid = build_grid(Domain.interval(-1, 1), 2.0**-5, 4.0)
    from fracschrod import assemble

    op = assemble(grid, 0.5)
    a = np.zeros(grid.n_interior)
    barrier = build_barrier(op, a)
    assert barrier.lam > 0
    assert barrier.big_c == pytest.approx(1.0 / barrier.lam)
    # nodewise inequality L phi + a phi >= 1
    vals = apply_operator(op, barrier.phi) + a * barrier.phi.interior_values
    assert np.min(vals) >= 1.0 - 1e-8
    # lam dominates the worst-case mass beyond the truncation interval,
    # checked against direct quadrature of the kernel tail
    c = cns(1, 0.5)
    def far_tail(x):
        left, _ = quad(lambda z: abs(x - z) ** -2, -np.inf, -4.0)
        right, _ = quad(lambda z: abs(x - z) ** -2, 4.0, np.inf)
        return c * (left + right)
    worst = min(far_tail(float(x)) for x in grid.interior_nodes.ravel())
    assert barrier.lam >= worst * (1 - 1e-8)
    # and phi stays within its stated bounds
    assert np.min(barrier.phi.values) >= 0.0
    assert np.max(barrier.phi.interior_values) <= barrier.big_c + 1e-12


def test_barrier_monotone_in_potential(op_small):
    lam0 = build_barrier(op_small, np.zeros(op_small.grid.n_interior)).lam
    lam1 = build_barrier(op_small, np.ones(op_small.grid.n_interior)).lam
    assert lam1 >= lam0


def test_linf_bound_zero_case(op_small):
    z = Field.zeros(op_small.grid)
    barrier = build_barrier(op_small, np.zeros(op_small.grid.n_interior))
    lhs, rhs, ok = check_linf_bound(z, np.zeros(op_small.grid.n_interior), z, barrier)
    assert (lhs, rhs, ok) == (0.0, 0.0, True)


def test_linf_bound_getoor(op_fine):
    grid = op_fine.grid
    a = np.zeros(grid.n_interior)
    u = solve_linear(LinearProblem(op=op_fine, a=a, f=np.ones(grid.n_interior),
                                   g=Field.zeros(grid)))
    barrier = build_barrier(op_fine, a)
    lhs, rhs, ok = check_linf_bound(u, np.ones(grid.n_interior),
                                    Field.zeros(grid), barrier)
    assert lhs == pytest.approx(1.0, abs=0.02)
    assert rhs == pytest.approx(barrier.big_c)
    assert ok and barrier.big_c >= 1.0


def test_comparison_equal_and_shifted(op_small):
    grid = op_small.grid
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, grid.n_interior)
    f = rng.uniform(0, 1, grid.n_interior)
    g = exterior_bump(grid, 1.5, 0.3, 0.4)
    u1 = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
    u2 = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
    assert check_comparison(u1, u2) and check_comparison(u2, u1)
    u3 = solve_linear(LinearProblem(op=op_small, a=a, f=f + 1.0, g=g))
    assert check_comparison(u3, u1)
    assert np.all(u3.interior_values > u1.interior_values)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_comparison_refuses_a_tolerance_that_is_not_finite_and_nonnegative(op_small, tol):
    # tol = nan returned False for a solution against itself
    grid = op_small.grid
    u = solve_linear(LinearProblem(op=op_small, a=np.zeros(grid.n_interior),
                                   f=np.ones(grid.n_interior), g=Field.zeros(grid)))
    with pytest.raises(Validation, match="tol"):
        check_comparison(u, u, tol=tol)


def test_comparison_random_ordered_trials(op_small):
    grid = op_small.grid
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.uniform(0, 1, grid.n_interior)
        f2 = rng.uniform(-1, 1, grid.n_interior)
        f1 = f2 + rng.uniform(0, 1, grid.n_interior)
        ge2 = rng.uniform(-1, 1, grid.n_exterior)
        ge1 = ge2 + rng.uniform(0, 1, grid.n_exterior)
        vals1, vals2 = np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)
        vals1[grid.exterior_index] = ge1
        vals2[grid.exterior_index] = ge2
        u1 = solve_linear(LinearProblem(op=op_small, a=a, f=f1,
                                        g=Field.from_values(grid, vals1)))
        u2 = solve_linear(LinearProblem(op=op_small, a=a, f=f2,
                                        g=Field.from_values(grid, vals2)))
        assert check_comparison(u1, u2)


def test_two_dimensional_solve(grid_2d):
    from fracschrod import assemble

    op = assemble(grid_2d, 0.5)
    ni = grid_2d.n_interior
    u = solve_linear(LinearProblem(op=op, a=np.zeros(ni), f=np.ones(ni),
                                   g=Field.zeros(grid_2d)))
    assert np.min(u.interior_values) > 0.0
    # the peak sits at the center of the box
    i0 = int(np.argmin(np.linalg.norm(grid_2d.interior_nodes, axis=1)))
    assert u.interior_values[i0] == pytest.approx(np.max(u.interior_values))
    # comparison against a larger source
    u2 = solve_linear(LinearProblem(op=op, a=np.zeros(ni),
                                    f=np.full(ni, 2.0), g=Field.zeros(grid_2d)))
    assert check_comparison(u2, u)


def test_two_dimensional_semilinear(grid_2d):
    from fracschrod import assemble, sample_function
    from fracschrod.grid import Region

    op = assemble(grid_2d, 0.5)
    bump = sample_function(
        grid_2d,
        lambda x, y: max(0.0, 1 - ((x - 1.6) ** 2 + y**2) / 0.16) ** 4,
        Region.EXTERIOR)
    sol = solve_semilinear(op, catalogue("saturating-cubic", 1.0), bump)
    assert sol.residuals[-1] <= 1e-10
    assert np.min(sol.u.interior_values) >= -1e-12


def test_solution_csv_format(tmp_path, op_small):
    u = solve_linear(LinearProblem(op=op_small,
                                   a=np.zeros(op_small.grid.n_interior),
                                   f=np.ones(op_small.grid.n_interior),
                                   g=Field.zeros(op_small.grid)))
    path = tmp_path / "solution.csv"
    solution_to_csv(path, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == op_small.grid.n_nodes + 1
    x0, v0 = lines[1].split(",")
    assert float(x0) == u.grid.nodes[0, 0]
    assert float(v0) == u.values[0]


def test_linf_bound_rejects_data_of_another_grid(op_small):
    grid = op_small.grid
    barrier = build_barrier(op_small, np.zeros(grid.n_interior))
    u, f = Field.zeros(grid), np.ones(grid.n_interior)
    other = build_grid(grid.domain, grid.h / 2, grid.R)
    with pytest.raises(GridMismatch, match="different grid"):
        check_linf_bound(u, f, Field.zeros(other), barrier)
    with pytest.raises(GridMismatch, match="different grid"):
        check_linf_bound(Field.zeros(other), np.ones(other.n_interior),
                         Field.zeros(other), barrier)
    with pytest.raises(GridMismatch, match="per interior node"):
        check_linf_bound(u, np.ones(5), u, barrier)


@pytest.mark.parametrize("name, entry, key", [
    ("a", "0.5", "potential a"),      # ran as 0.5
    ("a", True, "potential a"),       # ran as 1.0
    ("a", 0.5 + 0j, "potential a"),   # a bare TypeError
    ("f", "1", "source f"),           # ran as 1.0
])
def test_linear_problem_refuses_arrays_that_are_not_real_numbers(op_quarter, name, entry, key):
    ni = op_quarter.grid.n_interior
    data = {"a": np.zeros(ni), "f": np.zeros(ni), name: [entry] * ni}
    with pytest.raises(Validation, match=key):
        LinearProblem(op=op_quarter, g=Field.zeros(op_quarter.grid), **data)


def test_barrier_refuses_a_potential_of_strings(op_quarter):
    # ["0.5"] * ni ran as 0.5
    with pytest.raises(Validation, match="potential a"):
        build_barrier(op_quarter, ["0.5"] * op_quarter.grid.n_interior)


def test_linf_bound_refuses_a_source_of_strings(op_quarter):
    # a bare numpy UFuncTypeError from np.abs
    grid = op_quarter.grid
    barrier = build_barrier(op_quarter, np.zeros(grid.n_interior))
    with pytest.raises(Validation, match="source f"):
        check_linf_bound(Field.zeros(grid), ["1"] * grid.n_interior, Field.zeros(grid), barrier)


def test_semilinear_refuses_a_nonlinearity_that_is_not_one(op_quarter):
    # a bare AttributeError: 'str' object has no attribute 'q'
    with pytest.raises(Validation, match="Nonlinearity"):
        solve_semilinear(op_quarter, "linear", Field.zeros(op_quarter.grid))
