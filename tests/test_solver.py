import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from fracschrod import (
    Domain,
    Field,
    LinearProblem,
    NewtonConfig,
    Nonlinearity,
    apply_operator,
    assemble,
    build_barrier,
    build_grid,
    catalogue,
    check_comparison,
    check_linf_bound,
    cns,
    homogenize,
    solution_to_csv,
    solve_linear,
    solve_semilinear,
)
from fracschrod import solver
from fracschrod.errors import JacobianSingular, NewtonDiverged, SingularSystem, Validation
from fracschrod.solver import _factor_system
from conftest import exterior_bump
from oracles import picard_semilinear


def zeros_like_interior(op):
    return np.zeros(op.grid.n_interior)


def test_homogenize_zero_data(op_small):
    g = Field.zeros(op_small.grid)
    g_tilde, h_source = homogenize(op_small, g)
    assert np.all(g_tilde.values == 0.0)
    assert np.all(h_source == 0.0)


def test_homogenize_sign(op_small):
    # interior nodes see an exterior bump only through the negative coupling
    g = exterior_bump(op_small.grid, 1.5, 0.25)
    _, h_source = homogenize(op_small, g)
    assert np.all(h_source < 0.0)


def test_homogenize_reconstruction(op_small):
    grid = op_small.grid
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, grid.n_interior)
    f = rng.uniform(-1, 1, grid.n_interior)
    g = exterior_bump(grid, 1.5, 0.4, 0.8)
    direct = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
    g_tilde, h_source = homogenize(op_small, g)
    shifted = solve_linear(LinearProblem(op=op_small, a=a, f=f - h_source,
                                         g=Field.zeros(grid)))
    reconstructed = shifted.values + g_tilde.values
    assert np.max(np.abs(reconstructed - direct.values)) <= 1e-10


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


def test_jacobian_singular_on_negative_derivative(op_small):
    bad = Nonlinearity(name="bad", q=lambda x, t: -np.asarray(t, dtype=float),
                       dq=lambda x, t: -np.ones_like(np.asarray(t, dtype=float)),
                       mu=1.0, delta=2.5, b0=0.5, r=1.0, m0=1.0)
    g = exterior_bump(op_small.grid, 1.5, 0.25)
    with pytest.raises(JacobianSingular):
        solve_semilinear(op_small, bad, g)


@pytest.mark.parametrize("dim", [1, 2])
def test_factor_system_is_the_dense_cholesky(dim, op_small, grid_2d):
    op = op_small if dim == 1 else assemble(grid_2d, 0.5)
    before = op.a_ii.copy()
    diagonal = op.tail + np.linspace(0.0, 2.0, op.grid.n_interior)
    factor, lower = _factor_system(op, diagonal)
    dense, dense_lower = scipy.linalg.cho_factor(op.a_ii + np.diag(diagonal))
    assert lower == dense_lower
    assert np.asfortranarray(factor).tobytes() == np.asfortranarray(dense).tobytes()
    assert op.a_ii.tobytes() == before.tobytes()
    assert not op.a_ii.flags.writeable


def test_factor_system_names_the_failure(op_small):
    indefinite = np.full(op_small.grid.n_interior, -1e6)
    with pytest.raises(SingularSystem):
        _factor_system(op_small, indefinite)
    with pytest.raises(JacobianSingular):
        _factor_system(op_small, indefinite, JacobianSingular)


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
