import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracschrod
from fracschrod import (
    Domain,
    Field,
    NewtonConfig,
    Region,
    Window,
    annulus_window,
    assemble,
    build_cauchy_bank,
    build_grid,
    c3_bump,
    catalogue,
    compare_cauchy_banks,
    dn_map,
    evaluate_at,
    linearization_study,
    mass_m,
    neumann_derivative,
    recover_potential,
    sample_function,
    solve_linear,
    solve_linearized,
    solve_semilinear,
    strong_uniqueness_probe,
)
from fracschrod.calderon import DnMatrix, _DnAssembler
from fracschrod.errors import (BankMismatch, GridMismatch, InvalidRange,
                               RankDeficientProbes, SingularSystem, Validation)
from fracschrod.solver import LinearProblem, _lapack, _solve_system
from conftest import dense_interior, exterior_bump


def two_bump_potential(grid):
    xi = grid.interior_nodes.ravel()
    z1 = (xi + 0.45) / 0.5
    z2 = (xi - 0.45) / 0.5
    return (0.6 * np.maximum(0, 1 - z1**2) ** 4
            + 0.8 * np.maximum(0, 1 - z2**2) ** 4)


def recovery_window(grid):
    # near-field two-sided window: conditioning of the recovery degrades
    # fast with measurement distance, so start right at the allowed h
    return annulus_window(grid, grid.h, 1.0)


def matrix_and_jacobian(asm, a):
    """The DN matrix and the stacked derivative of vec(matrix) (probe
    columns one after another) with respect to the potential, formed
    explicitly: the reference for the gradient and Gauss-Newton matrix that
    _DnAssembler.gauss_newton forms without it."""
    sols = _solve_system(asm.op, a, asm.rhs)
    green = _solve_system(asm.op, a, asm.neumann_lin.T).T
    return (asm.const + asm.neumann_lin @ sols,
            (-sols.T[:, None, :] * green).reshape(-1, len(a)))


def test_linearized_zero_data(op_small):
    u = solve_linearized(op_small, np.zeros(op_small.grid.n_interior),
                         Field.zeros(op_small.grid))
    assert np.all(u.values == 0.0)


def test_linearized_zero_potential_reduction(op_small):
    grid = op_small.grid
    h = exterior_bump(grid, 1.5, 0.3, 0.6)
    via_linearized = solve_linearized(op_small, np.zeros(grid.n_interior), h)
    via_linear = solve_linear(LinearProblem(op=op_small,
                                            a=np.zeros(grid.n_interior),
                                            f=np.zeros(grid.n_interior), g=h))
    assert np.array_equal(via_linearized.values, via_linear.values)


def test_linear_model_quotient_exact(op_small):
    grid = op_small.grid
    nl = catalogue("linear", 1.0)
    g = exterior_bump(grid, 1.5, 0.4, 1.0)
    h = exterior_bump(grid, -1.5, 0.3, 0.5)
    cfg = NewtonConfig(residual_tol=1e-13)
    base = solve_semilinear(op_small, nl, g, cfg)
    dq = np.asarray(nl.dq(grid.interior_nodes, base.u.interior_values))
    u_star = solve_linearized(op_small, dq, h)
    for eta in (1.0, 0.1, 1e-3):
        data = Field.from_values(grid, g.values + eta * h.values)
        sol = solve_semilinear(op_small, nl, data, cfg)
        w = (sol.u.values - base.u.values) / eta
        assert np.max(np.abs(w - u_star.values)) <= 1e-10


def test_linearization_study_linear_model(op_small):
    nl = catalogue("linear", 1.0)
    g = exterior_bump(op_small.grid, 1.5, 0.4, 1.0)
    h = exterior_bump(op_small.grid, 1.5, 0.4, 1.0)
    study = linearization_study(op_small, nl, g, h, [1e-1, 1e-2, 1e-3, 1e-4],
                                NewtonConfig(residual_tol=1e-13))
    assert all(study.converged)
    assert max(study.errors_sup) <= 1e-10


def test_linearization_study_factors_each_system_once(monkeypatch):
    # the base and each eta are Newton solves, whose CG steps factor
    # nothing; the linearized system at dq(u_g) is the one factor
    from fracschrod import solver

    grid = build_grid(Domain.interval(-1.0, 1.0), 1.0 / 16, 3.0)
    op = assemble(grid, 0.5)
    g = exterior_bump(grid, 1.5, 0.4, 1.0)
    calls = []
    factor_system = solver._factor_system
    monkeypatch.setattr(solver, "_factor_system",
                        lambda *args: calls.append(args[1]) or factor_system(*args))
    nl = catalogue("saturating-cubic", 1.0)
    study = linearization_study(op, nl, g, g, [1e-1, 1e-2, 1e-3])
    assert all(study.converged)
    base = solve_semilinear(op, nl, g, NewtonConfig(residual_tol=1e-12)).u
    dq = nl.dq(grid.interior_nodes, base.interior_values)
    assert len(calls) == 1 and np.array_equal(calls[0], op.tail + dq)


def test_linearization_study_monotone(op_medium):
    nl = catalogue("saturating-cubic", 1.0)
    g = exterior_bump(op_medium.grid, 1.5, 0.4, 1.0)
    study = linearization_study(op_medium, nl, g, g,
                                [10 ** (-1 - 0.5 * k) for k in range(7)],
                                NewtonConfig(residual_tol=1e-12))
    assert all(study.converged)
    for errors in (study.errors_l2, study.errors_sup):
        assert all(b < a for a, b in zip(errors, errors[1:])), errors


def test_linearization_first_order_rate(op_medium):
    nl = catalogue("saturating-cubic", 1.0)
    g = exterior_bump(op_medium.grid, 1.5, 0.4, 1.0)
    etas = [1e-2 * 2.0**-k for k in range(6)]
    study = linearization_study(op_medium, nl, g, g, etas,
                                NewtonConfig(residual_tol=1e-12))
    ratios = [b / a for a, b in zip(study.errors_sup, study.errors_sup[1:])]
    assert 0.4 <= float(np.median(ratios)) <= 0.6, ratios


def test_linearization_schedule_validation(op_small):
    nl = catalogue("linear", 1.0)
    g = exterior_bump(op_small.grid, 1.5, 0.4, 1.0)
    with pytest.raises(InvalidRange):
        linearization_study(op_small, nl, g, g, [1e-2, 1e-1])


def test_dn_map_deterministic(op_coarse):
    window = recovery_window(op_coarse.grid)
    a = 0.5 * np.ones(op_coarse.grid.n_interior)
    m1 = dn_map(op_coarse, a, window)
    m2 = dn_map(op_coarse, a, window)
    assert np.array_equal(m1.matrix, m2.matrix)


def test_dn_map_2d_is_the_exterior_identity(grid_2d):
    # each column is N v - m v + L(probe) on the window, v the linearized
    # solution driven by the probe: the Neumann trace, the closed-form kernel
    # mass and the operator rows, each evaluated on its own
    op = assemble(grid_2d, 0.5)
    window = annulus_window(grid_2d, grid_2d.h, 0.5)
    nodes = window.indices[::37]
    a = 0.5 * np.exp(-np.sum(grid_2d.interior_nodes ** 2, axis=1))
    dn = dn_map(op, a, window, nodes)
    idx = window.indices
    mass = mass_m(grid_2d, op.params, idx)
    for column, node in zip(dn.matrix.T, nodes):
        values = np.zeros(grid_2d.n_nodes)
        values[node] = 1.0
        probe = Field.from_values(grid_2d, values)
        v = solve_linearized(op, a, probe)
        want = (neumann_derivative(grid_2d, op.params, v, idx) - mass * v.values[idx]
                + evaluate_at(op, probe, idx))
        assert np.max(np.abs(column - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 16])
def test_dn_map_reflection_symmetry(h):
    # the domain, window, and window-node probes are symmetric about 0, so the
    # response of the zero potential commutes with the reflection; holds at
    # both resolutions
    grid = build_grid(Domain.interval(-1, 1), h, 4.0)
    op = assemble(grid, 0.5)
    window = annulus_window(grid, h, 1.0)
    m0 = dn_map(op, np.zeros(grid.n_interior), window)
    xw = grid.nodes[window.indices, 0]
    perm = np.array([int(np.argmin(np.abs(xw + x))) for x in xw])
    reflected = m0.matrix[perm][:, perm]
    scale = np.max(np.abs(m0.matrix))
    assert np.max(np.abs(reflected - m0.matrix)) <= 1e-10 * scale


def test_dn_map_monotone_in_potential(op_coarse):
    # growing the potential shrinks the linearized solution (comparison),
    # so each diagonal response moves monotonically
    grid = op_coarse.grid
    window = recovery_window(grid)
    scales = [0.0, 0.25, 0.5, 0.75, 1.0]
    diags = []
    for c in scales:
        m = dn_map(op_coarse, c * np.ones(grid.n_interior), window)
        diags.append(np.diag(m.matrix).copy())
    diags = np.array(diags)
    deltas = np.diff(diags, axis=0)
    assert np.all(deltas > 0) or np.all(deltas < 0)


@pytest.mark.parametrize("pick, error", [
    (lambda w, n: w.indices[[0, 1, 0]], RankDeficientProbes),
    (lambda w, n: np.array([w.indices[0], n - 1]), RankDeficientProbes),
    (lambda w, n: np.array([w.indices[0], n]), RankDeficientProbes),
    (lambda w, n: np.array([w.indices[0], -1]), RankDeficientProbes),
    (lambda w, n: w.indices[:2].astype(float), Validation),
    (lambda w, n: w.indices[:0], Validation),
    (lambda w, n: w.indices[:4].reshape(2, 2), Validation),
], ids=["repeated", "outside-the-window", "past-the-grid", "negative", "float",
        "empty", "two-dimensional"])
def test_bad_probe_nodes_are_refused_before_set_up(op_coarse, monkeypatch, pick, error):
    # a repeated node or one the window lacks gives a repeated or zero unit
    # column, a rank-deficient probe family; the window [h, 1] stops short
    # of the grid's last node, n - 1
    from fracschrod import calderon

    def no_stencil(*args):
        raise AssertionError("the DN set-up built a stencil before the probes were checked")

    grid = op_coarse.grid
    window = recovery_window(grid)
    probes = pick(window, grid.n_nodes)
    monkeypatch.setattr(calderon, "_Stencil", no_stencil)
    with pytest.raises(error, match="probe"):
        dn_map(op_coarse, np.zeros(grid.n_interior), window, probes)
    measured = DnMatrix(window, probes, ("p",) * len(probes),
                        np.zeros((window.size, len(probes))))
    with pytest.raises(error, match="probe"):
        recover_potential(op_coarse, measured, 0.0)


def test_dn_set_up_runs_no_svd(op_coarse, monkeypatch):
    # unit probes at distinct window nodes are independent by construction:
    # the set-up checks the nodes, not the rank of their window block
    def no_svd(*args, **kwargs):
        raise AssertionError("the DN set-up ran an SVD")

    monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    window = recovery_window(op_coarse.grid)
    dn = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window)
    assert dn.matrix.shape == (window.size, window.size)


@pytest.mark.parametrize("a, error", [
    (np.zeros(5), GridMismatch),            # op_coarse has 15 interior nodes
    (np.full(15, np.nan), Validation),
])
def test_dn_map_checks_its_potential_before_set_up(op_coarse, monkeypatch, a, error):
    from fracschrod import calderon

    def no_set_up(*args):
        raise AssertionError("the DN set-up ran before the potential was checked")

    monkeypatch.setattr(calderon, "_DnAssembler", no_set_up)
    with pytest.raises(error):
        dn_map(op_coarse, a, recovery_window(op_coarse.grid))


def test_dn_map_locally_injective(op_coarse):
    # the potential-to-response map has a trivial-kernel Jacobian at a = 0.5
    grid = op_coarse.grid
    window = recovery_window(grid)
    asm = _DnAssembler(op_coarse, window)
    jac = matrix_and_jacobian(asm, 0.5 * np.ones(grid.n_interior))[1]
    sigma_min = float(np.linalg.svd(jac, compute_uv=False)[-1])
    print(f"\ndn-map jacobian sigma_min at a=0.5: {sigma_min:.3e}")
    assert sigma_min > 0.0


def test_jacobian_reuses_the_factor_of_the_last_potential(op_coarse, monkeypatch):
    # the DN matrix and its Jacobian at one potential share one factor (each
    # recovery evaluation forms both); the factor memo is the operator's, so
    # count on an operator no other test touched
    from fracschrod import calderon, solver

    grid = op_coarse.grid
    window = recovery_window(grid)
    a = two_bump_potential(grid)
    fresh = calderon._DnAssembler(op_coarse, window)
    target = fresh.matrix(0.5 * np.ones(grid.n_interior))
    want = fresh.gauss_newton(a, target, 1e-6)
    calls = []
    factor_system = solver._factor_system
    monkeypatch.setattr(solver, "_factor_system",
                        lambda *args: calls.append(1) or factor_system(*args))
    op = assemble(grid, op_coarse.params.s)
    asm = calderon._DnAssembler(op, window)
    asm.matrix(a)
    got = asm.gauss_newton(a.copy(), target, 1e-6)
    assert got[0] == want[0]
    assert [x.tobytes() for x in got[1:]] == [x.tobytes() for x in want[1:]]
    assert len(calls) == 1
    asm.matrix(0.5 * a)
    assert len(calls) == 2


def test_jacobian_is_the_derivative_of_the_matrix(op_coarse):
    # vec(matrix) stacks the probe columns, as recover_potential's residual
    # does; central differences with step 1e-5 (measured: 1.5e-9 relative)
    grid = op_coarse.grid
    window = recovery_window(grid)
    asm = _DnAssembler(op_coarse, window)
    a = two_bump_potential(grid)
    jac = matrix_and_jacobian(asm, a)[1]
    step = 1e-5
    diff = np.empty_like(jac)
    for j, e in enumerate(step * np.eye(grid.n_interior)):
        diff[:, j] = (asm.matrix(a + e) - asm.matrix(a - e)).T.reshape(-1) / (2 * step)
    assert np.max(np.abs(jac - diff)) <= 1e-6 * np.max(np.abs(jac))


def _recovery_windows(grid):
    """The recovery window with a probe at every node (k p residuals > ni),
    and its first four nodes with one probe (4 residuals < ni, a singular
    Gauss-Newton matrix)."""
    window = recovery_window(grid)
    short = Window(grid, window.indices[:4])
    return {"full": (window, None),
            "one-probe": (short, short.indices[:1])}


@pytest.fixture(scope="module")
def op_2d_quarter():
    """(-1,1)^2 at h = 1/4, R = 3: ni = 49 unknowns against 176 window
    nodes and 176 probes."""
    return assemble(build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 0.25, 3.0), 0.5)


def two_bump_potential_2d(grid):
    x = grid.interior_nodes
    z1 = np.sum((x - [-0.45, 0.0]) ** 2, axis=1) / 0.25
    z2 = np.sum((x - [0.45, 0.0]) ** 2, axis=1) / 0.25
    return 0.6 * np.maximum(0, 1 - z1) ** 4 + 0.8 * np.maximum(0, 1 - z2) ** 4


@pytest.mark.parametrize("lambda_reg", [0.0, 1e-6])
@pytest.mark.parametrize("case", ["full", "one-probe", "2d"])
def test_reduced_problem_has_the_full_cost_gradient_and_gauss_newton_matrix(
        op_coarse, op_2d_quarter, case, lambda_reg):
    # the recovery sees the reduced problem: the cost, gradient and
    # Gauss-Newton matrix of the tall residual [r; sqrt(lambda) a], formed
    # from the Khatri-Rao structure of J, never J itself; against the
    # explicit J the measured deviations are at most 3.5e-15 relative, the
    # tolerance is 1e-14
    if case == "2d":
        op = op_2d_quarter
        window = recovery_window(op.grid)
        probes = None
        a = two_bump_potential_2d(op.grid)
    else:
        op = op_coarse
        window, probes = _recovery_windows(op.grid)[case]
        a = two_bump_potential(op.grid)
    ni = op.grid.n_interior
    asm = _DnAssembler(op, window, probes)
    target = asm.matrix(0.5 * np.ones(ni))
    sq = np.sqrt(lambda_reg)
    matrix, jac = matrix_and_jacobian(asm, a)
    r = (matrix - target).T.reshape(-1)
    if lambda_reg > 0:
        r = np.concatenate([r, sq * a])
        jac = np.vstack([jac, sq * np.eye(ni)])
    cost, grad, gram, sols = asm.gauss_newton(a, target, lambda_reg)
    assert grad.shape == (ni,) and gram.shape == (ni, ni)
    assert sols.tobytes() == _solve_system(op, a, asm.rhs).tobytes()

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    assert rel(cost, 0.5 * (r @ r)) <= 1e-14
    assert rel(grad, jac.T @ r) <= 1e-14
    assert rel(gram, jac.T @ jac) <= 1e-14


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_curvature_is_j_transpose_of_the_second_derivative(op_coarse, op_2d_quarter, case):
    # the DN matrix's second derivative along v, 2 N S^-1 V S^-1 V S^-1 rhs,
    # by dense solves of the explicit system matrix S, seen through the
    # explicit J; curvature takes the solutions gauss_newton returns
    if case == "2d":
        op, a = op_2d_quarter, two_bump_potential_2d(op_2d_quarter.grid)
    else:
        op, a = op_coarse, two_bump_potential(op_coarse.grid)
    window = recovery_window(op.grid)
    asm = _DnAssembler(op, window)
    v = np.random.default_rng(32).standard_normal(len(a))
    system = dense_interior(op) + np.diag(op.tail + a)
    inner = np.linalg.solve(system, asm.rhs)
    for _ in range(2):
        inner = np.linalg.solve(system, v[:, None] * inner)
    second = 2.0 * asm.neumann_lin @ inner
    want = matrix_and_jacobian(asm, a)[1].T @ second.T.reshape(-1)
    sols = asm.gauss_newton(a, asm.matrix(0.5 * a), 0.0)[3]
    got = asm.curvature(a, v, sols)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("lambda_reg", [0.0, 1e-6])
@pytest.mark.parametrize("case", ["full", "one-probe"])
def test_each_evaluation_is_one_reduced_call(op_coarse, monkeypatch, case, lambda_reg):
    # the iteration sees a gradient of ni and a Gauss-Newton matrix of
    # ni x ni floats, never the k p (+ ni) rows of the tall problem; every
    # evaluation, the one at a = 0 included, is exactly one gauss_newton
    # call, and the cap stops the iteration at exactly max_evaluations
    from fracschrod import calderon

    grid = op_coarse.grid
    ni = grid.n_interior
    window, probes = _recovery_windows(grid)[case]
    measured = dn_map(op_coarse, two_bump_potential(grid), window, probes)
    shapes = []
    gauss_newton = calderon._DnAssembler.gauss_newton

    def spy(*args):
        cost, grad, gram, sols = gauss_newton(*args)
        shapes.append((np.shape(cost), grad.shape, gram.shape))
        return cost, grad, gram, sols

    monkeypatch.setattr(calderon._DnAssembler, "gauss_newton", spy)
    result = recover_potential(op_coarse, measured, lambda_reg)
    assert set(shapes) == {((), (ni,), (ni, ni))}
    assert len(shapes) == result.n_evaluations
    assert 1 <= result.iterations <= result.n_evaluations - 1
    shapes.clear()
    capped = recover_potential(op_coarse, measured, lambda_reg, max_evaluations=4)
    assert len(shapes) == capped.n_evaluations == 4
    assert capped.stop == "cap"
    # an integral float is an integer cap
    shapes.clear()
    capped = recover_potential(op_coarse, measured, lambda_reg, max_evaluations=2.0)
    assert len(shapes) == capped.n_evaluations == 2


def test_recovery_on_the_seed_that_broke_trf():
    # the noiseless recovery of the recover-1d benchmark workload on
    # default_rng([2904, 11]) (h = 2^-4, R = 4): scipy's trf raised a bare
    # LinAlgError there ("SVD did not converge"); it now runs to the end
    grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-4, 4.0)
    op = assemble(grid, 0.5)
    rng = np.random.default_rng([2904, 11])
    bumps = [(-0.45 + rng.uniform(-0.05, 0.05), 0.5, rng.uniform(0.5, 0.7)),
             (0.45 + rng.uniform(-0.05, 0.05), 0.5, rng.uniform(0.7, 0.9))]
    a_true = sum(sample_function(grid, c3_bump(center, width, amplitude),
                                 Region.INTERIOR).interior_values
                 for center, width, amplitude in bumps)
    measured = dn_map(op, a_true, annulus_window(grid, grid.h, 1.0))
    result = recover_potential(op, measured, 0.0, max_evaluations=500)
    rel = np.linalg.norm(result.a_estimate - a_true) / np.linalg.norm(a_true)
    assert np.isfinite(result.misfit) and rel < 0.10, rel


def test_a_failed_damped_solve_raises_a_named_error(op_coarse, monkeypatch):
    # LAPACK reports an exactly singular U by info > 0, not by raising
    window = recovery_window(op_coarse.grid)
    measured = dn_map(op_coarse, two_bump_potential(op_coarse.grid), window)
    lapack = _lapack()
    dgesv = lapack.dgesv

    def singular(a, b):
        lu, piv, x, _ = dgesv(a, b)
        return lu, piv, x, 1

    monkeypatch.setattr(lapack, "dgesv", singular)
    with pytest.raises(SingularSystem, match="damped recovery step"):
        recover_potential(op_coarse, measured, 0.0)


@pytest.mark.parametrize("cap", [0, -3, 2.5, True])
def test_recover_rejects_a_cap_that_is_not_a_positive_integer(op_coarse, monkeypatch, cap):
    # the iteration stops on evaluations >= max_evaluations: a cap of 2.5
    # would run as 3, 0 and -3 as 1, and True as 1
    from fracschrod import calderon

    window = recovery_window(op_coarse.grid)
    measured = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window)

    def no_set_up(*args):
        raise AssertionError("the DN set-up ran before the cap was checked")

    monkeypatch.setattr(calderon, "_DnAssembler", no_set_up)
    with pytest.raises(Validation, match="max_evaluations"):
        recover_potential(op_coarse, measured, 0.0, max_evaluations=cap)


def test_recover_zero_potential(op_coarse):
    window = recovery_window(op_coarse.grid)
    ni = op_coarse.grid.n_interior
    measurements = dn_map(op_coarse, np.zeros(ni), window)
    result = recover_potential(op_coarse, measurements, lambda_reg=0.0)
    assert np.max(np.abs(result.a_estimate)) <= 1e-6
    assert result.misfit <= 1e-9


def test_recover_constant_potential(op_coarse):
    window = recovery_window(op_coarse.grid)
    ni = op_coarse.grid.n_interior
    a_true = 0.5 * np.ones(ni)
    measurements = dn_map(op_coarse, a_true, window)
    result = recover_potential(op_coarse, measurements, lambda_reg=0.0)
    rel = np.linalg.norm(result.a_estimate - a_true) / np.linalg.norm(a_true)
    assert rel < 0.10, rel


def test_recover_two_bump_potential(op_coarse):
    window = recovery_window(op_coarse.grid)
    a_true = two_bump_potential(op_coarse.grid)
    measurements = dn_map(op_coarse, a_true, window)
    result = recover_potential(op_coarse, measurements, lambda_reg=0.0)
    rel = np.linalg.norm(result.a_estimate - a_true) / np.linalg.norm(a_true)
    assert rel < 0.10, rel


def test_recover_returns_the_dn_matrix_it_fitted(op_coarse, monkeypatch):
    # the fitted matrix is formed from the accepted evaluation's solutions:
    # no system is solved (nor, after a rejected trial, factored) after the
    # last gauss_newton call
    from fracschrod import calderon

    window = recovery_window(op_coarse.grid)
    measurements = dn_map(op_coarse, 0.5 * np.ones(op_coarse.grid.n_interior), window)
    calls = []
    gauss_newton = calderon._DnAssembler.gauss_newton

    def evaluation_spy(*args):
        out = gauss_newton(*args)
        calls.append("evaluation")
        return out

    def solve_spy(*args):
        calls.append("solve")
        return _solve_system(*args)

    monkeypatch.setattr(calderon._DnAssembler, "gauss_newton", evaluation_spy)
    monkeypatch.setattr(calderon, "_solve_system", solve_spy)
    result = recover_potential(op_coarse, measurements, lambda_reg=0.0,
                               max_evaluations=20)
    monkeypatch.undo()
    assert calls.count("evaluation") == result.n_evaluations
    assert calls[-1] == "evaluation"
    want = dn_map(op_coarse, result.a_estimate, window, measurements.probes)
    assert result.fitted.matrix.tobytes() == want.matrix.tobytes()
    assert result.fitted.probe_ids == want.probe_ids
    assert result.misfit == float(np.linalg.norm(want.matrix - measurements.matrix))


@pytest.mark.parametrize("lambda_reg", [np.nan, np.inf])
def test_recover_rejects_a_non_finite_lambda(op_coarse, lambda_reg):
    window = recovery_window(op_coarse.grid)
    measurements = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window)
    with pytest.raises(Validation, match="lambda_reg"):
        recover_potential(op_coarse, measurements, lambda_reg=lambda_reg)


@pytest.mark.parametrize("lambda_reg", [1 + 0j, None, "1e-6", np.array([1e-6, 1e-8]),
                                       True, -1e-6, 10**400])
def test_recover_rejects_a_lambda_that_is_not_a_nonnegative_real(op_coarse, monkeypatch,
                                                                  lambda_reg):
    # complex, None and string raised bare TypeErrors, an array a bare
    # ValueError, True ran as lambda = 1, and an int past the float range
    # passed the check and overflowed in the set-up
    from fracschrod import calderon

    window = recovery_window(op_coarse.grid)
    measured = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window)

    def no_set_up(*args):
        raise AssertionError("the DN set-up ran before lambda_reg was checked")

    monkeypatch.setattr(calderon, "_DnAssembler", no_set_up)
    with pytest.raises(Validation, match="lambda_reg"):
        recover_potential(op_coarse, measured, lambda_reg)


def test_recover_takes_a_numpy_float_lambda(op_coarse):
    # a numpy scalar is a Real and runs as the float it holds
    window = recovery_window(op_coarse.grid)
    measured = dn_map(op_coarse, 0.5 * np.ones(op_coarse.grid.n_interior), window)
    got = recover_potential(op_coarse, measured, np.float32(1e-6), max_evaluations=5)
    want = recover_potential(op_coarse, measured, float(np.float32(1e-6)),
                             max_evaluations=5)
    assert got.a_estimate.tobytes() == want.a_estimate.tobytes()


def test_empty_probe_list_rejected(op_coarse):
    # np.stack raised a bare "need at least one array to stack" when probes
    # were fields
    grid = op_coarse.grid
    window = recovery_window(grid)
    with pytest.raises(Validation, match="probe"):
        dn_map(op_coarse, np.zeros(grid.n_interior), window, [])
    empty = DnMatrix(window, (), (), np.empty((window.size, 0)))
    with pytest.raises(Validation, match="probe"):
        recover_potential(op_coarse, empty, 0.0)


def test_dn_matrix_rejects_non_finite_entries(op_coarse):
    clean = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior),
                   recovery_window(op_coarse.grid))
    spoiled = clean.matrix.copy()
    spoiled[1, 2] = np.nan
    with pytest.raises(Validation, match="non-finite"):
        DnLike(clean, spoiled)


def test_recover_stagnation(op_coarse):
    # measurements extrapolated beyond the a >= 0 cone: the best fit needs a
    # negative potential, so a = 0 is the bounded optimum (every gradient
    # entry >= 0 there) and the iteration returns it, converged, at once
    window = recovery_window(op_coarse.grid)
    ni = op_coarse.grid.n_interior
    m0 = dn_map(op_coarse, np.zeros(ni), window)
    m5 = dn_map(op_coarse, 0.5 * np.ones(ni), window)
    bad = DnLike(m0, 2.0 * m0.matrix - m5.matrix)
    result = recover_potential(op_coarse, bad, lambda_reg=0.0)
    assert result.stop == "gradient"
    assert result.iterations == 0 and result.gradient_norm == 0.0
    assert np.all(result.a_estimate == 0.0)
    asm = _DnAssembler(op_coarse, window, bad.probes)
    grad = asm.gauss_newton(np.zeros(ni), bad.matrix, 0.0)[1]
    assert np.all(grad >= 0.0)


def test_recover_stagnation_without_an_accepted_step(op_coarse):
    # a start whose projected gradient is nonzero and no accepted step (the
    # cap allows the evaluation at a = 0 alone): no progress is a named error
    from fracschrod.errors import MisfitStagnation

    window = recovery_window(op_coarse.grid)
    measured = dn_map(op_coarse, 0.5 * np.ones(op_coarse.grid.n_interior), window)
    with pytest.raises(MisfitStagnation) as err:
        recover_potential(op_coarse, measured, lambda_reg=0.0, max_evaluations=1)
    assert np.all(err.value.last_iterate == 0.0)


def test_recover_noise_robustness(op_coarse):
    # 1% multiplicative noise, discrepancy-chosen regularization; the error
    # is reported, no hard accuracy bound is asserted
    window = recovery_window(op_coarse.grid)
    a_true = two_bump_potential(op_coarse.grid)
    clean = dn_map(op_coarse, a_true, window)
    rng = np.random.default_rng(100)
    errors = []
    for _ in range(20):
        noisy_matrix = clean.matrix * (
            1.0 + 0.01 * rng.standard_normal(clean.matrix.shape))
        noisy = DnLike(clean, noisy_matrix)
        noise_level = float(np.linalg.norm(noisy_matrix - clean.matrix))
        best = None
        for lam in (1e-10, 1e-8, 1e-6):
            result = recover_potential(op_coarse, noisy, lambda_reg=lam,
                                       max_evaluations=150)
            # discrepancy: accept the smallest-error fit whose misfit is
            # consistent with the noise level
            if result.misfit <= 2.0 * noise_level:
                err = (np.linalg.norm(result.a_estimate - a_true)
                       / np.linalg.norm(a_true))
                best = err if best is None else min(best, err)
        assert best is not None
        errors.append(best)
    assert np.all(np.isfinite(errors))
    print(f"\nnoise study: median rel error {np.median(errors):.3f}, "
          f"worst {np.max(errors):.3f}")


def DnLike(template, matrix):
    return type(template)(window=template.window, probes=template.probes,
                          probe_ids=template.probe_ids, matrix=matrix)


def probe_windows(grid, sizes):
    order = np.argsort(grid.domain.distance(grid.exterior_nodes), kind="stable")
    for size in sizes:
        yield Window(grid, np.sort(grid.exterior_index[order[:size]]))


def test_probe_operator_rows_are_evaluate_at(op_coarse, monkeypatch):
    # the lower block of the probed map is L psi on the window for every
    # nodal psi, row-normalized; a boundary cell attributed to a window
    # node gives that node's stencil row a weight at the node itself,
    # which multiplies psi_g - psi_g and must not enter
    grid = op_coarse.grid
    window = next(probe_windows(grid, [48]))
    captured = []
    lapack = _lapack()
    dgesdd = lapack.dgesdd
    monkeypatch.setattr(lapack, "dgesdd",
                        lambda m, **kw: captured.append(m.copy()) or dgesdd(m, **kw))
    strong_uniqueness_probe(grid, op_coarse, window)
    columns = [evaluate_at(op_coarse, Field.from_values(grid, unit), window.indices)
               for unit in np.eye(grid.n_nodes)]
    want = np.array(columns).T
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.max(np.abs(captured[0][window.size:] - want)) <= 1e-12


def test_a_failed_probe_svd_raises_a_named_error(op_coarse, monkeypatch):
    # dgesdd reports a failed convergence by info > 0, not by raising (scipy's
    # svdvals turned it into a bare LinAlgError)
    grid = op_coarse.grid
    lapack = _lapack()
    dgesdd = lapack.dgesdd

    def unconverged(m, **kw):
        u, s, vt, _ = dgesdd(m, **kw)
        return u, s, vt, 1

    monkeypatch.setattr(lapack, "dgesdd", unconverged)
    with pytest.raises(SingularSystem, match="dgesdd info 1"):
        strong_uniqueness_probe(grid, op_coarse, next(probe_windows(grid, [48])))


@pytest.mark.parametrize("h, R", [(1.0 / 4, 3.0), (1.0 / 16, 4.0)])
def test_probe_rejects_an_operator_of_another_grid(op_coarse, h, R):
    # a smaller grid's rows would index past it, a larger one's be wrong
    grid = op_coarse.grid
    other = assemble(build_grid(Domain.interval(-1, 1), h, R), 0.5)
    with pytest.raises(GridMismatch):
        strong_uniqueness_probe(grid, other, next(probe_windows(grid, [grid.n_exterior])))


def test_probe_full_window_positive_and_largest():
    grid = build_grid(Domain.interval(-1, 1), 2.0**-3, 4.0)
    op = assemble(grid, 0.5)
    ne = grid.n_exterior
    sizes = [ne, ne - 6, ne - 12]
    sigmas = [strong_uniqueness_probe(grid, op, w)
              for w in probe_windows(grid, sizes)]
    assert sigmas[0] > 0
    assert sigmas[0] >= sigmas[1] >= sigmas[2]


def test_probe_detects_hidden_bump():
    # a field supported inside the domain is invisible to the window trace
    # but not to the window operator values
    grid = build_grid(Domain.interval(-1, 1), 2.0**-3, 4.0)
    op = assemble(grid, 0.5)
    window = next(probe_windows(grid, [grid.n_exterior]))
    values = np.zeros(grid.n_nodes)
    xi = grid.nodes[grid.interior_index, 0]
    values[grid.interior_index] = np.maximum(0, 1 - (xi / 0.5) ** 2) ** 4
    psi = Field.from_values(grid, values)
    assert np.all(psi.values[window.indices] == 0.0)
    operator_values = evaluate_at(op, psi, window.indices[:10])
    assert np.max(np.abs(operator_values)) > 1e-6


def test_compare_banks_identity_and_determinism(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    nl = catalogue("saturating-cubic", 1.0)
    probes = [("g-0", exterior_bump(grid, 1.5, 0.3, 0.8)),
              ("g-1", exterior_bump(grid, -1.5, 0.3, 0.8))]
    bank1 = build_cauchy_bank(op_small, nl, probes, window)
    bank2 = build_cauchy_bank(op_small, nl, probes, window)
    report = compare_cauchy_banks(bank1, bank2, tol=1e-10)
    assert report.equal and report.max_distance == 0.0
    self_report = compare_cauchy_banks(bank1, bank1, tol=0.0)
    assert self_report.equal


def test_compare_banks_distinct_potentials(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    probes = [("g-0", exterior_bump(grid, 1.5, 0.3, 0.8))]
    bank1 = build_cauchy_bank(op_small, catalogue("linear", 0.5),
                              probes, window)
    bank2 = build_cauchy_bank(op_small, catalogue("linear", 0.6),
                              probes, window)
    report = compare_cauchy_banks(bank1, bank2, tol=1e-10)
    assert not report.equal
    assert report.max_distance > 1e-8


def test_compare_empty_banks_is_a_bank_mismatch():
    # empty banks are otherwise supported (build_cauchy_bank with no probes
    # returns [], and bank_to_json writes it); comparing two was a bare
    # ValueError from max() of no distances
    with pytest.raises(BankMismatch, match="empty"):
        compare_cauchy_banks([], [], tol=1e-10)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_compare_banks_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
        op_small, tol):
    # either tolerance reported a bank unequal to itself
    grid = op_small.grid
    bank = build_cauchy_bank(op_small, catalogue("zero"),
                             [("g-0", exterior_bump(grid, 1.5, 0.3))],
                             annulus_window(grid, 0.5, 1.0))
    with pytest.raises(Validation, match="tol"):
        compare_cauchy_banks(bank, bank, tol=tol)


def test_compare_banks_mismatch(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    nl = catalogue("zero")
    bank1 = build_cauchy_bank(op_small, nl,
                              [("g-0", exterior_bump(grid, 1.5, 0.3))], window)
    bank2 = build_cauchy_bank(op_small, nl,
                              [("other", exterior_bump(grid, 1.5, 0.3))], window)
    with pytest.raises(BankMismatch):
        compare_cauchy_banks(bank1, bank2, tol=1e-10)


def modules_loaded_by(code: str, package: str = "scipy") -> set[str]:
    """The modules named package... (scipy's by default), by full name,
    loaded by the end of code, run in a fresh interpreter after import
    fracschrod as fs and import numpy as np."""
    src = str(Path(fracschrod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys\nimport numpy as np\nimport fracschrod as fs\n" + code
            + f"\nprint(' '.join(m for m in sys.modules if m.startswith({package!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_leaves_scipy_optimize_unloaded():
    # the LAPACK wrappers and hyp2f1 load when first called, and nothing
    # loads scipy.optimize, so importing the package loads no scipy module
    assert modules_loaded_by("") == set()


def assert_lapack_alone(loaded: set[str]) -> None:
    """Of the modules under scipy's public subpackages, exactly LAPACK's
    wrapper module loaded: not the scipy.linalg package, whose import
    loads scipy's array-API layer, nor any module of another subpackage."""
    public = {m for m in loaded
              if m != "scipy.version" and m.split(".")[1:2] != []
              and not m.split(".")[1].startswith("_")}
    assert public == {"scipy.linalg._flapack"}
    assert "scipy._lib._array_api" not in loaded


FORWARD_2D = """
grid = fs.build_grid(fs.Domain.box((-1.0, -1.0), (1.0, 1.0)), 1 / 8, 3.0)
op = fs.assemble(grid, 0.5)
g = fs.sample_function(grid, fs.c3_bump((1.6, 0.3), 0.4, 1.0), fs.Region.EXTERIOR)
sol = fs.solve_semilinear(op, fs.catalogue("saturating-cubic", 1.0), g)
window = fs.annulus_window(grid, 0.5, 1.0)
assert np.isfinite(fs.neumann_derivative(grid, op.params, sol.u, window.indices)).all()
"""

LINEAR_1D = """
grid = fs.build_grid(fs.Domain.interval(-1.0, 1.0), 1 / 16, 3.0)
op = fs.assemble(grid, 0.5)
ni = grid.n_interior
g = fs.Field.from_values(grid, np.zeros(grid.n_nodes))
fs.solve_linear(fs.LinearProblem(op, np.zeros(ni), np.ones(ni), g))
"""


def test_forward_2d_loads_no_scipy():
    # a non-stiff Newton solve (FFTs through numpy.fft) and a Neumann trace
    assert modules_loaded_by(FORWARD_2D) == set()


def test_linear_solve_loads_lapack_alone():
    assert_lapack_alone(modules_loaded_by(LINEAR_1D))


RECOVER_1D = """
grid = fs.build_grid(fs.Domain.interval(-1.0, 1.0), 1 / 8, 4.0)
op = fs.assemble(grid, 0.5)
measured = fs.dn_map(op, 0.5 * np.ones(grid.n_interior), fs.annulus_window(grid, 1 / 8, 1.0))
fs.recover_potential(op, measured, 0.0, max_evaluations=5)
"""


def test_recovery_loads_lapack_alone():
    # the DN map and the recovery need LAPACK's packed Cholesky and LU solve
    assert_lapack_alone(modules_loaded_by(RECOVER_1D))


PROBE_1D = """
grid = fs.build_grid(fs.Domain.interval(-1.0, 1.0), 1 / 8, 3.0)
op = fs.assemble(grid, 0.5)
window = fs.Window(grid, grid.exterior_index)
assert fs.strong_uniqueness_probe(grid, op, window) > 0
"""


def test_probe_loads_lapack_alone():
    assert_lapack_alone(modules_loaded_by(PROBE_1D))


def test_dn_map_and_recovery_leave_numpy_ma_unloaded():
    # np.unique on numpy 2.4 imports numpy.ma; the DN set-up finds repeated
    # probe nodes by np.bincount instead
    assert "numpy.ma" not in modules_loaded_by(RECOVER_1D, "numpy")


LAPACK_IS_SCIPYS = """
assert sys.modules["scipy.linalg._flapack"] is lapack
for name in ("dpftrf", "dpftrs", "dgesv", "dgesdd", "dgesdd_lwork"):
    assert getattr(scipy.linalg.lapack, name) is getattr(lapack, name), name
"""


@pytest.mark.parametrize("first", [
    "lapack = fs.solver._lapack()\nimport scipy.linalg",
    "import scipy.linalg\nlapack = fs.solver._lapack()",
], ids=["loader-first", "package-first"])
def test_lapack_is_the_module_scipy_linalg_uses(first):
    # in either import order, one module object: the loader registers what
    # it loads, and returns what scipy.linalg loaded
    assert "scipy.linalg" in modules_loaded_by(first + LAPACK_IS_SCIPYS)


def test_recovery_rejects_a_window_of_another_grid(op_coarse, monkeypatch):
    # the probes are nodes of the measurements' window, so its grid is
    # theirs: one with the same h and a larger R is refused before set-up
    from fracschrod import calderon

    def no_stencil(*args):
        raise AssertionError("the DN set-up built a stencil before the window was checked")

    grid = op_coarse.grid
    other = build_grid(grid.domain, grid.h, grid.R + 1.0)
    window = recovery_window(other)
    measured = DnMatrix(window, window.indices, (), np.zeros((window.size, window.size)))
    monkeypatch.setattr(calderon, "_Stencil", no_stencil)
    with pytest.raises(GridMismatch, match="window grid"):
        recover_potential(op_coarse, measured, 0.0)


def test_linearization_rejects_a_direction_of_another_grid(op_small, monkeypatch):
    from fracschrod import calderon

    def no_solve(*args):
        raise AssertionError("a Newton solve ran before h was checked")

    other = build_grid(op_small.grid.domain, op_small.grid.h / 2, op_small.grid.R)
    monkeypatch.setattr(calderon, "solve_semilinear", no_solve)
    with pytest.raises(GridMismatch, match="direction h"):
        linearization_study(op_small, catalogue("linear", 1.0),
                            Field.zeros(op_small.grid), exterior_bump(other, 1.5, 0.3),
                            [1e-1, 1e-2])
