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
    Window,
    annulus_window,
    assemble,
    build_cauchy_bank,
    build_grid,
    canonical_probes,
    catalogue,
    compare_cauchy_banks,
    dn_map,
    evaluate_at,
    linearization_study,
    mass_m,
    mean_potential,
    neumann_derivative,
    recover_potential,
    solve_linear,
    solve_linearized,
    solve_semilinear,
    strong_uniqueness_probe,
)
from fracschrod.calderon import DnMatrix
from fracschrod.errors import (BankMismatch, GridMismatch, InvalidRange,
                               RankDeficientProbes, Validation)
from fracschrod.solver import LinearProblem
from conftest import exterior_bump


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


def test_mean_potential_degenerate_segment(op_small):
    grid = op_small.grid
    nl = catalogue("saturating-cubic", 1.0)
    u = Field.from_values(grid, np.linspace(-1, 1, grid.n_nodes))
    q = mean_potential(u, u, nl)
    direct = np.asarray(nl.dq(grid.interior_nodes, u.interior_values))
    assert np.max(np.abs(q - direct)) <= 1e-13


def test_mean_potential_linear_model(op_small):
    grid = op_small.grid
    nl = catalogue("linear", 0.7)
    rng = np.random.default_rng(2)
    u1 = Field.from_values(grid, rng.standard_normal(grid.n_nodes))
    u2 = Field.from_values(grid, rng.standard_normal(grid.n_nodes))
    q = mean_potential(u1, u2, nl)
    assert np.max(np.abs(q - 0.7)) <= 1e-13


def test_mean_potential_unit_segment(op_small):
    # by the fundamental theorem, the averaged derivative over the segment
    # from 0 to 1 equals q(1) - q(0) = 1/2 for the saturating model
    grid = op_small.grid
    nl = catalogue("saturating-cubic", 1.0)
    u1 = Field.from_values(grid, np.ones(grid.n_nodes))
    u2 = Field.zeros(grid)
    q = mean_potential(u1, u2, nl)
    assert np.max(np.abs(q - 0.5)) <= 1e-10


def test_mean_potential_generic_segment_vs_quadrature(op_small):
    from scipy.integrate import quad

    grid = op_small.grid
    nl = catalogue("saturating-cubic", 1.0)
    hi, lo = 1.7, -0.4
    u1 = Field.from_values(grid, np.full(grid.n_nodes, hi))
    u2 = Field.from_values(grid, np.full(grid.n_nodes, lo))
    q = mean_potential(u1, u2, nl)
    dq_scalar = lambda t: (3 * t**2 + t**4) / (1 + t**2) ** 2
    oracle, _ = quad(lambda t: dq_scalar(t * hi + (1 - t) * lo), 0.0, 1.0,
                     epsabs=1e-13, epsrel=1e-13)
    assert np.max(np.abs(q - oracle)) <= 1e-10


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
    probes = canonical_probes(window)[::37]
    a = 0.5 * np.exp(-np.sum(grid_2d.interior_nodes ** 2, axis=1))
    dn = dn_map(op, a, window, probes)
    idx = window.indices
    mass = mass_m(grid_2d, op.params, idx)
    for column, (_, probe) in zip(dn.matrix.T, probes):
        v = solve_linearized(op, a, probe)
        want = (neumann_derivative(grid_2d, op.params, v, idx) - mass * v.values[idx]
                + evaluate_at(op, probe, idx))
        assert np.max(np.abs(column - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 16])
def test_dn_map_reflection_symmetry(h):
    # the domain, window, and canonical probes are symmetric about 0, so the
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


def test_dn_map_rank_deficient_probes(op_coarse):
    window = recovery_window(op_coarse.grid)
    probes = canonical_probes(window)[:2]
    probes.append(probes[0])
    with pytest.raises(RankDeficientProbes):
        dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window,
               probes=probes)


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
    from fracschrod.calderon import _DnAssembler

    grid = op_coarse.grid
    window = recovery_window(grid)
    asm = _DnAssembler(op_coarse, window, canonical_probes(window))
    jac = asm.jacobian(0.5 * np.ones(grid.n_interior))
    sigma_min = float(np.linalg.svd(jac, compute_uv=False)[-1])
    print(f"\ndn-map jacobian sigma_min at a=0.5: {sigma_min:.3e}")
    assert sigma_min > 0.0


def test_jacobian_reuses_the_factor_of_the_last_potential(op_coarse, monkeypatch):
    # trf asks for the Jacobian at the potential it just evaluated; the factor
    # memo is the operator's, so count on an operator no other test touched
    from fracschrod import calderon, solver

    grid = op_coarse.grid
    window = recovery_window(grid)
    a = two_bump_potential(grid)
    fresh = calderon._DnAssembler(op_coarse, window, canonical_probes(window))
    want = fresh.jacobian(a)
    calls = []
    factor_system = solver._factor_system
    monkeypatch.setattr(solver, "_factor_system",
                        lambda *args: calls.append(1) or factor_system(*args))
    op = assemble(grid, op_coarse.params.s)
    asm = calderon._DnAssembler(op, window, canonical_probes(window))
    asm.matrix(a)
    assert asm.jacobian(a.copy()).tobytes() == want.tobytes()
    assert len(calls) == 1
    asm.matrix(0.5 * a)
    assert len(calls) == 2


def test_jacobian_is_the_derivative_of_the_matrix(op_coarse):
    # vec(matrix) stacks the probe columns, as recover_potential's residual
    # does; central differences with step 1e-5 (measured: 1.5e-9 relative)
    from fracschrod.calderon import _DnAssembler

    grid = op_coarse.grid
    window = recovery_window(grid)
    asm = _DnAssembler(op_coarse, window, canonical_probes(window))
    a = two_bump_potential(grid)
    jac = asm.jacobian(a)
    step = 1e-5
    diff = np.empty_like(jac)
    for j, e in enumerate(step * np.eye(grid.n_interior)):
        diff[:, j] = (asm.matrix(a + e) - asm.matrix(a - e)).T.reshape(-1) / (2 * step)
    assert np.max(np.abs(jac - diff)) <= 1e-6 * np.max(np.abs(jac))


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


def test_recover_returns_the_dn_matrix_it_fitted(op_coarse):
    window = recovery_window(op_coarse.grid)
    measurements = dn_map(op_coarse, 0.5 * np.ones(op_coarse.grid.n_interior), window)
    result = recover_potential(op_coarse, measurements, lambda_reg=0.0,
                               max_evaluations=20)
    probes = list(zip(measurements.probe_ids, measurements.probes))
    want = dn_map(op_coarse, result.a_estimate, window, probes)
    assert result.fitted.matrix.tobytes() == want.matrix.tobytes()
    assert result.fitted.probe_ids == want.probe_ids
    assert result.misfit == float(np.linalg.norm(want.matrix - measurements.matrix))


@pytest.mark.parametrize("lambda_reg", [np.nan, np.inf])
def test_recover_rejects_a_non_finite_lambda(op_coarse, lambda_reg):
    window = recovery_window(op_coarse.grid)
    measurements = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window)
    with pytest.raises(Validation, match="lambda_reg"):
        recover_potential(op_coarse, measurements, lambda_reg=lambda_reg)


def test_dn_matrix_rejects_non_finite_entries(op_coarse):
    clean = dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior),
                   recovery_window(op_coarse.grid))
    spoiled = clean.matrix.copy()
    spoiled[1, 2] = np.nan
    with pytest.raises(Validation, match="non-finite"):
        DnLike(clean, spoiled)


def test_recover_stagnation(op_coarse):
    # measurements extrapolated beyond the a >= 0 cone: the best fit needs a
    # negative potential, so the bounded iteration cannot descend
    from fracschrod.errors import MisfitStagnation

    window = recovery_window(op_coarse.grid)
    ni = op_coarse.grid.n_interior
    m0 = dn_map(op_coarse, np.zeros(ni), window)
    m5 = dn_map(op_coarse, 0.5 * np.ones(ni), window)
    bad = DnLike(m0, 2.0 * m0.matrix - m5.matrix)
    with pytest.raises(MisfitStagnation) as err:
        recover_potential(op_coarse, bad, lambda_reg=0.0)
    assert err.value.last_iterate is not None


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
    import scipy.linalg

    grid = op_coarse.grid
    window = next(probe_windows(grid, [48]))
    captured = []
    svdvals = scipy.linalg.svdvals
    monkeypatch.setattr(scipy.linalg, "svdvals",
                        lambda m: captured.append(m.copy()) or svdvals(m))
    strong_uniqueness_probe(grid, op_coarse, window)
    columns = [evaluate_at(op_coarse, Field.from_values(grid, unit), window.indices)
               for unit in np.eye(grid.n_nodes)]
    want = np.array(columns).T
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.max(np.abs(captured[0][window.size:] - want)) <= 1e-12


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


def test_import_leaves_scipy_optimize_unloaded():
    # recover_potential imports least_squares when it runs, so importing the
    # package skips scipy.optimize (about 0.1 s)
    src = str(Path(fracschrod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, fracschrod; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _foreign_probes(window, beyond=False):
    """Unit probes at the window's node indices, built on the h/2 grid with
    the same R, where those indices are exterior nodes too; with beyond,
    the first also carries the h/2 grid's last node, past the window
    grid's node count."""
    grid = window.grid
    fine = build_grid(grid.domain, grid.h / 2, grid.R)
    probes = []
    for idx in window.indices:
        values = np.zeros(fine.n_nodes)
        values[idx] = 1.0
        if beyond and not probes:
            values[-1] = 1.0
        probes.append((f"node-{idx}", Field.from_values(fine, values)))
    return probes


@pytest.mark.parametrize("beyond", [False, True])
def test_dn_map_rejects_probes_of_another_grid(op_coarse, beyond):
    # without beyond the DN matrix came back silently, with it as a bare
    # IndexError
    window = recovery_window(op_coarse.grid)
    probes = _foreign_probes(window, beyond)
    with pytest.raises(GridMismatch, match="probe grid"):
        dn_map(op_coarse, np.zeros(op_coarse.grid.n_interior), window, probes)


def test_recovery_rejects_probes_of_another_grid(op_coarse):
    window = recovery_window(op_coarse.grid)
    probes = _foreign_probes(window)
    measured = DnMatrix(window, tuple(f for _, f in probes),
                        tuple(name for name, _ in probes),
                        np.zeros((window.size, len(probes))))
    with pytest.raises(GridMismatch, match="probe grid"):
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
