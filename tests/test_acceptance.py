"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL line per
criterion.  All tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

from fracschrod import (
    Domain,
    Field,
    LinearProblem,
    NewtonConfig,
    Window,
    annulus_window,
    apply_operator,
    assemble,
    build_barrier,
    build_cauchy_bank,
    build_grid,
    catalogue,
    check_comparison,
    check_linf_bound,
    compare_cauchy_banks,
    dn_map,
    exterior_identity_check,
    linearization_study,
    recover_potential,
    solve_linear,
    solve_semilinear,
    strong_uniqueness_probe,
)
from conftest import exterior_bump


def report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:2d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def getoor_error(op) -> float:
    grid = op.grid
    u = solve_linear(LinearProblem(op=op, a=np.zeros(grid.n_interior),
                                   f=np.ones(grid.n_interior),
                                   g=Field.zeros(grid)))
    xi = grid.interior_nodes.ravel()
    exact = np.sqrt(1.0 - xi**2)
    mask = np.abs(xi) <= 0.9
    return float(np.max(np.abs(u.interior_values[mask] - exact[mask])
                        / exact[mask]))


def test_criterion_1_getoor_oracle(op_fine):
    errors = []
    for p in (5, 6, 7):
        grid = build_grid(Domain.interval(-1, 1), 2.0**-p, 8.0)
        errors.append(getoor_error(assemble(grid, 0.5)))
    errors.append(getoor_error(op_fine))
    fine_ok = errors[-1] < 0.02
    mono_ok = all(b < a for a, b in zip(errors, errors[1:]))
    report(1, "Getoor oracle", fine_ok and mono_ok,
           f"errors={['%.4f' % e for e in errors]}")


def test_criterion_2_constant_annihilation():
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        grid1 = build_grid(Domain.interval(-1, 1), 2.0**-5, 4.0)
        op1 = assemble(grid1, s)
        ones = Field.from_values(grid1, np.ones(grid1.n_nodes))
        worst = max(worst, float(np.max(np.abs(apply_operator(op1, ones, 1.0)))))
        grid2 = build_grid(Domain.box((-1, -1), (1, 1)), 2.0**-3, 3.0)
        op2 = assemble(grid2, s)
        ones2 = Field.from_values(grid2, np.ones(grid2.n_nodes))
        worst = max(worst, float(np.max(np.abs(apply_operator(op2, ones2, 1.0)))))
    report(2, "constant annihilation", worst <= 1e-12, f"worst={worst:.2e}")


def _random_nonneg_problem(op, rng):
    grid = op.grid
    a = rng.uniform(0.0, 1.0, grid.n_interior)
    f = rng.uniform(0.0, 1.0, grid.n_interior)
    values = np.zeros(grid.n_nodes)
    values[grid.exterior_index] = rng.uniform(0.0, 1.0, grid.n_exterior)
    return a, f, Field.from_values(grid, values)


def test_criterion_3_maximum_principle(op_small):
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(100):
        a, f, g = _random_nonneg_problem(op_small, rng)
        u = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
        worst = min(worst, float(np.min(u.interior_values)))
    report(3, "maximum principle", worst >= -1e-10, f"min_u={worst:.2e}")


def test_criterion_4_comparison(op_small):
    rng = np.random.default_rng(2025)
    grid = op_small.grid
    ok = True
    for _ in range(100):
        a = rng.uniform(0.0, 1.0, grid.n_interior)
        f2 = rng.uniform(-1.0, 1.0, grid.n_interior)
        f1 = f2 + rng.uniform(0.0, 1.0, grid.n_interior)
        g2v = np.zeros(grid.n_nodes)
        g2v[grid.exterior_index] = rng.uniform(-1.0, 1.0, grid.n_exterior)
        g1v = g2v.copy()
        g1v[grid.exterior_index] += rng.uniform(0.0, 1.0, grid.n_exterior)
        u1 = solve_linear(LinearProblem(op=op_small, a=a, f=f1,
                                        g=Field.from_values(grid, g1v)))
        u2 = solve_linear(LinearProblem(op=op_small, a=a, f=f2,
                                        g=Field.from_values(grid, g2v)))
        ok = ok and check_comparison(u1, u2, tol=1e-10)
    report(4, "comparison principle", ok)


def test_criterion_5_linf_estimate(op_small):
    rng = np.random.default_rng(2026)
    ok = True
    worst_barrier = np.inf
    for _ in range(100):
        a, f, g = _random_nonneg_problem(op_small, rng)
        u = solve_linear(LinearProblem(op=op_small, a=a, f=f, g=g))
        barrier = build_barrier(op_small, a)
        lhs, rhs, bound_ok = check_linf_bound(u, f, g, barrier)
        nodewise = (apply_operator(op_small, barrier.phi)
                    + a * barrier.phi.interior_values)
        worst_barrier = min(worst_barrier, float(np.min(nodewise)))
        ok = ok and bound_ok and worst_barrier >= 1.0 - 1e-8
    report(5, "sup-norm estimate", ok,
           f"worst nodewise barrier value={worst_barrier:.6f}")


def _identity_residual(p: int) -> float:
    grid = build_grid(Domain.interval(-1, 1), 2.0**-p, 8.0)
    op = assemble(grid, 0.5)
    g = exterior_bump(grid, 2.0, 0.4, 1e-3, mirrored=True)
    u = solve_linear(LinearProblem(op=op, a=np.zeros(grid.n_interior),
                                   f=np.zeros(grid.n_interior), g=g))
    window = annulus_window(grid, 0.5, 1.5)
    return exterior_identity_check(op, u, g, window)


def test_criterion_6_exterior_identity():
    fine = _identity_residual(8)
    coarse = _identity_residual(7)
    ratio = fine / coarse
    ok = fine <= 1e-5 and 0.375 <= ratio <= 0.625
    report(6, "exterior identity", ok,
           f"residual={fine:.2e}, refinement ratio={ratio:.3f}")


def test_criterion_7_linearization(op_medium):
    grid = op_medium.grid
    g = exterior_bump(grid, 1.5, 0.4, 1.0)
    cfg = NewtonConfig(residual_tol=1e-12)

    lin = linearization_study(op_medium, catalogue("linear", 1.0), g, g,
                              [1e-1, 1e-2, 1e-3, 1e-4], cfg)
    linear_ok = max(lin.errors_sup) <= 1e-10

    nl = catalogue("saturating-cubic", 1.0)
    half_decade = [10 ** (-1 - 0.5 * k) for k in range(7)]
    study = linearization_study(op_medium, nl, g, g, half_decade, cfg)
    mono_ok = (all(study.converged)
               and all(b < a for a, b in zip(study.errors_sup, study.errors_sup[1:]))
               and all(b < a for a, b in zip(study.errors_l2, study.errors_l2[1:])))

    doubling = [1e-2 * 2.0**-k for k in range(6)]
    rate = linearization_study(op_medium, nl, g, g, doubling, cfg)
    ratios = [b / a for a, b in zip(rate.errors_sup, rate.errors_sup[1:])]
    median = float(np.median(ratios))
    rate_ok = 0.4 <= median <= 0.6
    report(7, "linearization", linear_ok and mono_ok and rate_ok,
           f"linear sup={max(lin.errors_sup):.1e}, median ratio={median:.3f}")


def test_criterion_8_newton_convergence(op_medium):
    g = exterior_bump(op_medium.grid, 1.5, 0.4, 1.0)
    sol = solve_semilinear(op_medium, catalogue("saturating-cubic", 1.0), g,
                           NewtonConfig(residual_tol=1e-12))
    rs = [r for r in sol.residuals if r > 1e-14]
    kappas = [rs[k + 1] / rs[k] ** 2 for k in range(len(rs) - 3, len(rs) - 1)]
    kappa = max(kappas)
    ok = (sol.residuals[-1] <= 1e-10 and np.isfinite(kappa)
          and all(rs[k + 1] <= kappa * rs[k] ** 2 * (1 + 1e-9)
                  for k in range(len(rs) - 3, len(rs) - 1)))
    report(8, "Newton quadratic convergence", ok,
           f"kappa={kappa:.3g}, final residual={sol.residuals[-1]:.2e}")


def test_criterion_9_inverse_recovery(op_coarse):
    grid = op_coarse.grid
    ni = grid.n_interior
    assert ni <= 32
    window = annulus_window(grid, grid.h, 1.0)

    zero_meas = dn_map(op_coarse, np.zeros(ni), window)
    zero_result = recover_potential(op_coarse, zero_meas, lambda_reg=0.0)
    zero_ok = float(np.max(np.abs(zero_result.a_estimate))) <= 1e-6

    a_const = 0.5 * np.ones(ni)
    const_result = recover_potential(op_coarse, dn_map(op_coarse, a_const, window),
                                     lambda_reg=0.0)
    rel_const = float(np.linalg.norm(const_result.a_estimate - a_const)
                      / np.linalg.norm(a_const))

    xi = grid.interior_nodes.ravel()
    a_bumps = (0.6 * np.maximum(0, 1 - ((xi + 0.45) / 0.5) ** 2) ** 4
               + 0.8 * np.maximum(0, 1 - ((xi - 0.45) / 0.5) ** 2) ** 4)
    bump_result = recover_potential(op_coarse, dn_map(op_coarse, a_bumps, window),
                                    lambda_reg=0.0)
    rel_bumps = float(np.linalg.norm(bump_result.a_estimate - a_bumps)
                      / np.linalg.norm(a_bumps))

    ok = zero_ok and rel_const < 0.10 and rel_bumps < 0.10
    report(9, "inverse recovery", ok,
           f"zero sup={np.max(np.abs(zero_result.a_estimate)):.1e}, "
           f"const rel={rel_const:.2e}, two-bump rel={rel_bumps:.2e}")


def test_criterion_10_strong_uniqueness_probe():
    grid = build_grid(Domain.interval(-1, 1), 2.0**-3, 4.0)
    op = assemble(grid, 0.5)
    order = np.argsort(grid.domain.distance(grid.exterior_nodes), kind="stable")
    sigmas = []
    for size in (48, 44, 40, 36):
        idx = np.sort(grid.exterior_index[order[:size]])
        sigmas.append(strong_uniqueness_probe(grid, op, Window(grid, idx)))
    ok = (all(s > 0 for s in sigmas)
          and all(a >= b for a, b in zip(sigmas, sigmas[1:])))
    report(10, "strong uniqueness probe", ok,
           f"sigma_min sweep={['%.2e' % s for s in sigmas]}")


def test_criterion_11_distinguishability(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    probes = [("g-0", exterior_bump(grid, 1.5, 0.3, 1.0)),
              ("g-1", exterior_bump(grid, -1.5, 0.3, 1.0))]
    solver_tol = 1e-10
    cfg = NewtonConfig(residual_tol=solver_tol)
    bank_05a = build_cauchy_bank(op_small, catalogue("linear", 0.5),
                                 probes, window, cfg)
    bank_05b = build_cauchy_bank(op_small, catalogue("linear", 0.5),
                                 probes, window, cfg)
    bank_06 = build_cauchy_bank(op_small, catalogue("linear", 0.6),
                                probes, window, cfg)
    same = compare_cauchy_banks(bank_05a, bank_05b, tol=1e-10)
    different = compare_cauchy_banks(bank_05a, bank_06, tol=1e-10)
    ok = same.max_distance <= 1e-10 and different.max_distance >= 100 * solver_tol
    report(11, "distinguishability", ok,
           f"same={same.max_distance:.1e}, distinct={different.max_distance:.2e}")
