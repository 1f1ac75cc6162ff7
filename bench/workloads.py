"""The benchmark's three workloads, each one batch experiment of the toolkit.

Every workload drives the public API the way the matching `cli` runner does
(`forward`, `principles` plus `solve`, `recover` plus `probe`) and writes
the same kind of CSV files.  Inputs come from a numpy Generator the caller
seeds; the library sees only the generated arrays and fields.  Each
workload records its checks in a `Ledger`: a raised `ToolkitError` or a
false check is a failed operation.

Why each workload, which layer it stresses, and where it predicts no change:

forward-2d
    Box (-1,1)^2, s=0.5, h=2^-5, R=3 (N=28661, Ni=3969).  Damped Newton for
    the saturating cubic from two seeded exterior bumps, the Neumann trace
    on the window band {0.5 <= dist <= 1.0} (6768 nodes), then solution,
    Newton-trace and Neumann-trace CSVs.  Chosen because the 2D ceiling
    lives here: per-row Python assembly with a dense exterior block
    (`fraclap`), dense Newton Jacobians (`solver`), and the pairwise
    Neumann arrays (`cauchy`) that set the peak RSS.  `calderon` does not
    run, so an inverse-pipeline change predicts no change here.
linear-1d
    Interval, s=0.5, h=2^-8, R=8 (Ni=511).  The Getoor-oracle solve, then
    seeded order-principle trials as in `run_principles`: two
    `solve_linear`, `build_barrier` and `op.apply` per trial.  Chosen for
    many small Cholesky factorizations (`solver`, `linalg`) and the per-row
    Python `apply_operator` loop (`fraclap` applying, not building) against
    one cheap assembly, and for a per-trial latency distribution.  BLAS
    threads are left as the environment sets them.  `cauchy` and
    `calderon` do not run.
recover-1d
    Interval, s=0.5, h=2^-4, R=4, window [h, 1] with the canonical
    per-node probes.  `dn_map` of a seeded two-bump truth, one noiseless
    `recover_potential` (500-evaluation cap), a seeded 1%-noise sweep over
    lambda in {1e-10, 1e-8, 1e-6}, and a `strong_uniqueness_probe` window
    sweep.  Chosen because `calderon` and the SVDs inside scipy's `trf`
    take nearly all of it while assembly takes under 1%: an operator change
    predicts no change here, a factor-once inverse pipeline shows here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import fracschrod as fs
from fracschrod.errors import ToolkitError
from fracschrod.serialize import write_csv
from fracschrod.solver import trace_to_csv

S = 0.5


@dataclass
class Ledger:
    """Checks, trial latencies and accuracy figures of one workload run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    trial_ms: list[float] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    setup_end: float = 0.0

    def setup_done(self) -> None:
        """Mark the end of set-up: grid built and operator assembled."""
        self.setup_end = time.perf_counter()

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def attempt(self, name: str, fn, *args, **kwargs):
        """Call fn; a ToolkitError counts as one failed operation."""
        try:
            return fn(*args, **kwargs)
        except ToolkitError as err:
            self.attempted += 1
            self.failures.append(f"{name}: {type(err).__name__}")
            return None

    def trial(self, name: str, fn, *args, **kwargs):
        """`attempt`, timed as one sample of the workload's trial latency."""
        start = time.perf_counter()
        result = self.attempt(name, fn, *args, **kwargs)
        self.trial_ms.append(1e3 * (time.perf_counter() - start))
        return result


# Accuracy figures, reported with the per-layer metrics (0 where not computed).
ACCURACY = ("solver.getoor_err", "solver.newton_residual", "calderon.recover_rel_err")


# Sizes: "full" is the benchmark, "small" runs the same code in the self-test.
SIZES = {
    "forward-2d": {"full": {"h": 2.0**-5, "R": 3.0},
                   "small": {"h": 2.0**-3, "R": 3.0}},
    "linear-1d": {"full": {"h": 2.0**-8, "R": 8.0, "trials": 60},
                  "small": {"h": 2.0**-7, "R": 8.0, "trials": 6}},
    "recover-1d": {"full": {"h": 2.0**-4, "R": 4.0, "sweep": (96, 88, 80, 72)},
                   "small": {"h": 2.0**-3, "R": 4.0, "sweep": (48, 44, 40, 36)}},
}


def _exterior_bumps(grid, bumps) -> fs.Field:
    values = np.zeros(grid.n_nodes)
    for center, width, amplitude in bumps:
        values += fs.sample_function(grid, fs.c3_bump(center, width, amplitude),
                                     fs.Region.EXTERIOR).values
    return fs.Field.from_values(grid, values)


def forward_2d(size: dict, rng: np.random.Generator, out, ledger: Ledger):
    grid = fs.build_grid(fs.Domain.box((-1.0, -1.0), (1.0, 1.0)), size["h"], size["R"])
    op = fs.assemble(grid, S)
    ledger.setup_done()

    # Bump centres on the square ring |c|_inf = 1.6: support (width 0.4)
    # stays 0.2 clear of the domain and inside the truncation ball.
    bumps = []
    for _ in range(2):
        t = rng.uniform(-1.6, 1.6)
        side = rng.integers(4)
        center = [(1.6, t), (-1.6, t), (t, 1.6), (t, -1.6)][side]
        bumps.append((center, 0.4, rng.uniform(0.5, 1.0)))
    g = _exterior_bumps(grid, bumps)

    newton = fs.NewtonConfig(max_iters=50, residual_tol=1e-10, damping=0.5)
    nl = fs.catalogue("saturating-cubic", 1.0)
    window = fs.annulus_window(grid, 0.5, 1.0)

    def experiment():
        sol = fs.solve_semilinear(op, nl, g, newton)
        return sol, fs.neumann_derivative(grid, op.params, sol.u, window.indices)

    # The trial is the whole forward experiment: Newton, then the Neumann trace.
    done = ledger.trial("newton + neumann trace", experiment)
    if done is None:
        return
    sol, neumann = done
    residual = sol.residuals[-1]
    ledger.accuracy["solver.newton_residual"] = residual
    ledger.check("newton residual <= tol", residual <= newton.residual_tol)
    u = sol.u.interior_values
    g_sup = float(np.max(g.exterior_values))
    ledger.check("0 <= u <= sup g",
                 bool(np.min(u) >= -1e-10 and np.max(u) <= g_sup + 1e-10))
    ledger.check("neumann trace finite", bool(np.all(np.isfinite(neumann))))

    fs.solution_to_csv(out / "solution.csv", sol.u)
    trace_to_csv(out / "newton_trace.csv", sol.residuals)
    write_csv(out / "neumann_trace.csv", ["node", "trace", "neumann"],
              [(int(i), float(v), float(nv)) for i, v, nv
               in zip(window.indices, sol.u.values[window.indices], neumann)])


def _getoor_error(op) -> tuple[fs.Field, float]:
    """Max relative error against sqrt(1 - x^2) on |x| <= 0.9 (s = 1/2)."""
    grid = op.grid
    u = fs.solve_linear(fs.LinearProblem(op=op, a=np.zeros(grid.n_interior),
                                         f=np.ones(grid.n_interior),
                                         g=fs.Field.zeros(grid)))
    x = grid.interior_nodes.ravel()
    exact = np.sqrt(1.0 - x**2)
    mask = np.abs(x) <= 0.9
    err = np.max(np.abs(u.interior_values[mask] - exact[mask]) / exact[mask])
    return u, float(err)


def _exterior_values(grid, values) -> fs.Field:
    full = np.zeros(grid.n_nodes)
    full[grid.exterior_index] = values
    return fs.Field.from_values(grid, full)


def linear_1d(size: dict, rng: np.random.Generator, out, ledger: Ledger):
    grid = fs.build_grid(fs.Domain.interval(-1.0, 1.0), size["h"], size["R"])
    op = fs.assemble(grid, S)
    ledger.setup_done()

    solved = ledger.attempt("getoor", _getoor_error, op)
    if solved is not None:
        u, err = solved
        ledger.accuracy["solver.getoor_err"] = err
        ledger.check("getoor_err < 0.02", err < 0.02)
        fs.solution_to_csv(out / "solution.csv", u)

    ni, ne = grid.n_interior, grid.n_exterior
    rows = []
    for trial in range(size["trials"]):
        a = rng.uniform(0.0, 1.0, ni)
        f = rng.uniform(0.0, 1.0, ni)
        ge = rng.uniform(0.0, 1.0, ne)
        df = rng.uniform(0.0, 1.0, ni)
        dg = rng.uniform(0.0, 1.0, ne)
        row = ledger.trial("principles trial", _principles_trial, op, a, f, ge, df, dg)
        if row is None:
            continue
        min_u, ordered, _, _, linf_ok, _, barrier_ok = row
        ledger.check("maximum principle", min_u >= -1e-10)
        ledger.check("comparison", bool(ordered))
        ledger.check("sup-norm bound", bool(linf_ok))
        ledger.check("barrier", bool(barrier_ok))
        rows.append((trial,) + row)
    write_csv(out / "principles.csv",
              ["trial", "min_u", "comparison_ok", "linf_lhs", "linf_rhs",
               "linf_ok", "barrier_C", "barrier_ok"], rows)


def _principles_trial(op, a, f, ge, df, dg) -> tuple:
    """One order-principle trial, as `cli.run_principles` runs it.

    Returns the principles.csv row without its trial number.
    """
    grid = op.grid
    g = _exterior_values(grid, ge)
    u = fs.solve_linear(fs.LinearProblem(op=op, a=a, f=f, g=g))
    min_u = float(np.min(u.interior_values))
    g_hi = _exterior_values(grid, ge + dg)
    u_hi = fs.solve_linear(fs.LinearProblem(op=op, a=a, f=f + df, g=g_hi))
    ordered = fs.check_comparison(u_hi, u)
    barrier = fs.build_barrier(op, a)
    lhs, rhs, linf_ok = fs.check_linf_bound(u, f, g, barrier)
    barrier_vals = op.apply(barrier.phi) + a * barrier.phi.interior_values
    barrier_ok = bool(np.min(barrier_vals) >= 1.0 - 1e-8)
    return (min_u, int(ordered), float(lhs), float(rhs), int(linf_ok),
            float(barrier.big_c), int(barrier_ok))


def recover_1d(size: dict, rng: np.random.Generator, out, ledger: Ledger):
    grid = fs.build_grid(fs.Domain.interval(-1.0, 1.0), size["h"], size["R"])
    op = fs.assemble(grid, S)
    ledger.setup_done()

    truth = [(-0.45 + rng.uniform(-0.05, 0.05), 0.5, rng.uniform(0.5, 0.7)),
             (0.45 + rng.uniform(-0.05, 0.05), 0.5, rng.uniform(0.7, 0.9))]
    a_true = np.zeros(grid.n_interior)
    for center, width, amplitude in truth:
        a_true += fs.sample_function(grid, fs.c3_bump(center, width, amplitude),
                                     fs.Region.INTERIOR).interior_values
    window = fs.annulus_window(grid, grid.h, 1.0)
    measured = ledger.attempt("dn_map", fs.dn_map, op, a_true, window)
    if measured is None:
        return

    # Each recovery, noiseless or noisy, is one trial.
    result = ledger.trial("recover", fs.recover_potential, op, measured, 0.0,
                          max_evaluations=500)
    if result is not None:
        rel = float(np.linalg.norm(result.a_estimate - a_true) / np.linalg.norm(a_true))
        ledger.accuracy["calderon.recover_rel_err"] = rel
        ledger.check("noiseless misfit finite", bool(np.isfinite(result.misfit)))
        write_csv(out / "recover.csv", ["x", "a_true", "a_estimate"],
                  [(float(p[0]), float(t), float(e)) for p, t, e
                   in zip(grid.interior_nodes, a_true, result.a_estimate)])

    noisy = fs.DnMatrix(window=measured.window, probes=measured.probes,
                        probe_ids=measured.probe_ids,
                        matrix=measured.matrix * (1.0 + 0.01 * rng.standard_normal(
                            measured.matrix.shape)))
    misfits = []
    for lam in (1e-10, 1e-8, 1e-6):
        noisy_result = ledger.trial(f"recover lambda={lam:g}", fs.recover_potential,
                                    op, noisy, lam, max_evaluations=500)
        if noisy_result is not None:
            ledger.check(f"misfit finite lambda={lam:g}",
                         bool(np.isfinite(noisy_result.misfit)))
            misfits.append((lam, noisy_result.misfit))
    write_csv(out / "misfit.csv", ["lambda", "misfit"], misfits)

    order = np.argsort(grid.domain.distance(grid.exterior_nodes), kind="stable")
    sigmas = []
    for k in size["sweep"]:
        idx = np.sort(grid.exterior_index[order[:k]])
        sigma = ledger.attempt("probe", fs.strong_uniqueness_probe,
                               grid, op, fs.Window(grid, idx))
        if sigma is not None:
            sigmas.append((k, float(sigma)))
    ledger.check("probe sigma non-increasing",
                 len(sigmas) == len(size["sweep"])
                 and all(b[1] <= a[1] for a, b in zip(sigmas, sigmas[1:])))
    write_csv(out / "probe.csv", ["window_size", "sigma_min"], sigmas)


WORKLOADS = {
    "forward-2d": forward_2d,
    "linear-1d": linear_1d,
    "recover-1d": recover_1d,
}
