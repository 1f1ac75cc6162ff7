"""Batch experiment driver.

Subcommands: solve | forward | principles | linearize | recover | probe,
each taking --config <path> (a JSON document) and --out <dir>.  Every run
writes manifest.json with the fully resolved configuration, the library
version, the environment (python, numpy, scipy and BLAS versions, thread
variables, usable CPUs) and wall-clock time, next to experiment-specific
CSV files whose numeric content is byte-identical across runs for a fixed
config and seed.
Failures exit nonzero and leave a machine-readable error record naming the
error class.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .calderon import (
    dn_map,
    linearization_study,
    recover_potential,
    strong_uniqueness_probe,
)
from .cauchy import bank_to_json, build_cauchy_bank
from .errors import ConfigParse, ToolkitError, Validation
from .fraclap import assemble
from .grid import Domain, Field, Window, annulus_window, build_grid, c3_bump
from .nonlinearity import catalogue
from .serialize import dump, write_csv
from .solver import (
    LinearProblem,
    NewtonConfig,
    build_barrier,
    check_comparison,
    check_linf_bound,
    solve_linear,
    solve_semilinear,
    solution_to_csv,
    trace_to_csv,
)

EXPERIMENTS = ("solve", "forward", "principles", "linearize", "recover", "probe")

DEFAULTS = {
    "seed": 0,
    "potential": {"kind": "constant", "value": 0.0},
    "source": {"kind": "constant", "value": 0.0},
    "exterior_data": [],
    "probe_data": [],
    "nonlinearity": {"name": "zero"},
    "newton": {},
    "eta_schedule": [10.0 ** (-1 - 0.5 * k) for k in range(7)],
    "regularization": 0.0,
    "trials": 100,
    "noise": 0.0,
    "truth": {"kind": "constant", "value": 0.5},
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigParse(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigParse(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigParse("config must be a JSON object")
    cfg = dict(DEFAULTS)
    cfg.update(raw)
    return cfg


def _require(cfg: dict, *keys):
    for key in keys:
        if key not in cfg:
            raise Validation(f"config key {key!r} is required for this experiment")


def _domain(cfg) -> Domain:
    spec = cfg.get("domain")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise Validation("config needs a domain object with a kind")
    try:
        return Domain(spec["kind"], tuple(spec["lower"]), tuple(spec["upper"]))
    except (KeyError, TypeError, ValueError) as err:
        raise Validation(f"bad domain spec: {err}") from err


def _grid_and_operator(cfg):
    _require(cfg, "domain", "s", "h", "R")
    grid = build_grid(_domain(cfg), float(cfg["h"]), float(cfg["R"]))
    op = assemble(grid, float(cfg["s"]))
    return grid, op


def _profile_values(spec: dict, points: np.ndarray) -> np.ndarray:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return np.full(points.shape[0], float(spec.get("value", 0.0)))
    if kind == "bumps":
        total = np.zeros(points.shape[0])
        for b in spec.get("bumps", []):
            try:
                f = c3_bump(b["center"], float(b["width"]),
                            float(b.get("amplitude", 1.0)))
            except (KeyError, TypeError, ValueError) as err:
                raise Validation(f"bad bump spec: {err}") from err
            total += np.asarray([f(*p) for p in points])
        return total
    raise Validation(f"unknown profile kind {kind!r}")


def _exterior_field(grid, bumps: list) -> Field:
    values = _profile_values({"kind": "bumps", "bumps": bumps}, grid.exterior_nodes)
    return Field.from_values(grid, _scatter(grid, values))


def _band(cfg) -> tuple[float, float]:
    """The window's distance band (inner, outer), read before any work."""
    spec = cfg.get("window")
    if not isinstance(spec, dict):
        raise Validation("config needs a window object {inner, outer}")
    try:
        return float(spec["inner"]), float(spec["outer"])
    except (KeyError, TypeError, ValueError) as err:
        raise Validation(f"bad window spec: {err}") from err


def _newton(cfg) -> NewtonConfig:
    spec = cfg.get("newton", {})
    return NewtonConfig(max_iters=int(spec.get("max_iters", 50)),
                        residual_tol=float(spec.get("residual_tol", 1e-10)),
                        damping=float(spec.get("damping", 0.5)))


def _nonlinearity(cfg):
    spec = cfg.get("nonlinearity", {"name": "zero"})
    return catalogue(spec.get("name", "zero"), spec.get("a", 1.0))


def run_solve(cfg: dict, out: Path) -> dict:
    grid, op = _grid_and_operator(cfg)
    a = _profile_values(cfg["potential"], grid.interior_nodes)
    f = _profile_values(cfg["source"], grid.interior_nodes)
    g = _exterior_field(grid, cfg["exterior_data"])
    u = solve_linear(LinearProblem(op=op, a=a, f=f, g=g))
    solution_to_csv(out / "solution.csv", u)
    return {"nodes": grid.n_nodes,
            "max_abs_u": float(np.max(np.abs(u.interior_values)))}


def run_forward(cfg: dict, out: Path) -> dict:
    band = _band(cfg) if cfg.get("window") is not None else None
    grid, op = _grid_and_operator(cfg)
    nl = _nonlinearity(cfg)
    g = _exterior_field(grid, cfg["exterior_data"])
    sol = solve_semilinear(op, nl, g, _newton(cfg))
    solution_to_csv(out / "solution.csv", sol.u)
    trace_to_csv(out / "newton_trace.csv", sol.residuals)
    summary = {"iterations": sol.iterations,
               "final_residual": float(sol.residuals[-1])}
    if band is not None:
        window = annulus_window(grid, *band)
        probes = [(f"g-{k}", _exterior_field(grid, [bump_spec]))
                  for k, bump_spec in enumerate(cfg["exterior_data"])]
        bank = build_cauchy_bank(grid, op, nl, probes, window, _newton(cfg))
        dump(bank_to_json(bank), out / "cauchy_bank.json")
        summary["bank_size"] = len(bank)
    return summary


def run_principles(cfg: dict, out: Path) -> dict:
    grid, op = _grid_and_operator(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    trials = int(cfg["trials"])
    ni, ne = grid.n_interior, grid.n_exterior
    rows = []
    failures = 0
    for trial in range(trials):
        a = rng.uniform(0.0, 1.0, ni)
        f = rng.uniform(0.0, 1.0, ni)
        ge = rng.uniform(0.0, 1.0, ne)
        g = Field.from_values(grid, _scatter(grid, ge))
        u = solve_linear(LinearProblem(op=op, a=a, f=f, g=g))
        min_u = float(np.min(u.interior_values))

        df = rng.uniform(0.0, 1.0, ni)
        dg = rng.uniform(0.0, 1.0, ne)
        g_hi = Field.from_values(grid, _scatter(grid, ge + dg))
        u_hi = solve_linear(LinearProblem(op=op, a=a, f=f + df, g=g_hi))
        ordered = check_comparison(u_hi, u)

        barrier = build_barrier(op, a)
        lhs, rhs, linf_ok = check_linf_bound(u, f, g, barrier)
        barrier_vals = op.apply(barrier.phi) + a * barrier.phi.interior_values
        barrier_ok = bool(np.min(barrier_vals) >= 1.0 - 1e-8)

        ok = (min_u >= -1e-10) and ordered and linf_ok and barrier_ok
        failures += 0 if ok else 1
        rows.append((trial, float(min_u), int(ordered), float(lhs), float(rhs),
                     int(linf_ok), float(barrier.big_c), int(barrier_ok)))
    write_csv(out / "principles.csv",
              ["trial", "min_u", "comparison_ok", "linf_lhs", "linf_rhs",
               "linf_ok", "barrier_C", "barrier_ok"], rows)
    return {"trials": trials, "failures": failures}


def _scatter(grid, exterior_values) -> np.ndarray:
    values = np.zeros(grid.n_nodes)
    values[grid.exterior_index] = exterior_values
    return values


def run_linearize(cfg: dict, out: Path) -> dict:
    grid, op = _grid_and_operator(cfg)
    nl = _nonlinearity(cfg)
    g = _exterior_field(grid, cfg["exterior_data"])
    h = _exterior_field(grid, cfg["probe_data"] or cfg["exterior_data"])
    study = linearization_study(op, nl, g, h, cfg["eta_schedule"], _newton(cfg))
    write_csv(out / "linearize.csv", ["eta", "e_l2", "e_sup", "converged"],
              [(float(e), float(l2), float(sup), int(conv))
               for e, l2, sup, conv in zip(study.etas, study.errors_l2,
                                           study.errors_sup, study.converged)])
    return {"etas": len(study.etas),
            "final_e_sup": float(study.errors_sup[-1])}


def run_recover(cfg: dict, out: Path) -> dict:
    band = _band(cfg)
    grid, op = _grid_and_operator(cfg)
    window = annulus_window(grid, *band)
    a_true = _profile_values(cfg["truth"], grid.interior_nodes)
    if np.any(a_true < 0):
        raise Validation("truth potential must be nonnegative")
    measurements = dn_map(op, a_true, window)
    noise = float(cfg["noise"])
    if noise > 0:
        rng = np.random.default_rng(int(cfg["seed"]))
        noisy = measurements.matrix * (1.0 + noise * rng.standard_normal(
            measurements.matrix.shape))
        measurements = type(measurements)(window=measurements.window,
                                          probes=measurements.probes,
                                          probe_ids=measurements.probe_ids,
                                          matrix=noisy)
    result = recover_potential(op, measurements, float(cfg["regularization"]))
    rel = (float(np.linalg.norm(result.a_estimate - a_true)
                 / max(np.linalg.norm(a_true), 1e-300)))
    header = (["x"] if grid.dim == 1 else ["x", "y"]) + ["a_true", "a_estimate"]
    rows = [tuple(map(float, p)) + (float(t), float(e))
            for p, t, e in zip(grid.interior_nodes, a_true, result.a_estimate)]
    write_csv(out / "recover.csv", header, rows)
    fitted = dn_map(op, result.a_estimate, window,
                    probes=list(zip(measurements.probe_ids, measurements.probes)))
    write_csv(out / "misfit.csv", ["probe", "misfit"],
              [(pid, float(np.linalg.norm(fitted.matrix[:, k]
                                          - measurements.matrix[:, k])))
               for k, pid in enumerate(measurements.probe_ids)])
    return {"misfit": result.misfit, "relative_l2_error": rel,
            "evaluations": result.n_evaluations,
            "inverse_crime": noise == 0.0}


def run_probe(cfg: dict, out: Path) -> dict:
    grid, op = _grid_and_operator(cfg)
    sizes = cfg.get("window_sweep")
    if not sizes:
        raise Validation("probe experiment needs window_sweep: [sizes...]")
    order = np.argsort(grid.domain.distance(grid.exterior_nodes), kind="stable")
    rows = []
    for size in sizes:
        size = int(size)
        if size < 1 or size > grid.n_exterior:
            raise Validation(f"window size {size} out of range")
        idx = np.sort(grid.exterior_index[order[:size]])
        window = Window(grid, idx)
        sigma = strong_uniqueness_probe(grid, op, window)
        rows.append((size, float(sigma)))
    write_csv(out / "probe.csv", ["window_size", "sigma_min"], rows)
    return {"windows": len(rows), "sigma_min_smallest": rows[-1][1]}


_RUNNERS = {
    "solve": run_solve,
    "forward": run_forward,
    "principles": run_principles,
    "linearize": run_linearize,
    "recover": run_recover,
    "probe": run_probe,
}


def _environment() -> dict:
    """Versions, BLAS build, *_NUM_THREADS variables and usable CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_variables": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
        "cpu_affinity": len(affinity(0)) if affinity else os.cpu_count(),
    }


def run(experiment: str, config_path: str, out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        cfg = _load_config(config_path)
        declared = cfg.get("experiment", experiment)
        if declared != experiment:
            raise Validation(
                f"config declares experiment {declared!r}, invoked as {experiment!r}")
        summary = _RUNNERS[experiment](cfg, out)
    except Exception as err:  # malformed configs can fail in arbitrary ways
        record = {"error": type(err).__name__, "message": str(err),
                  "experiment": experiment}
        dump(record, out / "error.json")
        print(json.dumps(record), file=sys.stderr)
        return 1 if isinstance(err, ToolkitError) else 2
    manifest = {
        "experiment": experiment,
        "config": cfg,
        "library_version": __version__,
        "environment": _environment(),
        "wall_clock_seconds": time.time() - started,
        "summary": summary,
    }
    dump(manifest, out / "manifest.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracschrod",
        description="Forward, principle-check, and inverse experiments for the "
                    "exterior-value fractional semilinear Schrodinger problem.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    return run(args.experiment, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
