"""Batch experiment driver.

Subcommands: solve | forward | principles | linearize | recover | probe,
each taking --config <path> (a JSON document) and --out <dir>.  Every run
writes manifest.json with the fully resolved configuration (the Newton
settings in full), the library version, the environment (python, numpy
and scipy versions, both BLAS builds, thread variables, usable CPUs) and
wall-clock time, next to experiment-specific CSV files whose numeric
content is byte-identical across runs for a fixed config and seed and BLAS
thread count (with OPENBLAS_NUM_THREADS=1 the getoor solve/ values move by
up to 7.33e-15 from the two-thread run).  Failures exit nonzero and leave
a machine-readable error record naming the error class.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .calderon import (
    LINEARIZATION_NEWTON,
    dn_map,
    linearization_study,
    recover_potential,
    strong_uniqueness_probe,
)
from .cauchy import bank_to_json, build_cauchy_bank
from .errors import ConfigParse, ToolkitError, Validation
from .fraclap import assemble
from .grid import (_AXES, Domain, Field, Region, Window, annulus_window, build_grid,
                   c3_bump, sample_function)
from .nonlinearity import catalogue
from .serialize import dump, write_csv
from .solver import (
    LinearProblem,
    NewtonConfig,
    _finite_real,
    _full_field,
    build_barrier,
    check_comparison,
    check_linf_bound,
    solve_linear,
    solve_semilinear,
    solution_to_csv,
    trace_to_csv,
)

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


def _finite(literal: str) -> float:
    """A JSON number or NaN/Infinity constant, refused unless finite."""
    value = float(literal)
    if not np.isfinite(value):
        raise Validation(f"config number {literal} is not finite")
    return value


def _integer(literal: str) -> int:
    """A JSON integer, refused unless a float can hold it."""
    if not np.isfinite(float(literal)):
        raise Validation(
            f"config integer {literal[:20]}... is beyond the float range")
    return int(literal)


def _whole(value, key: str, low: int | None = None) -> int:
    """A config number as an int, refused unless integral and at least low
    (int() would truncate 2.5 to 2, and a negative trial count runs none)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise Validation(f"config {key} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise Validation(f"config {key} must be at least {low}, got {value}")
    return int(value)


def _nonnegative(value, key: str) -> float:
    """A config number as a float, refused unless real, finite and at least
    0 (a negative noise level ran noiseless, and true ran as 1)."""
    number = _finite_real(value)
    if number is None or number < 0:
        raise Validation(f"config {key} must be a nonnegative number, got {value!r}")
    return number


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_finite, parse_float=_finite,
                            parse_int=_integer)
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


def _profile_values(spec: dict, grid) -> np.ndarray:
    """The profile at the interior nodes."""
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return np.full(grid.n_interior, float(spec.get("value", 0.0)))
    if kind == "bumps":
        return _bump_field(grid, spec.get("bumps", []), Region.INTERIOR).interior_values
    raise Validation(f"unknown profile kind {kind!r}")


def _bump_field(grid, bumps: list, region: Region = Region.EXTERIOR) -> Field:
    """The sum of the bumps' fields, each sampled on region."""
    total = np.zeros(grid.n_nodes)
    for b in bumps:
        try:
            f = c3_bump(b["center"], float(b["width"]), float(b.get("amplitude", 1.0)))
        except (KeyError, TypeError, ValueError) as err:
            raise Validation(f"bad bump spec: {err}") from err
        total += sample_function(grid, f, region).values
    return Field.from_values(grid, total)


def _band(cfg) -> tuple[float, float]:
    """The window's distance band (inner, outer), read before any work."""
    spec = cfg.get("window")
    if not isinstance(spec, dict):
        raise Validation("config needs a window object {inner, outer}")
    try:
        return float(spec["inner"]), float(spec["outer"])
    except (KeyError, TypeError, ValueError) as err:
        raise Validation(f"bad window spec: {err}") from err


def _newton(cfg, default: NewtonConfig) -> NewtonConfig:
    """The newton object's keys over the experiment's default, as a
    NewtonConfig, which checks its values; cfg records the settings in full."""
    spec = cfg["newton"]
    names = {field.name for field in fields(NewtonConfig)}
    if not isinstance(spec, dict) or not set(spec) <= names:
        raise Validation(f"config newton must be an object with keys among "
                         f"{sorted(names)}, got {spec!r}")
    newton = replace(default, **spec)
    cfg["newton"] = asdict(newton)
    return newton


def _nonlinearity(cfg):
    spec = cfg.get("nonlinearity", {"name": "zero"})
    return catalogue(spec.get("name", "zero"), spec.get("a", 1.0))


def run_solve(cfg: dict, out: Path) -> dict:
    grid, op = _grid_and_operator(cfg)
    a = _profile_values(cfg["potential"], grid)
    f = _profile_values(cfg["source"], grid)
    g = _bump_field(grid, cfg["exterior_data"])
    u = solve_linear(LinearProblem(op=op, a=a, f=f, g=g))
    solution_to_csv(out / "solution.csv", u)
    return {"nodes": grid.n_nodes,
            "max_abs_u": float(np.max(np.abs(u.interior_values)))}


def run_forward(cfg: dict, out: Path) -> dict:
    band = _band(cfg) if cfg.get("window") is not None else None
    newton = _newton(cfg, NewtonConfig())
    grid, op = _grid_and_operator(cfg)
    nl = _nonlinearity(cfg)
    g = _bump_field(grid, cfg["exterior_data"])
    sol = solve_semilinear(op, nl, g, newton)
    solution_to_csv(out / "solution.csv", sol.u)
    trace_to_csv(out / "newton_trace.csv", sol.residuals)
    summary = {"iterations": sol.iterations,
               "cg_iterations": list(sol.cg_iterations),
               "final_residual": float(sol.residuals[-1])}
    if band is not None:
        window = annulus_window(grid, *band)
        probes = [(f"g-{k}", _bump_field(grid, [bump_spec]))
                  for k, bump_spec in enumerate(cfg["exterior_data"])]
        bank = build_cauchy_bank(op, nl, probes, window, newton)
        dump(bank_to_json(bank), out / "cauchy_bank.json")
        summary["bank_size"] = len(bank)
        summary["bank_cg_iterations"] = {d.provenance: list(d.cg_iterations)
                                         for d in bank}
    return summary


def run_principles(cfg: dict, out: Path) -> dict:
    rng = np.random.default_rng(_whole(cfg["seed"], "seed", 0))
    trials = _whole(cfg["trials"], "trials", 0)
    grid, op = _grid_and_operator(cfg)
    ni, ne = grid.n_interior, grid.n_exterior
    rows = []
    failures = 0
    for trial in range(trials):
        a = rng.uniform(0.0, 1.0, ni)
        f = rng.uniform(0.0, 1.0, ni)
        ge = rng.uniform(0.0, 1.0, ne)
        g = _full_field(grid, np.zeros(ni), ge)
        u = solve_linear(LinearProblem(op=op, a=a, f=f, g=g))
        min_u = float(np.min(u.interior_values))

        df = rng.uniform(0.0, 1.0, ni)
        dg = rng.uniform(0.0, 1.0, ne)
        g_hi = _full_field(grid, np.zeros(ni), ge + dg)
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


def run_linearize(cfg: dict, out: Path) -> dict:
    newton = _newton(cfg, LINEARIZATION_NEWTON)
    grid, op = _grid_and_operator(cfg)
    nl = _nonlinearity(cfg)
    g = _bump_field(grid, cfg["exterior_data"])
    h = _bump_field(grid, cfg["probe_data"] or cfg["exterior_data"])
    study = linearization_study(op, nl, g, h, cfg["eta_schedule"], newton)
    write_csv(out / "linearize.csv", ["eta", "e_l2", "e_sup", "converged"],
              [(float(e), float(l2), float(sup), int(conv))
               for e, l2, sup, conv in zip(study.etas, study.errors_l2,
                                           study.errors_sup, study.converged)])
    return {"etas": len(study.etas),
            "final_e_sup": float(study.errors_sup[-1])}


def run_recover(cfg: dict, out: Path) -> dict:
    band = _band(cfg)
    seed = _whole(cfg["seed"], "seed", 0)
    noise = _nonnegative(cfg["noise"], "noise")
    lambda_reg = _nonnegative(cfg["regularization"], "regularization")
    grid, op = _grid_and_operator(cfg)
    window = annulus_window(grid, *band)
    a_true = _profile_values(cfg["truth"], grid)
    measurements = dn_map(op, a_true, window)
    if noise > 0:
        rng = np.random.default_rng(seed)
        measurements = replace(measurements, matrix=measurements.matrix * (
            1.0 + noise * rng.standard_normal(measurements.matrix.shape)))
    result = recover_potential(op, measurements, lambda_reg)
    rel = (float(np.linalg.norm(result.a_estimate - a_true)
                 / max(np.linalg.norm(a_true), 1e-300)))
    header = [*_AXES[:grid.dim], "a_true", "a_estimate"]
    rows = np.column_stack((grid.interior_nodes, a_true, result.a_estimate)).tolist()
    write_csv(out / "recover.csv", header, rows)
    write_csv(out / "misfit.csv", ["probe", "misfit"],
              [(pid, float(np.linalg.norm(result.fitted.matrix[:, k]
                                          - measurements.matrix[:, k])))
               for k, pid in enumerate(measurements.probe_ids)])
    return {"misfit": result.misfit, "relative_l2_error": rel,
            "evaluations": result.n_evaluations, "iterations": result.iterations,
            "damping": result.damping, "stop": result.stop,
            "gradient_norm": result.gradient_norm,
            "inverse_crime": noise == 0.0}


def run_probe(cfg: dict, out: Path) -> dict:
    sizes = cfg.get("window_sweep")
    if not sizes:
        raise Validation("probe experiment needs window_sweep: [sizes...]")
    sizes = [_whole(size, "window_sweep entry") for size in sizes]
    grid, op = _grid_and_operator(cfg)
    order = np.argsort(grid.domain.distance(grid.exterior_nodes), kind="stable")
    rows = []
    for size in sizes:
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
EXPERIMENTS = tuple(_RUNNERS)


def _blas_build(module) -> dict:
    """Name and version of the BLAS a module was built against."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26, scipy before 1.11
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _environment() -> dict:
    """Versions, the BLAS builds of numpy and scipy (each brings its own
    OpenBLAS), the OpenBLAS thread variables (null when unset; the timeout
    moves timings but no output) and any other *_NUM_THREADS set, and the
    usable CPU count."""
    names = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT",
             *(k for k in os.environ if k.endswith("_NUM_THREADS"))}
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
        "thread_variables": {k: os.environ.get(k) for k in sorted(names)},
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
