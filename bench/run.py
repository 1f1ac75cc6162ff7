"""fracschrod benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload forward-2d|linear-1d|recover-1d
                         --seed N --seconds S --trace 0|1

Runs the workload repeatedly, each iteration in a fresh interpreter
(bench/worker.py), as a closed loop: the next iteration starts when the
previous one has ended, until --seconds have passed and at least
MIN_RUNS iterations (MIN_PAIRS pairs when tracing) are done.  Iteration i
draws its inputs from default_rng([seed, i]), so a seed fixes every input
of the run.  The workloads, and why each was chosen, are described in
bench/workloads.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
iterations of wall time, set-up time and peak RSS, and the p50/p90 of the
per-trial latency pooled over iterations.  --trace 1 alternates an
untraced and a traced iteration on the same inputs and reports the
per-layer metrics (medians over traced iterations) plus the tracing
overhead.  The line before the result records the environment, the
per-iteration steal ticks from /proc/stat, sample counts and accuracy
figures.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  A failed check or a raised
ToolkitError makes "correct" false; any other error exits nonzero without
a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE.parent / ".bench_out"
BENCHMARK = HERE.parent / "BENCHMARK.json"

MIN_RUNS = 3
MIN_PAIRS = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def metric_units(spec: dict, trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args, index: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--index", str(index), "--trace", str(trace),
           "--size", args.size, "--out", str(OUT / args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"iteration {index} did not finish in time") from err
    if proc.returncode != 0:
        raise BenchError(f"iteration {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[list[dict], list[dict]]:
    """Closed loop of iterations; returns (untraced, traced) records."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    plain, traced = [], []
    needed = MIN_PAIRS if args.trace else MIN_RUNS
    index = 0
    while True:
        began = time.monotonic()
        plain.append(run_worker(args, index, 0, deadline))
        if args.trace:
            traced.append(run_worker(args, index, 1, deadline))
        index += 1
        now = time.monotonic()
        if index >= needed and (now - start >= args.seconds
                                or now + (now - began) > deadline):
            return plain, traced


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(records: list[dict]) -> dict[str, float]:
    trials = [t for r in records for t in r["trial_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "trial_ms_p50": percentile(trials, 50),
        "trial_ms_p90": percentile(trials, 90),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None) -> int:
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' runs the same code at reduced size (self-test)")
    args = parser.parse_args(argv)

    try:
        plain, traced = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    records = plain + traced
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units(spec, args.trace).items()}
    failures = [f for r in records for f in r["failures"]]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": len(plain), "traced_iterations": len(traced),
        "trial_samples": sum(len(r["trial_ms"]) for r in plain),
        "wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "steal_ticks": [r["steal_ticks"] for r in records],
        "accuracy": [r["accuracy"] for r in records],
        "failures": failures,
        "env": records[0]["env"],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
