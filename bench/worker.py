"""One iteration of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --index I --trace 0|1
                            --size full|small --out DIR

Imports fracschrod from the checkout's src/ (never from site-packages),
runs the workload on inputs drawn from default_rng([seed, index]), and
prints one JSON object: timings, peak RSS, checks, accuracy figures, the
environment, and with --trace 1 the per-layer figures of bench/tracer.py.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def steal_ticks() -> int:
    """Cumulative 'steal' column of the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    steal_before = steal_ticks()

    if not (SRC / "fracschrod" / "__init__.py").is_file():
        print(f"no fracschrod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import fracschrod
    imported = time.perf_counter()

    import numpy as np
    import tracer as tracing
    from workloads import ACCURACY, SIZES, WORKLOADS, Ledger

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(fracschrod)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    rng = np.random.default_rng([args.seed, args.index])
    WORKLOADS[args.workload](SIZES[args.workload][args.size], rng, out, ledger)
    finished = time.perf_counter()

    record = {
        "wall_s": finished - started,
        "setup_s": ledger.setup_end - started,
        "peak_rss_mb": tracing.peak_rss_mib(),
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "trial_ms": ledger.trial_ms,
        "accuracy": ledger.accuracy,
        "steal_ticks": steal_ticks() - steal_before,
        "env": environment(),
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, imported - started)
        record["layers"].update((k, ledger.accuracy.get(k, 0.0)) for k in ACCURACY)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
