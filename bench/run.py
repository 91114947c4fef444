"""Benchmark entry point: one run of one workload, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload sparse-small --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing instrumented.
`--trace 1` alternates untraced and traced cycles, reports the per-layer
metrics from the spans and writes the spans to `.bench_traces/`. The last
stdout line is the result: `correct`, `attempted`, `failed`, `metrics`.
The line before it stamps the environment. The exit code is 0 when a
result was printed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" where git or `.git` is missing. The
    `.git` check keeps git from reporting an enclosing repository's HEAD."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "meed", "__init__.py")):
        print(f"error: no meed package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:   # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]

    tic = time.perf_counter()
    import meed
    import workloads
    import_s = time.perf_counter() - tic
    if os.path.dirname(os.path.abspath(meed.__file__)) != os.path.join(SRC, "meed"):
        print(f"error: imported meed from {meed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp")
    with workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                       scratch) as run:
        if args.trace:
            spans = os.path.join(ROOT, ".bench_traces", f"{args.workload}.tsv")
            result = run.trace(spans)
        else:
            result = run.measure(import_s)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "run": run.info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
