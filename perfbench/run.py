#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-128 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with only an epoch-boundary
timestamp and an expert counter installed; ``--trace 1`` is a separate run
that records a span at each layer boundary and reports the per-layer
metrics.  Human-readable lines and one metadata line come first; the last
line of standard output is the JSON result.  The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the program under
test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the Python-level scan loops dominate, and a second thread
# only adds a second core's contention to every matrix product.
BLAS_THREADS = 1


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "huge_pages": False,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np

    # numpy asks for huge pages for every array of 4 MiB and more, and
    # whether the kernel has one to give depends on the host's memory.  In
    # one process alternating the two settings, train-128 epochs spread
    # 933-1390 ms with huge pages and 972-1134 ms without.
    np._core.multiarray._set_madvise_hugepage(False)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import mambamoe  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench import metrics, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    runner = workloads.Runner(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), str(ROOT))
    res = runner.run()

    names = [name for name, _, _ in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    for name in names:
        if name in res.metrics:
            print(f"{args.workload:<10} {name:<32} {res.metrics[name]:14.4f} {metrics.UNITS[name]}")
    error_rate = res.failed / max(res.attempted, 1)
    print(f"{args.workload:<10} {'error_rate':<32} {error_rate:14.4f} fraction ({res.failed}/{res.attempted})")
    meta = run_metadata(args) | res.meta
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": res.metrics[n], "unit": metrics.UNITS[n]} for n in names if n in res.metrics},
    }
    print(json.dumps(result))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
