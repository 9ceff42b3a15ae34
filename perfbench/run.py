"""Benchmark of hidlr training runs, end to end and split by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload nam-hidlr --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. See
perfbench/README.md for the workloads and what each metric means.

This file only prepares the process: it pins the BLAS thread count before
numpy is first imported and puts the checkout's ``src`` on the import path.
Outside a checkout (no ``src/hidlr`` or ``configs``) it exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, for steady figures: on a 2-core machine the multitask
# preset ran in 2.17-2.37 s with one OpenBLAS thread and 1.80-3.02 s with two.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("nam-hidlr", "nam-constant", "multitask-hidlr", "lora-hidlr")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    needed = (ROOT / "src" / "hidlr" / "__init__.py", ROOT / "configs")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(
            f"error: {', '.join(missing)} not found under {ROOT}; "
            "run the benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import bench  # imports numpy, so only after the thread count is set

    return bench.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
