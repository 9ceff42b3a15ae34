"""Time one preset's runs and count the minor page faults each one takes.

Run from anywhere in a checkout of the repository:

    python3 scripts/page_faults.py nam-synthetic --runs 9
    python3 scripts/page_faults.py nam-synthetic --runs 9 \\
        --override epochs=10 --override method=constant --override base_lr=3e-3

``PRESET`` names a file ``configs/<PRESET>.yaml``; each ``--override
KEY=VALUE`` changes it as ``hidlr run --override`` does. The preset runs
``--runs`` times, one after another in this fresh process, each through
``run_experiment`` (problem build included) and ``emit_metrics`` into a
temporary directory. For each run the script prints its wall time and the
minor page faults it took, read from this process's own
``resource.getrusage(RUSAGE_SELF)`` counters, then the medians of both.
BLAS runs on one thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
sys.path.insert(0, str(ROOT / "src"))

from hidlr.harness.config import (  # noqa: E402
    apply_overrides,
    config_from_dict,
    load_config_dict,
)
from hidlr.harness.metrics import emit_metrics  # noqa: E402
from hidlr.harness.runner import run_experiment  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset", help="name of a file configs/<PRESET>.yaml")
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="dotted config override (repeatable)",
    )
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    os.chdir(ROOT)  # presets name their data files relative to the repository root
    cfg = config_from_dict(
        apply_overrides(load_config_dict(Path("configs") / f"{args.preset}.yaml"), args.override)
    )
    seconds, faults = [], []
    print("| run | wall s | minor faults |")
    print("| ---: | ---: | ---: |")
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.runs):
            f0, t0 = minor_faults(), time.perf_counter()
            emit_metrics(run_experiment(cfg), Path(tmp) / str(i))
            seconds.append(time.perf_counter() - t0)
            faults.append(minor_faults() - f0)
            print(f"| {i} | {seconds[-1]:.4f} | {faults[-1]} |", flush=True)
    print(
        f"median over {args.runs} runs: {statistics.median(seconds):.4f} s, "
        f"{statistics.median(faults):g} minor faults"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
