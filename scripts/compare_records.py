"""Compare every preset's records between two checkouts, for a change that moves them in the last bits.

Run from anywhere, naming the two checkouts (the parent first):

    python3 scripts/compare_records.py ../parent .            # seeds 0, 1 and 2
    python3 scripts/compare_records.py ../parent . --seeds 0 3

Each preset in the first checkout's ``configs/`` runs once per seed in each
checkout, through that checkout's own ``hidlr run`` (``python3 -m
hidlr.harness.cli`` with its ``src`` on the path) into a temporary
directory. For each ``<preset>-s<seed>`` the script prints whether the
accept/reject sequence of the refreshes in ``probes.jsonl`` is identical,
and the largest relative difference among the ``final`` values of
``summary.json``. It exits 1 if any sequence differs or any relative
difference exceeds 1e-9, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RTOL = 1e-9  # final values may move in the last bits, not more


def run_preset(checkout: Path, preset: str, seed: int, out_dir: Path) -> tuple[list, dict]:
    """(accept/reject sequence, summary ``final``) of one run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [
        sys.executable, "-m", "hidlr.harness.cli", "run", f"configs/{preset}.yaml",
        "--seed", str(seed), "--out", str(out_dir),
    ]
    subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True)
    sequence = []
    with open(out_dir / "probes.jsonl") as fh:
        for line in fh:
            row = json.loads(line)
            if row["kind"] == "refresh":
                sequence.append((row["t"], row["accepted"]))
    final = json.loads((out_dir / "summary.json").read_text())["final"]
    return sequence, final


def rel_diff(a, b) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values, inf when only one is missing."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first checkout (the parent)")
    parser.add_argument("b", type=Path, help="second checkout (the change)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    presets = sorted(p.stem for p in (a / "configs").glob("*.yaml"))
    failed = False
    print("| run | refreshes | accept/reject sequence | max rel diff of final |")
    print("| --- | ---: | --- | ---: |")
    with tempfile.TemporaryDirectory() as tmp:
        for preset in presets:
            for seed in sorted(args.seeds):
                run = f"{preset}-s{seed}"
                seq_a, final_a = run_preset(a, preset, seed, Path(tmp) / "a" / run)
                seq_b, final_b = run_preset(b, preset, seed, Path(tmp) / "b" / run)
                same = seq_a == seq_b
                keys = final_a.keys() | final_b.keys()
                worst = max(
                    (rel_diff(final_a.get(k), final_b.get(k)) for k in keys), default=0.0
                )
                failed |= not same or worst > RTOL
                print(f"| {run} | {len(seq_a)} | {'identical' if same else 'DIFFERENT'} "
                      f"| {worst:.3g} |", flush=True)
    print("FAIL" if failed else f"OK: sequences identical, final values within {RTOL:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
