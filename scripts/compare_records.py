"""Compare every preset's records and diagnostics between two checkouts, with one verdict.

Run from anywhere, naming the two checkouts (the parent first):

    python3 scripts/compare_records.py ../parent .            # seeds 0, 1 and 2
    python3 scripts/compare_records.py ../parent . --seeds 0 3
    python3 scripts/compare_records.py ../parent . --override method=hiulr

Each preset in the first checkout's ``configs/`` runs once per seed in each
checkout through that checkout's own CLI (its ``src`` on the path, the
checkout as working directory): ``hidlr run``, ``hidlr diag`` and ``hidlr
diag --override method=hiulr``, each with every ``--override`` given here.
A row per ``<preset>-s<seed>`` has a cell per file (the three records, the two
diagnostics): its 16-hex sha256 prefix when both sides wrote the same bytes,
``a → b`` when they differ, or the last stderr line of a failed command; then
whether the accept/reject sequences of the refreshes are identical, and the
largest relative difference among the summary's ``final`` values.

The last line is the verdict, exit 0: ``IDENTICAL`` (every file byte-equal;
a command failing with the same line on both sides counts as equal), or
``DIFFERENT`` (sequences identical, final values within 1e-9). Or exit 1,
``FAIL``: a sequence differs, a final value moves by more than 1e-9, or a
command fails on one side only or differently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RTOL = 1e-9  # final values may move in the last bits, not more
# (command, extra overrides, {table cell: file the command writes})
COMMANDS = (
    ("run", (), {"metrics": "metrics.jsonl", "probes": "probes.jsonl",
                 "summary": "summary.json"}),
    ("diag", (), {"diag": "diagnostics.jsonl"}),
    ("diag", ("method=hiulr",), {"diag hiulr": "diagnostics.jsonl"}),
)
CELLS = [name for *_, files in COMMANDS for name in files]


def run_outputs(checkout: Path, preset: str, seed: int, overrides, out: Path) -> dict:
    """Cell -> the bytes of its file, or the last stderr line (a str) of a failed command."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    found = {}
    for i, (command, extra, files) in enumerate(COMMANDS):
        out_dir = out / str(i)
        argv = [sys.executable, "-m", "hidlr.harness.cli", command, f"configs/{preset}.yaml",
                "--seed", str(seed), "--out", str(out_dir)]
        for item in (*overrides, *extra):
            argv += ["--override", item]
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
        error = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        for name, file in files.items():
            found[name] = error if proc.returncode else (out_dir / file).read_bytes()
    return found


def rel_diff(a, b) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values, inf when only one is missing."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def sequence_and_final(outputs: dict) -> tuple[list, dict]:
    """(accept/reject sequence of the refreshes, summary ``final``) of a run that wrote both."""
    rows = (json.loads(line) for line in outputs["probes"].splitlines())
    sequence = [(row["t"], row["accepted"]) for row in rows if row["kind"] == "refresh"]
    return sequence, json.loads(outputs["summary"])["final"]


def cell(value) -> str:
    return hashlib.sha256(value).hexdigest()[:16] if isinstance(value, bytes) else value


def compare(a: dict, b: dict) -> tuple[list[str], int, list[str]]:
    """(table cells, number of differing files, failure reasons) for one run in two trees."""
    cells = [cell(a[n]) if a[n] == b[n] else f"{cell(a[n])} → {cell(b[n])}" for n in CELLS]
    differing = sum(a[n] != b[n] for n in CELLS)
    failed = [n for n in CELLS if a[n] != b[n] and str in (type(a[n]), type(b[n]))]
    failures = [f"{', '.join(failed)} failed"] if failed else []
    if str in {type(side[n]) for side in (a, b) for n in ("probes", "summary")}:
        return [*cells, "-", "-", "-"], differing, failures
    (seq_a, final_a), (seq_b, final_b) = sequence_and_final(a), sequence_and_final(b)
    keys = final_a.keys() | final_b.keys()
    worst = max((rel_diff(final_a.get(k), final_b.get(k)) for k in keys), default=0.0)
    if seq_a != seq_b:
        failures.append("accept/reject sequence differs")
    if worst > RTOL:
        failures.append(f"final values differ by {worst:.3g}")
    same = "identical" if seq_a == seq_b else "DIFFERENT"
    return [*cells, str(len(seq_a)), same, f"{worst:.3g}"], differing, failures


def verdict(differing: int, total: int, failures: list[str]) -> str:
    if failures:
        return "FAIL: " + "; ".join(failures)
    if differing:
        return (f"DIFFERENT: {differing} of {total} files, sequences identical, "
                f"final values within {RTOL:g}")
    return "IDENTICAL"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first checkout (the parent)")
    parser.add_argument("b", type=Path, help="second checkout (the change)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="dotted config override applied to every command (repeatable)",
    )
    args = parser.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    header = ["run", *CELLS, "refreshes", "accept/reject sequence", "max rel diff of final"]
    print("| " + " | ".join(header) + " |")
    print("| " + " | ".join(["---"] * len(header)) + " |")
    runs = [(p.stem, seed) for p in sorted((a / "configs").glob("*.yaml"))
            for seed in sorted(args.seeds)]
    differing, failures = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for preset, seed in runs:
            run = f"{preset}-s{seed}"
            cells, n, why = compare(
                run_outputs(a, preset, seed, args.override, Path(tmp) / "a" / run),
                run_outputs(b, preset, seed, args.override, Path(tmp) / "b" / run),
            )
            print(f"| {run} | " + " | ".join(cells) + " |", flush=True)
            differing += n
            failures += [f"{run} {reason}" for reason in why]
    print(verdict(differing, len(runs) * len(CELLS), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
