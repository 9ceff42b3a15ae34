"""Print sha256 tables of every preset's records and diagnostics, to check a change keeps them.

Run from anywhere in a checkout of the repository:

    python3 scripts/record_hashes.py            # seeds 0, 1 and 2
    python3 scripts/record_hashes.py --seeds 0 3
    python3 scripts/record_hashes.py --override method=constant --override base_lr=3e-3

Each preset in ``configs/`` runs once per seed through ``run_experiment``
and ``emit_metrics`` into a temporary directory. The output is a markdown
table with the first 16 hex digits of the sha256 of ``metrics.jsonl``,
``probes.jsonl`` and ``summary.json``, one row per ``<preset>-s<seed>``,
sorted by preset and seed. A second table has, for the same rows, the
hashes of the ``diagnostics.jsonl`` that ``hidlr diag`` writes, with the
config's method and with ``method=hiulr``. Two checkouts whose tables match
wrote byte-identical records and diagnostics. Each ``--override KEY=VALUE``
changes every preset as ``hidlr run --override`` does (the seed still comes
from ``--seeds``), diagnostics included; a run that fails with a package
error prints ``error: <message>`` in its row, and a failed ``hidlr diag``
prints its error line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hidlr.errors import HidlrError  # noqa: E402
from hidlr.harness import cli  # noqa: E402
from hidlr.harness.config import (  # noqa: E402
    apply_overrides,
    config_from_dict,
    load_config_dict,
)
from hidlr.harness.metrics import emit_metrics  # noqa: E402
from hidlr.harness.runner import run_experiment  # noqa: E402

RECORD_FILES = ("metrics", "probes", "summary")
# Columns of the diagnostics table: ``hidlr diag`` with these extra overrides.
DIAG_RUNS = (("diag", ()), ("diag hiulr", ("method=hiulr",)))


def sha16(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def record_hashes(preset: Path, seed: int, out_dir: Path, overrides=()) -> list[str]:
    raw = apply_overrides(load_config_dict(preset), overrides)
    raw["seed"] = seed
    paths = emit_metrics(run_experiment(config_from_dict(raw)), out_dir)
    return [sha16(paths[name]) for name in RECORD_FILES]


def diag_hash(preset: Path, seed: int, out_dir: Path, overrides=()) -> str:
    """Hash of the ``diagnostics.jsonl`` ``hidlr diag`` writes, or its error line."""
    argv = ["diag", str(preset), "--seed", str(seed), "--out", str(out_dir)]
    for item in overrides:
        argv += ["--override", item]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return err.getvalue().strip() if code else sha16(out_dir / "diagnostics.jsonl")


def print_row(run: str, cells) -> None:
    print(f"| {run} | " + " | ".join(cells) + " |", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="dotted config override applied to every preset (repeatable)",
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # presets name their data files relative to the repository root
    runs = [
        (preset, seed, f"{preset.stem}-s{seed}")
        for preset in sorted(Path("configs").glob("*.yaml"))
        for seed in sorted(args.seeds)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        print_row("run", RECORD_FILES)
        print_row("---", ["---"] * len(RECORD_FILES))
        for preset, seed, run in runs:
            try:
                hashes = record_hashes(preset, seed, Path(tmp) / run, args.override)
            except HidlrError as exc:
                hashes = [f"error: {exc}"]
            print_row(run, hashes)
        print()
        print_row("run", [name for name, _ in DIAG_RUNS])
        print_row("---", ["---"] * len(DIAG_RUNS))
        for preset, seed, run in runs:
            print_row(run, [
                diag_hash(preset, seed, Path(tmp) / run / name, [*args.override, *extra])
                for name, extra in DIAG_RUNS
            ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
