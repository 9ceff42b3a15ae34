"""Print the sha256 table of every preset's records, for checking that a change keeps them.

Run from anywhere in a checkout of the repository:

    python3 scripts/record_hashes.py            # seeds 0, 1 and 2
    python3 scripts/record_hashes.py --seeds 0 3
    python3 scripts/record_hashes.py --override method=constant --override base_lr=3e-3

Each preset in ``configs/`` runs once per seed through ``run_experiment``
and ``emit_metrics`` into a temporary directory. The output is a markdown
table with the first 16 hex digits of the sha256 of ``metrics.jsonl``,
``probes.jsonl`` and ``summary.json``, one row per ``<preset>-s<seed>``,
sorted by preset and seed. Two checkouts whose tables match wrote
byte-identical records. Each ``--override KEY=VALUE`` changes every preset
as ``hidlr run --override`` does (the seed still comes from ``--seeds``); a
run that fails with a package error prints ``error: <message>`` in its row.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hidlr.errors import HidlrError  # noqa: E402
from hidlr.harness.config import (  # noqa: E402
    apply_overrides,
    config_from_dict,
    load_config_dict,
)
from hidlr.harness.metrics import emit_metrics  # noqa: E402
from hidlr.harness.runner import run_experiment  # noqa: E402

RECORD_FILES = ("metrics", "probes", "summary")


def record_hashes(preset: Path, seed: int, out_dir: Path, overrides=()) -> list[str]:
    raw = apply_overrides(load_config_dict(preset), overrides)
    raw["seed"] = seed
    paths = emit_metrics(run_experiment(config_from_dict(raw)), out_dir)
    return [hashlib.sha256(paths[name].read_bytes()).hexdigest()[:16] for name in RECORD_FILES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="dotted config override applied to every preset (repeatable)",
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # presets name their data files relative to the repository root
    print("| run | " + " | ".join(RECORD_FILES) + " |")
    print("| --- |" + " --- |" * len(RECORD_FILES))
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted(Path("configs").glob("*.yaml")):
            for seed in sorted(args.seeds):
                run = f"{preset.stem}-s{seed}"
                try:
                    hashes = record_hashes(preset, seed, Path(tmp) / run, args.override)
                except HidlrError as exc:
                    hashes = [f"error: {exc}"]
                print(f"| {run} | " + " | ".join(hashes) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
