"""Command-line entry point.

Subcommands: ``run`` (train per a config file), ``diag`` (truth-vs-prediction
table at initialization), ``list-problems``, and ``budget`` (loss-call count
for T/K/phi, plus one call per refresh with ``--fresh-probe-batch``). Exit
codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import controller
from ..errors import HidlrError, ParseError, ValidationError
from ..optim import OptimizerState, direction
from ..problems import PROBLEM_NAMES
from .config import apply_overrides, config_from_dict, load_config_dict
from .diagnostics import pooled_r2_from_rows, taylor_diagnostics
from .metrics import emit_metrics, write_jsonl
from .runner import check_dataset_settings, run_experiment, set_up_run

CONFIG_ERROR, RUNTIME_ERROR = 1, 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidlr",
        description="Train with curvature-probed per-group learning rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run the experiment described by a config file"),
        ("diag", "tabulate measured vs predicted loss changes at init"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML experiment config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory for metrics files")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set a config entry, e.g. hidlr.phi=4 (repeatable)",
        )

    sub.add_parser("list-problems", help="list the available problems")

    b = sub.add_parser("budget", help="loss-call budget for T steps, K groups")
    b.add_argument("steps", type=int, help="number of training steps T")
    b.add_argument("groups", type=int, help="number of parameter groups K")
    b.add_argument("phi", type=int, help="refresh period")
    b.add_argument(
        "--fresh-probe-batch",
        action="store_true",
        help="each refresh probes on a freshly drawn batch (one more loss call)",
    )
    return parser


def _load_cfg(args):
    raw = load_config_dict(args.config)
    raw = apply_overrides(raw, args.override)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    return config_from_dict(raw)


def _default_out(cfg) -> Path:
    return Path("runs") / f"{cfg.problem}-{cfg.method}-s{cfg.seed}"


def _cmd_run(cfg) -> int:
    record = run_experiment(cfg)
    out = Path(cfg.out_dir) if cfg.out_dir else _default_out(cfg)
    paths = emit_metrics(record, out)
    final = record.summary.get("final", {})
    bits = [f"{k}={v:.6g}" for k, v in final.items() if isinstance(v, float)]
    if "grid" in record.summary:
        g = record.summary["grid"]
        bits.append(f"best_lr={g['best_lr']:.6g}")
    print(f"wrote {paths['summary']}" + ("  " + "  ".join(bits) if bits else ""))
    return 0


def _cmd_diag(cfg) -> int:
    problem, layout, w, _, _ = set_up_run(cfg)
    check_dataset_settings(problem, cfg, cfg.hidlr)
    opt = OptimizerState.create(cfg.optimizer, problem.dim, **cfg.optimizer_params)
    d = direction(opt, problem.grad(w), w)

    eta0 = cfg.hidlr.initial_lr(layout.k)
    eta_grid = sorted(float(v) * float(eta0.max()) for v in controller.PROBE_MULTIPLIERS)
    rows = taylor_diagnostics(problem, w, d, layout, eta_grid)
    r2 = pooled_r2_from_rows(rows)

    out = Path(cfg.out_dir) if cfg.out_dir else _default_out(cfg)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "diagnostics.jsonl"
    write_jsonl(path, rows)
    print(f"wrote {path}  pooled_r2={r2:.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-problems":
        for name in PROBLEM_NAMES:
            print(name)
        return 0
    if args.command == "budget":
        try:
            print(
                controller.forward_pass_budget(
                    args.steps, args.groups, args.phi, int(args.fresh_probe_batch)
                )
            )
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return CONFIG_ERROR
        return 0

    try:
        cfg = _load_cfg(args)
    except (ParseError, ValidationError, FileNotFoundError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR

    try:
        if args.command == "diag":
            return _cmd_diag(cfg)
        return _cmd_run(cfg)
    except HidlrError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
