"""The training loop for every method, with exact loss-call accounting.

A run produces a RunRecord: per-evaluation metric rows, per-refresh probe
diagnostics, and a summary. Records deliberately do not name the method
that produced them — the single-group controller run and the dedicated
``hiulr`` method are required to produce identical records, and anything
method-specific in the output would break that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..controller import LrState, hidlr_step, initial_lr_state
from ..errors import HidlrError, ValidationError
from ..linalg import spawn_rngs
from ..optim import (
    SCHEDULER_KINDS,
    OptimizerState,
    default_toy_grid,
    grid_search,
    scheduler_lr,
)
from ..problems import build_problem, group_params
from ..problems.base import LossProblem
from .config import ExperimentConfig
from .metrics import RefreshLog, clean, dump_line


class CountingProblem:
    """Transparent wrapper that counts loss/grad calls by channel.

    Test-set evaluations (one per ``test_metrics`` call that gives metrics)
    land in a separate counter, so the training-path budget can be audited
    exactly.
    """

    def __init__(self, inner: LossProblem):
        self.inner = inner
        self.train_loss_calls = 0
        self.eval_loss_calls = 0
        self.grad_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def loss(self, w, batch=None):
        self.train_loss_calls += 1
        return self.inner.loss(w, batch)

    def probe_losses(self, w, d, layout, xi, batch=None, l0=None):
        """Count a computed anchor as one loss call and each probe as one more."""
        anchor, losses = self.inner.probe_losses(w, d, layout, xi, batch, l0)
        self.train_loss_calls += (l0 is None) + losses.size
        return anchor, losses

    def grad(self, w, batch=None):
        self.grad_calls += 1
        return self.inner.grad(w, batch)

    def loss_and_grad(self, w, batch=None):
        """One training loss and one gradient, however the problem fuses them."""
        self.train_loss_calls += 1
        self.grad_calls += 1
        return self.inner.loss_and_grad(w, batch)

    def test_metrics(self, w):
        """Count one test-set forward per call that gives metrics."""
        metrics = self.inner.test_metrics(w)
        if metrics is not None:
            self.eval_loss_calls += 1
        return metrics


@dataclass
class RunRecord:
    """Everything a run emits: metric rows, the refresh log and a summary.

    Each metric row is held as its ``metrics.jsonl`` line. ``refreshes`` is
    None for a run that never refreshes.
    """

    metric_lines: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    refreshes: Optional[RefreshLog] = None

    @property
    def rows(self) -> list:
        """The rows of ``metrics.jsonl``, parsed from its lines."""
        return [json.loads(line) for line in self.metric_lines]

    def probe_lines(self) -> Iterator[str]:
        """The lines of ``probes.jsonl``."""
        return iter(()) if self.refreshes is None else self.refreshes.lines()

    @property
    def probes(self) -> list:
        """The rows of ``probes.jsonl``, parsed from its lines."""
        return [json.loads(line) for line in self.probe_lines()]


class _Schedule:
    """Per-step batches: seeded shuffle each epoch, full batch for toys."""

    def __init__(self, problem, cfg: ExperimentConfig, rng):
        self.rng = rng
        if problem.train is None:
            self.n = 0
            self.batch_size = None
            self.steps_per_epoch = 1
            self.total_steps = cfg.iterations or 100
            if cfg.epochs is not None:
                self.total_steps = cfg.epochs  # toys: epochs == iterations
        else:
            self.n = problem.train.n
            self.batch_size = cfg.batch_size or self.n
            if self.batch_size > self.n:
                raise ValidationError(
                    f"batch_size {self.batch_size} exceeds train size {self.n}"
                )
            self.steps_per_epoch = self.n // self.batch_size
            if cfg.iterations is not None:
                self.total_steps = cfg.iterations
            else:
                self.total_steps = (cfg.epochs or 10) * self.steps_per_epoch
        self._epoch_batches = []

    def batch(self, t: int) -> Optional[np.ndarray]:
        if self.n == 0:
            return None
        i = t % self.steps_per_epoch
        if i == 0:
            perm = self.rng.permutation(self.n)
            b = self.batch_size
            self._epoch_batches = [
                perm[j * b : (j + 1) * b] for j in range(self.steps_per_epoch)
            ]
        return self._epoch_batches[i]

    def fresh_batch(self) -> np.ndarray:
        return self.rng.choice(self.n, size=self.batch_size, replace=False)

    def is_eval_point(self, t: int) -> bool:
        return (t + 1) % self.steps_per_epoch == 0 or (t + 1) == self.total_steps


def _eval_row(problem, w, t, schedule, epoch_losses, eta, record):
    metrics = problem.test_metrics(w)  # counted before the row reads the counters
    row = {
        "iteration": t + 1,
        "epoch": (t + 1 + schedule.steps_per_epoch - 1) // schedule.steps_per_epoch,
        "train_loss": clean(np.mean(epoch_losses)),
        "train_loss_last": clean(epoch_losses[-1]),
        "eta": clean(np.asarray(eta)),
        "loss_calls": problem.train_loss_calls,
        "eval_loss_calls": problem.eval_loss_calls,
    }
    if metrics:
        row.update({k: clean(v) for k, v in metrics.items()})
    record.metric_lines.append(dump_line(row))


def check_dataset_settings(problem, cfg: ExperimentConfig, hcfg) -> None:
    """Reject a dataset-only setting on a problem without data (``hcfg`` None: no probes)."""
    if hcfg is not None and hcfg.fresh_probe_batch and problem.train is None:
        raise ValidationError(f"hidlr.fresh_probe_batch needs a dataset; {problem.name} has none")
    if cfg.batch_size is not None and problem.train is None:
        raise ValidationError(f"batch_size needs a dataset; {problem.name} has none")


def _train(problem, start: list, layout, cfg: ExperimentConfig, schedule, record, rate_at=None):
    """The one training loop: a ``hidlr_step`` per step, audited at the end.

    ``start`` is a one-item list holding the initial parameter vector. The
    loop takes the vector out of it, so nothing holds the vector once step 0
    has made the next one. With ``rate_at`` every group steps at
    ``rate_at(t)`` and nothing is probed. Without it the controller sets the
    rates. Either way the audit compares the counted training-loss calls
    with the sum of the steps' declared ``loss_calls``, and the counted
    gradients with one per step. Returns the final rates.
    """
    w = start.pop()
    hcfg = cfg.hidlr if rate_at is None else None
    check_dataset_settings(problem, cfg, hcfg)
    opt = OptimizerState.create(cfg.optimizer, problem.dim, **cfg.optimizer_params)
    total = schedule.total_steps
    if hcfg is not None:
        lr_state = initial_lr_state(hcfg, layout.k)
        record.refreshes = RefreshLog(-(-total // hcfg.phi), layout.names)
    epoch_losses, declared = [], 0
    for t in range(total):
        batch = schedule.batch(t)
        probe_batch = None
        if hcfg is None:
            lr_state = LrState(eta=np.full(layout.k, rate_at(t)))
        elif hcfg.fresh_probe_batch and t % hcfg.phi == 0:
            probe_batch = schedule.fresh_batch()
        res = hidlr_step(
            problem, w, lr_state, opt, hcfg, layout, batch, t, probe_batch
        )
        w, lr_state = res.w, res.lr_state
        declared += res.loss_calls
        epoch_losses.append(res.l0)
        if res.refresh is not None:
            record.refreshes.append(res.refresh)
        if schedule.is_eval_point(t):
            _eval_row(problem, w, t, schedule, epoch_losses, lr_state.eta, record)
            epoch_losses = []

    actual, grads = problem.train_loss_calls, problem.grad_calls
    record.summary["loss_calls"] = {
        "train": actual,
        "eval": problem.eval_loss_calls,
        "grad": grads,
        "expected_train": declared,
        "budget_exact": actual == declared,
    }
    if actual != declared:
        raise HidlrError(
            f"budget audit failed: {actual} training loss calls, expected "
            f"{declared} (the steps' declared calls, T={total}, K={layout.k})"
        )
    if grads != total:
        raise HidlrError(
            f"budget audit failed: {grads} gradients, expected {total} (one per step)"
        )
    return clean(lr_state.eta)


def set_up_run(cfg: ExperimentConfig):
    """``(problem, layout, w0, method, shuffle_rng)`` for a configured run.

    ``hiulr`` is the single-group controller by definition, so it comes
    back as ``hidlr`` on the ``single`` layout.
    """
    data_rng, init_rng, shuffle_rng = spawn_rngs(cfg.seed, 3)
    problem = build_problem(cfg.problem, data_rng, cfg.problem_params)
    method, grouping = cfg.method, cfg.grouping
    if method == "hiulr":
        method, grouping = "hidlr", "single"
    layout = group_params(problem, grouping, cfg.grouping_names)
    return problem, layout, problem.init_params(init_rng), method, shuffle_rng


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run one configured experiment deterministically."""
    inner, layout, w0, method, shuffle_rng = set_up_run(cfg)
    start = [w0]  # handed to _train, which lets it go after step 0
    del w0
    problem = CountingProblem(inner)
    schedule = _Schedule(problem, cfg, shuffle_rng)
    record = RunRecord()
    record.summary = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "problem_dim": int(problem.dim),
        "n_groups": layout.k,
        "group_names": list(layout.names),
        "total_steps": schedule.total_steps,
        "steps_per_epoch": schedule.steps_per_epoch,
        "batch_size": schedule.batch_size,
    }

    try:
        rate_at = None  # the controller sets the rates
        if method in SCHEDULER_KINDS:
            total = schedule.total_steps
            rate_at = lambda t: scheduler_lr(method, t, total, cfg.base_lr)
        elif method == "grid":
            grid = list(cfg.grid) if cfg.grid else default_toy_grid()
            best_lr, best_loss = grid_search(
                problem.inner,  # the candidates' calls are not the training run's
                cfg.optimizer,
                grid,
                schedule.total_steps,
                seed=cfg.seed,
                opt_hyper=cfg.optimizer_params,
            )
            record.summary["grid"] = {
                "grid": sorted(float(x) for x in grid),
                "best_lr": float(best_lr),
                "best_loss": clean(best_loss),
            }
            rate_at = lambda t: best_lr
        elif method != "hidlr":  # pragma: no cover - config validation owns this
            raise ValidationError(f"unhandled method {method!r}")
        eta_final = _train(problem, start, layout, cfg, schedule, record, rate_at)
    except HidlrError as exc:
        raise type(exc)(
            f"run problem={cfg.problem} seed={cfg.seed}: {exc}"
        ) from exc

    final_row = json.loads(record.metric_lines[-1]) if record.metric_lines else {}
    record.summary["final"] = {
        k: final_row.get(k)
        for k in ("train_loss", "train_loss_last", "test_loss", "test_accuracy")
        if k in final_row
    }
    record.summary["eta_final"] = eta_final
    return record
