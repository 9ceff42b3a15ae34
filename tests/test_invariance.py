"""Metamorphic tests: the controller's rates do not depend on the loss's units
or on the order of the groups.

Every training loss, gradient and probe table times c scales each fitted a
and b by c. Under AdamW the direction is unit-free once ``eps`` scales by c,
so b/a and the rates stay as they were. Under SGD the direction scales by c,
so rates, clamps and probe floor divided by c give the same steps. At c = 4,
a power of two, the two runs share every bit. At c = 3 they differ in the
last bits, and the refreshes still make the same decisions.

A toy with per-coordinate groups whose parameter vector is reversed has its
groups in the reverse order, so its rates must come back reversed.
"""

import numpy as np
import pytest

from hidlr.controller import HiDlrConfig
from hidlr.harness import runner
from hidlr.harness.config import config_from_dict, load_config_dict
from hidlr.optim import OptimizerState
from hidlr.problems.base import LossProblem

from conftest import REPO_ROOT

C = 4.0
# final metrics at c = 3, train losses divided by 3: the shortened runs moved
# by at most 2.9e-10 relative (california-housing), the full-length ones 8.6e-9
C3_RTOL = 1e-8
# preset -> overrides that keep the run short; the fourteen runs at c = 4 take about 2 s
SHORT_RUNS = {
    "ellipse": {},
    "beale-rosenbrock": {},
    "lora-synthetic": {"iterations": 200},
    "moe": {"epochs": 10},
    "multitask": {"epochs": 10},
    "california-housing": {"epochs": 20},
    "nam-synthetic": {"epochs": 10},
}
SGD_KNOBS = ("eta0", "eta_min", "eta_max", "probe_floor")


class ScaledLoss:
    """``inner`` with every training loss, gradient and probe table times ``c``."""

    def __init__(self, inner, c=C):
        self.inner = inner
        self.c = c

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def loss(self, w, batch=None):
        return self.c * self.inner.loss(w, batch)

    def loss_and_grad(self, w, batch=None):
        loss, grad = self.inner.loss_and_grad(w, batch)
        return self.c * loss, self.c * grad

    def grad(self, w, batch=None):
        return self.loss_and_grad(w, batch)[1]

    def probe_losses(self, w, d, layout, xi, batch=None, l0=None):
        inner_l0 = None if l0 is None else l0 / self.c  # a given l0 is already scaled
        anchor, table = self.inner.probe_losses(w, d, layout, xi, batch, inner_l0)
        return self.c * anchor, self.c * table


class ReversedParams:
    """``inner`` read through its reversed parameter vector: loss'(w) = loss(w[::-1]).

    The gradient is reversed back, and probes run the default loop on the
    reversed loss, as they do on the toys themselves.
    """

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def init_params(self, rng):
        return self.inner.init_params(rng)[::-1].copy()

    def loss(self, w, batch=None):
        return self.inner.loss(w[::-1], batch)

    def loss_and_grad(self, w, batch=None):
        loss, grad = self.inner.loss_and_grad(w[::-1], batch)
        return loss, grad[::-1].copy()

    def grad(self, w, batch=None):
        return self.loss_and_grad(w, batch)[1]

    def probe_losses(self, w, d, layout, xi, batch=None, l0=None):
        return LossProblem.probe_losses(self, w, d, layout, xi, batch, l0)


def preset_config(name, scaled, c=C):
    """The shortened preset; ``scaled`` rescales the knobs that carry the loss's units by c."""
    raw = load_config_dict(REPO_ROOT / "configs" / f"{name}.yaml")
    raw.update(SHORT_RUNS[name])
    params = raw.get("problem_params") or {}
    if "csv_path" in params:
        params["csv_path"] = str(REPO_ROOT / params["csv_path"])
    if scaled and raw["optimizer"] == "sgd":
        hidlr = raw.setdefault("hidlr", {})
        for knob in SGD_KNOBS:
            hidlr[knob] = hidlr.get(knob, getattr(HiDlrConfig, knob)) / c
    elif scaled:
        assert raw["optimizer"] == "adamw"
        opt = raw.setdefault("optimizer_params", {})
        opt["eps"] = opt.get("eps", OptimizerState.eps) * c
    return config_from_dict(raw)


def decisions(record):
    log = record.refreshes
    return "".join("A" if ok else "R" for ok in log.accepted[: log.n]), log.reason[: log.n]


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_rates_do_not_depend_on_the_loss_units(name, monkeypatch):
    cfg = preset_config(name, scaled=False)
    base = runner.run_experiment(cfg)
    build = runner.build_problem
    monkeypatch.setattr(runner, "build_problem", lambda *args: ScaledLoss(build(*args)))
    scaled = runner.run_experiment(preset_config(name, scaled=True))

    accepts, reasons = decisions(base)
    assert "A" in accepts and "R" in accepts  # a run that never flips would show little
    assert decisions(scaled) == (accepts, reasons)
    # SGD's rates carry the loss's inverse units; AdamW's carry none
    unit = C if cfg.optimizer == "sgd" else 1.0
    assert len(scaled.rows) == len(base.rows)
    for row, scaled_row in zip(base.rows, scaled.rows):
        for key in ("test_loss", "test_accuracy"):
            assert scaled_row.get(key) == row.get(key)  # bit-equal: the test split is unscaled
        assert scaled_row["train_loss"] == C * row["train_loss"]
        assert (np.asarray(scaled_row["eta"]) * unit).tobytes() == np.asarray(row["eta"]).tobytes()


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_decisions_do_not_depend_on_the_loss_units_at_c_3(name, monkeypatch):
    base = runner.run_experiment(preset_config(name, scaled=False))
    build = runner.build_problem
    monkeypatch.setattr(runner, "build_problem", lambda *args: ScaledLoss(build(*args), 3.0))
    scaled = runner.run_experiment(preset_config(name, scaled=True, c=3.0))

    assert decisions(scaled) == decisions(base)
    final, scaled_final = base.summary["final"], scaled.summary["final"]
    assert scaled_final.keys() == final.keys()
    for key, value in final.items():
        unit = 3.0 if key.startswith("train") else 1.0
        assert scaled_final[key] / unit == pytest.approx(value, rel=C3_RTOL, abs=0.0)


@pytest.mark.parametrize("name", ["ellipse", "beale-rosenbrock"])
def test_rates_follow_the_group_order(name, monkeypatch):
    base = runner.run_experiment(preset_config(name, scaled=False))
    build = runner.build_problem
    monkeypatch.setattr(runner, "build_problem", lambda *args: ReversedParams(build(*args)))
    cfg = preset_config(name, scaled=False)
    assert cfg.grouping == "per-coordinate"
    reversed_ = runner.run_experiment(cfg)

    assert decisions(reversed_) == decisions(base)
    # Measured gap: none. Only the pooled R^2 sums the probe table in another
    # order, and on both toys it came out bit-equal too, so every check is exact.
    rows, reversed_rows = base.rows, reversed_.rows
    assert len(reversed_rows) == len(rows)
    for row, reversed_row in zip(rows, reversed_rows):
        assert reversed_row["train_loss"] == row["train_loss"]
        assert reversed_row["eta"] == row["eta"][::-1]
    log, reversed_log = base.refreshes, reversed_.refreshes
    n = log.n
    for column in ("a", "b", "r2_group", "eta_star", "eta_after"):
        mine = getattr(reversed_log, column)[:n, ::-1]
        assert mine.tobytes() == getattr(log, column)[:n].tobytes(), column
    k = len(log.group_names)
    table = reversed_log.delta_l[:n].reshape(n, k, -1)[:, ::-1]
    assert table.tobytes() == log.delta_l[:n].reshape(n, k, -1).tobytes()
    assert reversed_log.r2_pooled[:n].tobytes() == log.r2_pooled[:n].tobytes()
