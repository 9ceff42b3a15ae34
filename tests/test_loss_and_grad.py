"""Fused ``loss_and_grad`` and anchored ``probe_losses`` against their defaults."""

import numpy as np
import pytest

from hidlr.controller import (
    HiDlrConfig,
    build_probe_matrix,
    evaluate_probes,
    hidlr_step,
    initial_lr_state,
)
from hidlr.errors import LengthMismatch, NonFiniteLoss
from hidlr.harness.config import ExperimentConfig, load_config_dict
from hidlr.harness.runner import CountingProblem, run_experiment
from hidlr.linalg import make_rng
from hidlr.optim import OptimizerState
from hidlr.problems import PROBLEM_NAMES, build_problem, group_params
from hidlr.problems.base import LossProblem

from conftest import REPO_ROOT

SEEDS = (0, 1, 2)
# the structured overrides and the default loop (ellipse has no override)
ANCHORED = ("nam-synthetic", "california-housing", "multitask", "lora-synthetic", "ellipse")
COUNTED = ("nam-synthetic", "multitask", "lora-synthetic", "ellipse")


def anchor_loss_calls(name, layout):
    """``loss`` calls a probe set makes for its anchor and table, without ``l0``.

    NAM, multitask and LoRA take the anchor from their base forward; the
    default loop calls ``loss`` for the anchor and each probe.
    """
    return {"ellipse": 1 + 4 * layout.k}.get(name, 0)


def preset(name):
    """(problem, batch size) as the preset of the same name builds them."""
    raw = load_config_dict(REPO_ROOT / "configs" / f"{name}.yaml")
    params = dict(raw.get("problem_params") or {})
    if "csv_path" in params:
        params["csv_path"] = str(REPO_ROOT / params["csv_path"])
    return build_problem(name, make_rng(0), params), raw.get("batch_size")


def point(problem, seed, batch_size):
    """A seeded (w, d, batch): moved init, the gradient there, a random batch."""
    rng = make_rng(seed)
    w = problem.init_params(rng)
    w = w + 0.1 * rng.standard_normal(w.shape)
    batch = None
    if batch_size is not None:
        batch = rng.choice(problem.train.n, size=batch_size, replace=False)
    return w, problem.grad(w, batch), batch


def xi_for(layout, seed):
    eta = 10.0 ** make_rng(seed).uniform(-4, -1, layout.k)
    return build_probe_matrix(eta).xi_table()


def spy_loss(problem, monkeypatch):
    """Record every call of ``problem.loss`` from now on."""
    calls = []
    loss = problem.loss
    monkeypatch.setattr(problem, "loss", lambda w, b=None: calls.append(1) or loss(w, b))
    return calls


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("full_batch", [False, True])
def test_loss_and_grad_matches_loss_and_grad(name, seed, full_batch):
    problem, batch_size = preset(name)
    w, _, batch = point(problem, seed, batch_size)
    if full_batch:
        batch = None
    loss, g = problem.loss_and_grad(w, batch)
    assert isinstance(loss, float)
    assert loss == problem.loss(w, batch)
    assert np.array_equal(g, problem.grad(w, batch))


@pytest.mark.parametrize("call", ["loss", "loss_and_grad", "probe_losses"])
@pytest.mark.parametrize("name", ["nam-synthetic", "multitask", "lora-synthetic", "moe"])
def test_empty_batch_rejected(name, call):
    problem, _ = preset(name)
    layout = problem.default_layout
    w = problem.init_params(make_rng(0))
    args = {"probe_losses": (w, layout, xi_for(layout, 0))}.get(call, ())
    with pytest.raises(LengthMismatch, match="^batch must be nonempty$"):
        getattr(problem, call)(w, *args, np.array([], dtype=np.intp))


class LossOnly(LossProblem):
    """Defines ``loss`` and neither ``grad`` nor ``loss_and_grad``."""

    dim = 1

    def loss(self, w, batch=None):
        return float(w[0] ** 2)


@pytest.mark.parametrize("call", ["grad", "loss_and_grad"])
def test_loss_only_problem_has_no_gradient(call):
    with pytest.raises(NotImplementedError, match="^LossOnly has no grad or loss_and_grad$"):
        getattr(LossOnly(), call)(np.ones(1))


@pytest.mark.parametrize("name", ANCHORED)
@pytest.mark.parametrize("seed", SEEDS)
def test_anchor_and_table_match_separate_calls(name, seed, monkeypatch):
    problem, batch_size = preset(name)
    layout = problem.default_layout
    w, d, batch = point(problem, seed, batch_size)
    xi = xi_for(layout, seed)
    calls = spy_loss(problem, monkeypatch)
    anchor, table = problem.probe_losses(w, d, layout, xi, batch)
    assert len(calls) == anchor_loss_calls(name, layout)
    assert anchor == problem.loss(w, batch)
    given, given_table = problem.probe_losses(w, d, layout, xi, batch, l0=anchor)
    assert given == anchor
    assert np.array_equal(table, given_table)


@pytest.mark.parametrize("name", ANCHORED)
def test_other_layout_takes_default_anchor(name, monkeypatch):
    problem, batch_size = preset(name)
    layout = group_params(problem, "single")
    w, d, batch = point(problem, 1, batch_size)
    xi = xi_for(layout, 1)
    calls = spy_loss(problem, monkeypatch)
    anchor, table = problem.probe_losses(w, d, layout, xi, batch)
    assert len(calls) == 1 + 4 * layout.k
    default = LossProblem.probe_losses(problem, w, d, layout, xi, batch)
    assert anchor == default[0]
    assert np.array_equal(table, default[1])


@pytest.mark.parametrize("name", ["ellipse", "nam-synthetic"])
def test_counting_fused_step(name):
    inner, batch_size = preset(name)
    problem = CountingProblem(inner)
    w, _, batch = point(inner, 0, batch_size)
    problem.loss_and_grad(w, batch)
    assert (problem.train_loss_calls, problem.grad_calls) == (1, 1)
    assert problem.eval_loss_calls == 0


@pytest.mark.parametrize("name", COUNTED)
@pytest.mark.parametrize("strategy", ["default", "single"])
def test_counting_anchored_probe_set(name, strategy):
    inner, batch_size = preset(name)
    problem = CountingProblem(inner)
    layout = group_params(inner, strategy)
    w, d, batch = point(inner, 0, batch_size)
    anchor, _ = problem.probe_losses(w, d, layout, xi_for(layout, 0), batch)
    assert anchor == inner.loss(w, batch)
    assert problem.train_loss_calls == 1 + 4 * layout.k


@pytest.mark.parametrize("name", COUNTED)
def test_counting_anchor_after_failed_probe_set(name):
    # group 1's outer probes step by +-inf, so probe j = 4 is the first to fail
    inner, batch_size = preset(name)
    problem = CountingProblem(inner)
    layout = inner.default_layout
    w, d, batch = point(inner, 2, batch_size)
    eta = np.full(layout.k, 1e-3)
    eta[1] = 1e308
    with np.errstate(all="ignore"), pytest.raises(
        NonFiniteLoss, match=r"^probe row 4 \(group 1\) gave loss "
    ):
        evaluate_probes(problem, w, d, layout, build_probe_matrix(eta), batch, None)
    assert problem.train_loss_calls == 1 + 4 * layout.k


@pytest.mark.parametrize("seed", SEEDS)
def test_lora_anchored_probe_set_equals_default_loop(seed):
    problem, batch_size = preset("lora-synthetic")
    layout = problem.default_layout
    w, d, batch = point(problem, seed, batch_size)
    xi = xi_for(layout, seed)
    anchor, table = problem.probe_losses(w, d, layout, xi, batch)
    ref_anchor, ref_table = LossProblem.probe_losses(problem, w, d, layout, xi, batch)
    assert anchor == ref_anchor
    assert np.array_equal(table, ref_table)


@pytest.mark.parametrize("group", [0, 1])
def test_lora_anchor_after_failed_probe(group):
    # the failing group's first probe steps by -inf, so probe j = 4 * group fails
    inner, batch_size = preset("lora-synthetic")
    problem = CountingProblem(inner)
    layout = inner.default_layout
    w, d, batch = point(inner, 2, batch_size)
    eta = np.full(layout.k, 1e-3)
    eta[group] = 1e308
    probe = build_probe_matrix(eta)
    with np.errstate(all="ignore"):
        anchor, table = inner.probe_losses(w, d, layout, probe.xi_table(), batch)
        ref_anchor, ref_table = LossProblem.probe_losses(
            inner, w, d, layout, probe.xi_table(), batch
        )
        first_bad = rf"^probe row {4 * group} \(group {group}\) "
        with pytest.raises(NonFiniteLoss, match=first_bad):
            evaluate_probes(problem, w, d, layout, probe, batch, None)
    assert anchor == ref_anchor == inner.loss(w, batch)
    assert np.array_equal(table, ref_table, equal_nan=True)
    assert not np.isfinite(table[group, 0])
    assert problem.train_loss_calls == 1 + 4 * layout.k


def test_fresh_batch_step_runs_one_forward_per_call(monkeypatch):
    inner, batch_size = preset("nam-synthetic")
    problem = CountingProblem(inner)
    layout = inner.default_layout
    w, _, batch = point(inner, 0, batch_size)
    fresh = make_rng(5).choice(inner.train.n, size=batch_size, replace=False)
    cfg = HiDlrConfig(phi=1, fresh_probe_batch=True)
    calls = spy_loss(inner, monkeypatch)
    res = hidlr_step(
        problem,
        w,
        initial_lr_state(cfg, layout.k),
        OptimizerState.create("sgd", inner.dim),
        cfg,
        layout,
        batch,
        0,
        probe_batch=fresh,
    )
    assert calls == []  # no loss outside loss_and_grad and the probe set
    assert res.l0 == inner.loss(w, batch)
    assert res.refresh.fit is not None
    assert problem.train_loss_calls == 1 + 1 + 4 * layout.k
    assert problem.grad_calls == 1


def test_fresh_batch_run_audits_and_counts_evals():
    cfg = ExperimentConfig(
        problem="nam-synthetic",
        method="hidlr",
        seed=0,
        epochs=2,
        batch_size=256,
        hidlr=HiDlrConfig(phi=2, fresh_probe_batch=True),
    )
    record = run_experiment(cfg)
    calls = record.summary["loss_calls"]
    assert calls["budget_exact"] is True
    assert calls["train"] == calls["expected_train"]
    assert calls["grad"] == record.summary["total_steps"]
    assert len(record.rows) == 2
    assert [row["eval_loss_calls"] for row in record.rows] == [1, 2]
    assert calls["eval"] == len(record.rows)
