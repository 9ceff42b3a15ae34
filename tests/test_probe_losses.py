"""Structured ``probe_losses`` overrides against the generic probe loop."""

import itertools

import numpy as np
import pytest

from hidlr.controller import build_probe_matrix, evaluate_probes
from hidlr.errors import NonFiniteLoss
from hidlr.harness.runner import CountingProblem
from hidlr.linalg import make_rng
from hidlr.problems import PROBLEM_NAMES, FunctionProblem, build_problem, group_params
from hidlr.problems.base import LossProblem

from conftest import REPO_ROOT, peak_bytes

CSV = REPO_ROOT / "data" / "california_stand_in.csv"
PARAMS = {"california-housing": {"csv_path": str(CSV)}}
SEEDS = (0, 1, 2)
NAMED_SPLIT = {"nam-synthetic": ["f2"], "multitask": ["task3"], "lora-synthetic": ["B"]}


def build(name):
    return build_problem(name, make_rng(0), PARAMS.get(name))


def probe_point(problem, seed):
    """A seeded (w, d, xi, batch): moved init, the gradient there, random rates."""
    rng = make_rng(seed)
    w = problem.init_params(rng)
    w = w + 0.1 * rng.standard_normal(w.shape)
    batch = None
    if problem.train is not None:
        batch = rng.choice(problem.train.n, size=64, replace=False)
    d = problem.grad(w, batch)
    eta = 10.0 ** rng.uniform(-4, -1, problem.default_layout.k)
    return w, d, build_probe_matrix(eta).xi_table(), batch


def generic(problem, w, d, layout, xi, batch):
    return LossProblem.probe_losses(problem, w, d, layout, xi, batch, l0=0.0)[1]


def assert_same_failed_table(name, fast, slow):
    """Same finiteness mask as the default loop, and equal finite entries."""
    finite = np.isfinite(slow)
    assert np.array_equal(np.isfinite(fast), finite)
    if name == "multitask":  # sums in another order: equal to rounding
        np.testing.assert_allclose(fast[finite], slow[finite], rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(fast[finite], slow[finite])


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_generic_loop(name, seed):
    problem = build(name)
    layout = problem.default_layout
    w, d, xi, batch = probe_point(problem, seed)
    anchor, fast = problem.probe_losses(w, d, layout, xi, batch, l0=0.25)
    slow = generic(problem, w, d, layout, xi, batch)
    assert anchor == 0.25
    assert fast.shape == (layout.k, 4)
    assert np.all(np.isfinite(slow))
    if name == "multitask":  # sums in another order: equal to rounding
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(fast, slow)


ANCHOR_CASES = [
    *(pytest.param(name, None, id=name) for name in PROBLEM_NAMES if name != "multitask"),
    *(pytest.param("multitask", k, id=f"multitask-{k}") for k in (2, 3, 8, 16, 40)),
]


@pytest.mark.parametrize("name, n_tasks", ANCHOR_CASES)
def test_computed_anchor_is_the_loss_bit_for_bit(name, n_tasks):
    params = PARAMS.get(name) if n_tasks is None else {"n_tasks": n_tasks}
    problem = build_problem(name, make_rng(0), params)
    layout = problem.default_layout
    sizes = (None,) if problem.train is None else (1, 63, 65, 128, 256, None)
    for rows, seed in itertools.product(sizes, range(10)):
        rng = make_rng(seed)
        w = problem.init_params(rng) + 0.1 * rng.standard_normal(problem.dim)
        batch = None if rows is None else rng.choice(problem.train.n, rows, replace=False)
        d = problem.grad(w, batch)
        xi = build_probe_matrix(10.0 ** rng.uniform(-4, -1, layout.k)).xi_table()
        anchor, _ = problem.probe_losses(w, d, layout, xi, batch, l0=None)
        losses = (anchor, problem.loss(w, batch), problem.loss_and_grad(w, batch)[0])
        assert len(set(losses)) == 1, f"batch of {rows} rows, seed {seed}: {losses}"


@pytest.mark.parametrize(
    "name", ["nam-synthetic", "california-housing", "multitask", "lora-synthetic"]
)
def test_inputs_left_untouched(name):
    problem = build(name)
    w, d, xi, batch = probe_point(problem, 0)
    before = (w.tobytes(), d.tobytes(), xi.tobytes())
    problem.probe_losses(w, d, problem.default_layout, xi, batch)
    problem.probe_losses(w, d, problem.default_layout, xi, batch, l0=0.0)
    assert (w.tobytes(), d.tobytes(), xi.tobytes()) == before


@pytest.mark.parametrize("name", ["nam-synthetic", "multitask", "lora-synthetic"])
@pytest.mark.parametrize("strategy", ["single", "named-split"])
def test_other_layouts_take_generic_loop(name, strategy, monkeypatch):
    problem = build(name)
    layout = group_params(problem, strategy, NAMED_SPLIT[name])
    w, d, _, batch = probe_point(problem, 1)
    xi = build_probe_matrix(np.full(layout.k, 1e-3)).xi_table()
    calls = []
    loss = problem.loss
    monkeypatch.setattr(problem, "loss", lambda w, b=None: calls.append(1) or loss(w, b))
    _, fast = problem.probe_losses(w, d, layout, xi, batch, l0=0.0)
    assert len(calls) == 4 * layout.k
    assert np.array_equal(fast, generic(problem, w, d, layout, xi, batch))


@pytest.mark.parametrize("name", ["nam-synthetic", "multitask", "lora-synthetic", "ellipse"])
def test_counting_after_failed_probe_set(name):
    # group 1's outer probes step by +-inf, so probe j = 4 is the first to fail
    inner = build(name)
    problem = CountingProblem(inner)
    layout = inner.default_layout
    w, d, _, batch = probe_point(inner, 2)
    eta = np.full(layout.k, 1e-3)
    eta[1] = 1e308
    probe = build_probe_matrix(eta)
    with np.errstate(all="ignore"):
        xi = probe.xi_table()
        with pytest.raises(NonFiniteLoss, match=r"^probe row 4 \(group 1\) gave loss "):
            evaluate_probes(problem, w, d, layout, probe, batch, inner.loss(w, batch))
        _, fast = inner.probe_losses(w, d, layout, xi, batch, l0=0.0)
        slow = generic(inner, w, d, layout, xi, batch)
    assert problem.train_loss_calls == 4 * layout.k
    assert_same_failed_table(name, fast, slow)
    assert not np.isfinite(slow[1, 0]) and np.isfinite(slow.ravel()[:4]).all()


def test_counting_matches_generic_loop_after_failure():
    def guarded(w):
        return float(w[0]) if w[0] >= 0 else np.inf

    inner = FunctionProblem(
        fn=guarded, grad_fn=lambda w: np.ones(1), init=[1.0], name="guard"
    )
    problem = CountingProblem(inner)
    probe = build_probe_matrix(np.array([1.01]))
    w = np.array([1.0])
    # probes move w[0] to 3.02, 2.01, -0.01, -1.02 -> the third is the first to fail
    with pytest.raises(NonFiniteLoss, match=r"^probe row 2 \(group 0\) gave loss inf$"):
        evaluate_probes(problem, w, np.ones(1), inner.default_layout, probe, None, 1.0)
    assert problem.train_loss_calls == 4
    table = generic(inner, w, np.ones(1), inner.default_layout, probe.xi_table(), None)
    assert table.tolist() == [[3.02, 2.01, np.inf, np.inf]]


@pytest.mark.parametrize("name", ["nam-synthetic", "multitask", "lora-synthetic", "ellipse"])
def test_counting_full_probe_set(name):
    inner = build(name)
    problem = CountingProblem(inner)
    w, d, xi, batch = probe_point(inner, 0)
    problem.probe_losses(w, d, inner.default_layout, xi, batch, l0=0.0)
    assert problem.train_loss_calls == 4 * inner.default_layout.k


def test_lora_probe_set_peaks_no_higher_than_generic_loop():
    problem = build("lora-synthetic")
    layout = problem.default_layout
    w, d, xi, _ = probe_point(problem, 0)
    batch = make_rng(3).choice(problem.train.n, size=128, replace=False)
    fast = peak_bytes(lambda: problem.probe_losses(w, d, layout, xi, batch))
    slow = peak_bytes(lambda: generic(problem, w, d, layout, xi, batch))
    assert fast <= slow
