"""Multi-task linear head on frozen random features."""

import functools
import tracemalloc

import numpy as np
import pytest

from hidlr.controller import HiDlrConfig, build_probe_matrix, hidlr_step, initial_lr_state
from hidlr.errors import ValidationError
from hidlr.linalg import make_rng
from hidlr.optim import OptimizerState
from hidlr.problems import MultitaskHeadProblem, bce_with_logits, multitask
from hidlr.problems.base import bce_into, bce_loss_and_grad
from hidlr.problems.multitask import FEATURE_DIM, INPUT_DIM, NOISE_MAX, NOISE_MIN, PROBE_ROWS

from oracle import sigmoid


@pytest.fixture(scope="module")
def problem():
    return MultitaskHeadProblem(make_rng(0), n_tasks=8, n_train=512, n_test=128)


def masked_sigmoid(z):
    """The boolean-indexed sigmoid that ``sigmoid`` replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_equal_to_masked_version():
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 745.0, -745.0, 800.0]
    z = np.concatenate([edges, make_rng(0).standard_normal(4096) * 30.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        z2 = z[:4096].reshape(64, 64)
        assert sigmoid(z2).tobytes() == masked_sigmoid(z2).tobytes()


BCE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             709.0, -709.0, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308]


@pytest.mark.parametrize("shape", [(4096,), (64, 64)])
def test_bce_kernel_bit_equal_to_bce_and_sigmoid(shape):
    # exp(-|z|) is subnormal from |z| = 708.4 and 0 past 745.1; labels both soft and 0/1
    rng = make_rng(4)
    z = np.concatenate([BCE_EDGES, rng.standard_normal(4096) * 30.0])[:4096].reshape(shape)
    for y in (rng.random(shape), (rng.random(shape) > 0.5).astype(np.float64)):
        buffer = z.copy()  # the kernel writes the BCE over the logits it is given
        loss, dz = bce_loss_and_grad(buffer, y)
        assert loss == float(np.mean(bce_with_logits(z, y)))
        assert dz.tobytes() == ((sigmoid(z) - y) / z.size).tobytes()
        assert buffer.tobytes() == bce_with_logits(z, y).tobytes()
        moved = z.copy()
        bce_into(moved, y, out=moved)
        assert moved.tobytes() == bce_with_logits(z, y).tobytes()


def test_bce_kernel_nan_gives_nan():
    z = np.array([np.nan, -np.nan, 1.0])
    loss, dz = bce_loss_and_grad(z, np.array([1.0, 0.0, 1.0]))
    assert np.isnan(loss)
    assert np.isnan(dz[:2]).all() and np.isfinite(dz[2])


def test_warm_refresh_step_peak_is_one_block_of_rows_and_six_logit_arrays():
    problem = MultitaskHeadProblem(make_rng(0), n_tasks=40, n_train=512, n_test=32)
    layout = problem.default_layout
    batch = make_rng(5).choice(problem.train.n, size=256, replace=False)
    cfg = HiDlrConfig(phi=1, eta0=1e-3)
    lr_state = initial_lr_state(cfg, layout.k)
    state = OptimizerState.create("adamw", problem.dim)
    step = hidlr_step(problem, problem.init_params(make_rng(1)), lr_state, state, cfg, layout,
                      batch, 0)  # warm: the optimizer state and the rates exist
    tracemalloc.start()
    try:
        res = hidlr_step(problem, step.w, step.lr_state, state, cfg, layout, batch, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.refresh is not None
    # one 64-row block of gathered feature rows, plus six (B, K) float arrays
    assert peak < PROBE_ROWS * FEATURE_DIM * 8 + 6 * batch.size * layout.k * 8


@functools.lru_cache(maxsize=None)
def head_problem(n_tasks):
    return MultitaskHeadProblem(make_rng(n_tasks), n_tasks=n_tasks, n_train=512, n_test=32)


@pytest.mark.parametrize("n_tasks", [2, 3, 5, 8, 16, 40])
@pytest.mark.parametrize("batch_size", [1, 2, 63, 64, 65, 255, 256, None])
def test_column_blocked_grad_bit_equal_to_one_pass(n_tasks, batch_size):
    problem = head_problem(n_tasks)
    features, targets = problem.train.features, problem.train.targets
    for seed in range(3):
        rng = make_rng(seed)
        w = 0.1 * rng.standard_normal(problem.dim)
        batch = None if batch_size is None else rng.choice(problem.train.n, batch_size, False)
        loss, grad = problem.loss_and_grad(w, batch)
        z, y = (features, targets) if batch is None else (features[batch], targets[batch])
        one_loss, dlogits = bce_loss_and_grad(problem._logits(features, batch, w)[0], y)
        assert loss == one_loss
        assert grad.tobytes() == (dlogits.T @ z).ravel().tobytes()


@pytest.mark.parametrize("batch_size", [1, 2, 63, 64, 65, 66, 129, 130, 256, None])
def test_chunked_probe_table_bit_equal_to_one_pass(batch_size, monkeypatch):
    problem = MultitaskHeadProblem(make_rng(0), n_tasks=40, n_train=512, n_test=32)
    layout = problem.default_layout
    rng = make_rng(6)
    w, d = 0.1 * rng.standard_normal((2, problem.dim))
    xi = build_probe_matrix(10.0 ** rng.uniform(-4, -1, layout.k)).xi_table()
    batch = None if batch_size is None else rng.choice(problem.train.n, batch_size, False)
    anchor, table = problem.probe_losses(w, d, layout, xi, batch)
    monkeypatch.setattr(multitask, "PROBE_ROWS", problem.train.n)  # one chunk: one pass
    one_anchor, one_table = problem.probe_losses(w, d, layout, xi, batch)
    assert anchor == one_anchor
    assert np.array_equal(table, one_table)


class TestMultitask:
    def test_layout_one_group_per_task(self, problem):
        lay = problem.default_layout
        assert lay.k == 8
        assert lay.lengths == (FEATURE_DIM,) * 8
        assert lay.names == tuple(f"task{k}" for k in range(8))

    def test_splits_hold_the_feature_map_of_their_inputs(self, problem):
        rng = make_rng(0)  # redraw the inputs in the order the build draws them
        rng.standard_normal((INPUT_DIM, FEATURE_DIM))  # the feature map
        rng.standard_normal((FEATURE_DIM, 8))  # the label directions
        for split in (problem.train, problem.test):
            x = rng.standard_normal((split.n, INPUT_DIM))
            assert split.features.tobytes() == problem.features(x).tobytes()
            rng.standard_normal((split.n, 8))  # the label noise

    def test_forty_task_configuration(self):
        p = MultitaskHeadProblem(make_rng(1), n_tasks=40, n_train=64, n_test=32)
        assert p.default_layout.k == 40
        assert p.dim == 40 * 512

    def test_zero_head_loss_is_ln2(self, problem):
        w = np.zeros(problem.dim)
        assert problem.loss(w) == pytest.approx(np.log(2.0), rel=1e-12)
        logits = problem.test.features @ w.reshape(8, FEATURE_DIM).T
        per_task = bce_with_logits(logits, problem.test.targets).mean(axis=0)
        assert np.allclose(per_task, np.log(2.0), rtol=1e-12)

    def test_noise_ramp(self, problem):
        scales = problem.noise_scales
        assert scales[0] == NOISE_MIN
        assert scales[-1] == NOISE_MAX
        assert np.all(np.diff(scales) > 0)

    def test_too_few_tasks_rejected(self):
        with pytest.raises(ValidationError):
            MultitaskHeadProblem(make_rng(0), n_tasks=1)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"n_tasks": True}, "n_tasks"), ({"n_tasks": 4.0}, "n_tasks"),
         ({"n_train": 64.5}, "n_train"), ({"n_test": True}, "n_test")],
    )
    def test_integer_parameters_checked(self, kwargs, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
            MultitaskHeadProblem(make_rng(0), **kwargs)

    def test_grad_matches_fd_spot_check(self, problem):
        rng = make_rng(2)
        w = 0.05 * rng.standard_normal(problem.dim)
        batch = np.arange(256)
        g = problem.grad(w, batch)
        for i in rng.choice(problem.dim, 20, replace=False):
            h = 1e-5 * (1.0 + abs(w[i]))
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (problem.loss(wp, batch) - problem.loss(wm, batch)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6 * max(np.abs(g).max(), 1e-12))

    def test_easy_tasks_learn_faster_than_hard_ones(self, problem):
        # a few plain gradient steps should cut the low-noise task losses more
        w = np.zeros(problem.dim)
        for _ in range(50):
            w = w - 1.0 * problem.grad(w)
        logits = problem.train.features @ w.reshape(8, FEATURE_DIM).T
        per_task = bce_with_logits(logits, problem.train.targets).mean(axis=0)
        assert per_task[0] < per_task[-1]

    def test_test_metrics_keys(self, problem):
        metrics = problem.test_metrics(np.zeros(problem.dim))
        assert set(metrics) == {"test_loss", "test_accuracy"}
        assert metrics["test_accuracy"] == pytest.approx(0.5, abs=0.15)
