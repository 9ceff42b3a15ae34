"""Multi-task linear head on frozen random features."""

import numpy as np
import pytest

from hidlr.errors import ValidationError
from hidlr.linalg import make_rng
from hidlr.problems import MultitaskHeadProblem, sigmoid
from hidlr.problems.multitask import FEATURE_DIM, NOISE_MAX, NOISE_MIN


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


class TestMultitask:
    def test_layout_one_group_per_task(self, problem):
        lay = problem.default_layout
        assert lay.k == 8
        assert lay.lengths == (FEATURE_DIM,) * 8
        assert lay.names == tuple(f"task{k}" for k in range(8))

    def test_cached_features_are_the_feature_map(self, problem):
        for z, split in ((problem._z_train, problem.train), (problem._z_test, problem.test)):
            assert z.tobytes() == problem.features(split.features).tobytes()

    def test_forty_task_configuration(self):
        p = MultitaskHeadProblem(make_rng(1), n_tasks=40, n_train=64, n_test=32)
        assert p.default_layout.k == 40
        assert p.dim == 40 * 512

    def test_zero_head_loss_is_ln2(self, problem):
        w = np.zeros(problem.dim)
        assert problem.loss(w) == pytest.approx(np.log(2.0), rel=1e-12)
        assert np.allclose(problem.per_task_losses(w), np.log(2.0), rtol=1e-12)

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
        per_task = problem.per_task_losses(w, split="train")
        assert per_task[0] < per_task[-1]

    def test_test_metrics_keys(self, problem):
        metrics = problem.test_metrics(np.zeros(problem.dim))
        assert set(metrics) == {"test_loss", "test_accuracy"}
        assert metrics["test_accuracy"] == pytest.approx(0.5, abs=0.15)
