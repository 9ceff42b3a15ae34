"""Low-rank teacher-student regression problem."""

import tracemalloc

import numpy as np
import pytest

from hidlr.controller import HiDlrConfig, build_probe_matrix, hidlr_step, initial_lr_state
from hidlr.errors import ValidationError
from hidlr.linalg import make_rng
from hidlr.optim import OptimizerState
from hidlr.problems import LoraRegressionProblem
from hidlr.problems.base import LossProblem

from conftest import peak_bytes


@pytest.fixture(scope="module")
def problem():
    return LoraRegressionProblem(make_rng(0), width=32, rank=3, n_train=200)


@pytest.fixture(scope="module")
def preset():
    return LoraRegressionProblem(make_rng(0))  # the preset's width 64, rank 4


def test_warm_refresh_step_peak_is_under_three_batch_arrays():
    problem = LoraRegressionProblem(make_rng(0))  # the preset's width 64, rank 4
    layout = problem.default_layout
    batch = make_rng(5).choice(problem.train.n, size=128, replace=False)
    cfg = HiDlrConfig(phi=1, eta0=1e-4)
    state = OptimizerState.create("adamw", problem.dim)
    step = hidlr_step(problem, problem.init_params(make_rng(1)), initial_lr_state(cfg, layout.k),
                      state, cfg, layout, batch, 0)  # warm: the optimizer state and the rates exist
    tracemalloc.start()
    try:
        res = hidlr_step(problem, step.w, step.lr_state, state, cfg, layout, batch, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.refresh is not None
    # a call holds one residual beside the gathered x or y, never beside both
    assert peak < 3 * batch.size * problem.width * 8


def test_loss_and_grad_peak_is_under_two_and_a_half_batch_arrays(preset):
    batch = make_rng(5).choice(preset.train.n, size=128, replace=False)
    w = preset.init_params(make_rng(1)) + 0.1 * make_rng(2).standard_normal(preset.dim)
    peak = peak_bytes(lambda: preset.loss_and_grad(w, batch))
    # the residual and its square, then the residual and the rows gathered again
    assert peak < 2.5 * batch.size * preset.width * 8


def reference_loss_and_grad(problem, w, batch):
    """The step from one gather of x and y, residual formed beside both."""
    x, y = problem.resolve_batch(batch)
    a, b = problem._unpack(w)
    xa = x @ a.T
    r = xa @ b.T
    r -= y
    loss = float(0.5 * np.sum(r * r) / x.shape[0])
    r /= x.shape[0]
    g = np.empty(problem.dim)
    ga, gb = problem._unpack(g)
    ga[...] = (b.T @ r.T) @ x
    gb[...] = r.T @ xa
    return loss, g


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows", [1, 2, 3, 127, 128, 129, None])
def test_step_and_probe_set_are_bit_exact(preset, rows, seed):
    rng = make_rng(seed)
    w = preset.init_params(rng) + 0.1 * rng.standard_normal(preset.dim)  # B awake
    batch = None if rows is None else rng.choice(preset.train.n, size=rows, replace=False)
    loss, g = preset.loss_and_grad(w, batch)
    ref_loss, ref_g = reference_loss_and_grad(preset, w, batch)
    assert loss == ref_loss
    assert g.tobytes() == ref_g.tobytes()

    layout = preset.default_layout
    xi = build_probe_matrix(10.0 ** rng.uniform(-4, -1, layout.k)).xi_table()
    anchor, table = preset.probe_losses(w, g, layout, xi, batch)
    ref_anchor, ref_table = LossProblem.probe_losses(preset, w, g, layout, xi, batch)
    assert anchor == ref_anchor
    assert table.tobytes() == ref_table.tobytes()


class TestLora:
    def test_dimensions_and_layout(self, problem):
        assert problem.dim == 2 * 3 * 32
        assert problem.default_layout.names == ("A", "B")
        assert problem.default_layout.lengths == (3 * 32, 32 * 3)

    def test_zero_b_init_ignores_a(self, problem):
        rng = make_rng(1)
        w1 = problem.init_params(rng)
        w2 = w1.copy()
        w2[: 3 * 32] = rng.standard_normal(3 * 32)  # different A, same zero B
        batch = np.arange(50)
        assert problem.loss(w1, batch) == problem.loss(w2, batch)

    def test_zero_b_loss_is_teacher_residual(self, problem):
        w = problem.init_params(make_rng(2))
        batch = np.arange(64)
        _, y = problem.resolve_batch(batch)
        assert problem.loss(w, batch) == pytest.approx(
            0.5 * np.sum(y * y) / 64, rel=1e-12
        )

    def test_grad_b_zero_when_a_zero(self, problem):
        w = np.zeros(problem.dim)
        w[3 * 32 :] = make_rng(3).standard_normal(32 * 3)  # B arbitrary, A = 0
        g = problem.grad(w, np.arange(20))
        assert np.array_equal(g[3 * 32 :], np.zeros(32 * 3))

    def test_rank_bounds_enforced(self):
        with pytest.raises(ValidationError):
            LoraRegressionProblem(make_rng(0), width=8, rank=9)
        with pytest.raises(ValidationError):
            LoraRegressionProblem(make_rng(0), width=8, rank=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"rank": 2.5}, "rank"), ({"width": True}, "width"), ({"n_train": 10.0}, "n_train"),
         ({"n_test": False}, "n_test")],
    )
    def test_integer_parameters_checked(self, kwargs, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
            LoraRegressionProblem(make_rng(0), **kwargs)

    def test_loss_decreases_along_negative_gradient(self, problem):
        rng = make_rng(4)
        w = problem.init_params(rng)
        w += 0.01 * rng.standard_normal(problem.dim)  # wake B up
        batch = np.arange(100)
        g = problem.grad(w, batch)
        l0 = problem.loss(w, batch)
        assert problem.loss(w - 1e-4 * g, batch) < l0

    def test_same_seed_same_teacher(self):
        p1 = LoraRegressionProblem(make_rng(7), width=16, rank=2, n_train=50)
        p2 = LoraRegressionProblem(make_rng(7), width=16, rank=2, n_train=50)
        assert p1.teacher.tobytes() == p2.teacher.tobytes()
        assert p1.train.features.tobytes() == p2.train.features.tobytes()

    def test_test_metrics_key(self, problem):
        metrics = problem.test_metrics(np.zeros(problem.dim))
        assert set(metrics) == {"test_loss"}
        assert metrics["test_loss"] > 0
