"""Mixture-of-experts toy classifier."""

import numpy as np
import pytest

from hidlr.errors import ValidationError
from hidlr.linalg import make_rng
from hidlr.problems import MoeProblem, moe_label_rule
from hidlr.problems.moe import EXPERT_HIDDEN, GATE_HIDDEN, N_EXPERTS


@pytest.fixture(scope="module")
def problem():
    return MoeProblem(make_rng(0))


class TestLabelRule:
    def test_origin_is_positive(self):
        # sin 0 + cos 0 = 1 > 0
        assert moe_label_rule(np.array([[0.0, 0.0]])) == 1.0

    def test_rule_values(self):
        x = np.array([[np.pi / 2, 0.0], [0.0, np.pi], [-np.pi / 2, np.pi]])
        assert np.array_equal(moe_label_rule(x), [1.0, 0.0, 0.0])


class TestMoeDataset:
    def test_split_sizes(self, problem):
        assert problem.train.n == 1000
        assert problem.test.n == 200

    def test_flip_fraction_near_ten_percent(self, problem):
        clean = moe_label_rule(problem.train.features)
        flipped = np.mean(problem.train.targets != clean)
        assert 0.07 <= flipped <= 0.13

    def test_inputs_in_range(self, problem):
        assert problem.train.features.min() >= -3.0
        assert problem.train.features.max() < 3.0

    @pytest.mark.parametrize("kwargs, name", [({"n_train": True}, "n_train"),
                                              ({"n_test": 20.0}, "n_test")])
    def test_integer_sizes_checked(self, kwargs, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
            MoeProblem(make_rng(0), **kwargs)


class TestMoeModel:
    def test_dimensions(self, problem):
        gate = 2 * GATE_HIDDEN + GATE_HIDDEN + GATE_HIDDEN * N_EXPERTS + N_EXPERTS
        expert = 2 * EXPERT_HIDDEN + EXPERT_HIDDEN + EXPERT_HIDDEN + 1
        assert problem.gate_size == gate
        assert problem.expert_size == expert
        assert problem.dim == gate + N_EXPERTS * expert
        assert problem.default_layout.names == ("gate", "experts")

    def test_identical_experts_collapse_to_one(self, problem):
        # with every expert sharing the same weights, the gate mixture of
        # identical logits equals any single expert's logit
        rng = make_rng(1)
        w = problem.init_params(rng)
        ex = w[problem.gate_size :].reshape(N_EXPERTS, problem.expert_size)
        ex[:] = ex[0]
        x = problem.train.features[:50]
        mixture = problem.predict_logit(w, x)

        only_first = w.copy()
        gate_zeroed = only_first[: problem.gate_size]
        gate_zeroed[:] = 0.0  # uniform gate; experts identical anyway
        assert np.allclose(problem.predict_logit(only_first, x), mixture, atol=1e-10)

    def test_loss_at_zero_weights_is_ln2(self, problem):
        w = np.zeros(problem.dim)
        assert problem.loss(w, np.arange(100)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_grad_matches_fd_spot_check(self, problem):
        rng = make_rng(2)
        w = problem.init_params(rng)
        batch = np.arange(128)
        g = problem.grad(w, batch)
        idx = rng.choice(problem.dim, 25, replace=False)
        for i in idx:
            h = 1e-5 * (1.0 + abs(w[i]))
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (problem.loss(wp, batch) - problem.loss(wm, batch)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6 * max(1.0, np.abs(g).max()))

    def test_test_metrics_keys(self, problem):
        metrics = problem.test_metrics(np.zeros(problem.dim))
        assert set(metrics) == {"test_loss", "test_accuracy"}
        assert 0.0 <= metrics["test_accuracy"] <= 1.0

    def test_determinism(self, problem):
        w = problem.init_params(make_rng(3))
        batch = np.arange(64)
        assert problem.loss(w, batch) == problem.loss(w.copy(), batch)
        assert problem.grad(w, batch).tobytes() == problem.grad(w, batch).tobytes()
