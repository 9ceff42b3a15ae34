"""Additive-model problem: synthetic dataset and the stacked-MLP network."""

import numpy as np
import pytest

from hidlr.errors import DimensionMismatch
from hidlr.linalg import make_rng
from hidlr.problems import NAM_FEATURE_FNS, NamProblem, make_nam_synthetic
from hidlr.problems.nam import NAM_N_FEATURES, NAM_N_ROWS


class TestSyntheticDataset:
    def test_shapes(self):
        ds = make_nam_synthetic(make_rng(0))
        assert ds.features.shape == (NAM_N_ROWS, NAM_N_FEATURES) == (3000, 10)
        assert ds.targets.shape == (3000,)

    def test_feature_effect_values(self):
        f1, _, _, _, f5, f6 = NAM_FEATURE_FNS
        assert f6(1.7) == 1.7
        assert f5(-2.0) == -8.0
        assert f1(1.0) == pytest.approx(2.0 * np.tanh(1.0), rel=1e-12)

    def test_inputs_cover_the_stated_range(self):
        ds = make_nam_synthetic(make_rng(1))
        assert ds.features.min() >= -2.5
        assert ds.features.max() < 2.5

    def test_target_is_standardized(self):
        ds = make_nam_synthetic(make_rng(2))
        assert abs(ds.targets.mean()) < 1e-12
        assert ds.targets.std() == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bit_identical(self):
        a = make_nam_synthetic(make_rng(9))
        b = make_nam_synthetic(make_rng(9))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_different_seed_differs(self):
        a = make_nam_synthetic(make_rng(0))
        b = make_nam_synthetic(make_rng(1))
        assert not np.array_equal(a.targets, b.targets)


@pytest.fixture(scope="module")
def problem():
    return NamProblem(make_nam_synthetic(make_rng(3)))


class TestNamProblem:

    def test_split_and_dimensions(self, problem):
        assert problem.train.n == 2400
        assert problem.test.n == 600
        # per sub-network: 1*32 + 32 + 32*32 + 32 + 32*1 + 1 = 1153
        assert problem.per_subnet == 1153
        assert problem.dim == 1 + 10 * 1153

    def test_layout_is_bias_plus_one_group_per_feature(self, problem):
        lay = problem.default_layout
        assert lay.k == 11
        assert lay.names == ("bias",) + tuple(f"f{k}" for k in range(1, 11))
        assert lay.lengths == (1,) + (1153,) * 10

    def test_constant_predictor_loss_is_batch_variance(self, problem):
        batch = np.arange(256)
        y = problem.train.targets[batch]
        w = np.zeros(problem.dim)
        w[0] = y.mean()
        assert problem.loss(w, batch) == pytest.approx(y.var(), rel=1e-12)

    def test_zero_weights_predict_bias(self, problem):
        w = np.zeros(problem.dim)
        w[0] = 0.37
        pred = problem.predict(w, problem.train.features[:5])
        assert np.allclose(pred, 0.37, atol=1e-15)

    def test_loss_matches_prediction_mse(self, problem):
        rng = make_rng(4)
        w = problem.init_params(rng)
        batch = rng.choice(problem.train.n, 64, replace=False)
        x, y = problem.train.take(batch)
        direct = float(np.mean((problem.predict(w, x) - y) ** 2))
        assert problem.loss(w, batch) == pytest.approx(direct, rel=1e-12)

    def test_loss_deterministic_bitwise(self, problem):
        w = problem.init_params(make_rng(5))
        batch = np.arange(128)
        assert problem.loss(w, batch) == problem.loss(w.copy(), batch.copy())

    def test_grad_deterministic_bitwise(self, problem):
        w = problem.init_params(make_rng(6))
        batch = np.arange(64)
        g1 = problem.grad(w, batch)
        g2 = problem.grad(w.copy(), batch.copy())
        assert g1.tobytes() == g2.tobytes()

    def test_feature_count_mismatch_rejected(self):
        ds = make_nam_synthetic(make_rng(0))
        with pytest.raises(DimensionMismatch):
            NamProblem(ds, n_features=7)

    def test_empty_hidden_sizes_rejected(self):
        ds = make_nam_synthetic(make_rng(0))
        with pytest.raises(DimensionMismatch):
            NamProblem(ds, hidden_sizes=())

    def test_test_metrics_reports_mse(self, problem):
        w = np.zeros(problem.dim)
        metrics = problem.test_metrics(w)
        expected = float(np.mean(problem.test.targets**2))
        assert metrics["test_loss"] == pytest.approx(expected, rel=1e-12)
