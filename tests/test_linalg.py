"""Least squares, R^2, and RNG plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidlr.errors import LengthMismatch
from hidlr.linalg import make_rng, r2_score, spawn_rngs

from oracle import SingularSystem, solve_least_squares


class TestSolveLeastSquares:
    def test_line_through_origin(self):
        beta = solve_least_squares(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert np.allclose(beta, [2.0], atol=1e-12)

    def test_identity_design(self):
        beta = solve_least_squares(np.eye(2), np.array([3.0, 5.0]))
        assert np.allclose(beta, [3.0, 5.0], atol=1e-12)

    def test_simple_regression_by_hand(self):
        x = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        beta = solve_least_squares(x, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(beta, [0.0, 1.0], atol=1e-10)

    def test_residual_orthogonal_to_columns(self):
        rng = make_rng(0)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        beta = solve_least_squares(x, y)
        resid = x @ beta - y
        assert np.max(np.abs(x.T @ resid)) < 1e-8 * np.linalg.norm(y)

    def test_orthonormal_columns_give_xty(self):
        rng = make_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        y = rng.standard_normal(10)
        beta = solve_least_squares(q, y)
        assert np.max(np.abs(beta - q.T @ y)) < 1e-10

    def test_singular_design_rejected(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
        with pytest.raises(SingularSystem):
            solve_least_squares(x, np.array([1.0, 2.0, 3.0]))

    def test_underdetermined_rejected(self):
        with pytest.raises(LengthMismatch):
            solve_least_squares(np.ones((1, 2)), np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            solve_least_squares(np.eye(3), np.array([1.0, 2.0]))


class TestR2Score:
    def test_perfect_fit(self):
        assert r2_score(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 1.0

    def test_mean_predictor_scores_zero(self):
        # SS_res = SS_tot = 2
        assert r2_score(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])) == 0.0

    def test_constant_truth_degenerate_rule(self):
        assert r2_score(np.array([5.0, 5.0, 5.0]), np.array([1.0, 9.0, 2.0])) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(LengthMismatch):
            r2_score(np.array([1.0]), np.array([1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            r2_score(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_exceeds_one(self, seed):
        rng = make_rng(seed)
        y = rng.standard_normal(8)
        pred = rng.standard_normal(8)
        assert r2_score(y, pred) <= 1.0
        assert r2_score(y, y.copy()) == 1.0


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).standard_normal(100)
        b = make_rng(7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_spawn_streams_differ_but_are_deterministic(self):
        r1, r2 = spawn_rngs(5, 2)
        s1, s2 = spawn_rngs(5, 2)
        assert np.array_equal(r1.standard_normal(5), s1.standard_normal(5))
        assert not np.array_equal(
            spawn_rngs(5, 2)[0].standard_normal(5),
            spawn_rngs(5, 2)[1].standard_normal(5),
        )
