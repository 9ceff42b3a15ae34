"""Deterministic 2-D test functions."""

import numpy as np
import pytest

from hidlr.errors import LengthMismatch
from hidlr.problems import (
    beale,
    beale_grad,
    beale_rosenbrock_problem,
    ellipse_problem,
    rosenbrock,
    rosenbrock_grad,
)

from oracle import quadratic_problem


class TestEllipse:
    def test_value_at_start(self):
        p = ellipse_problem()
        assert p.loss(np.array([50.0, 1.0])) == 2600.0

    def test_minimum_at_origin(self):
        p = ellipse_problem()
        assert p.loss(np.zeros(2)) == 0.0
        assert np.array_equal(p.grad(np.zeros(2)), np.zeros(2))

    def test_gradient_at_start(self):
        p = ellipse_problem()
        assert np.array_equal(p.grad(np.array([50.0, 1.0])), [100.0, 200.0])

    def test_default_init_and_layout(self):
        p = ellipse_problem()
        assert np.array_equal(p.init_params(None), [50.0, 1.0])
        assert p.default_layout.names == ("x", "y")
        assert p.default_layout.lengths == (1, 1)

    def test_wrong_shape_rejected(self):
        with pytest.raises(LengthMismatch):
            ellipse_problem().loss(np.zeros(3))


class TestBealeRosenbrock:
    def test_minimizer(self):
        p = beale_rosenbrock_problem()
        assert p.loss(np.array([3.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(p.grad(np.array([3.0, 1.0])), 0.0, atol=1e-10)

    def test_rosenbrock_minimum(self):
        assert rosenbrock(1.0, 1.0) == 0.0
        assert rosenbrock_grad(1.0, 1.0) == (0.0, 0.0)

    def test_value_at_init(self):
        # Beale(4, 0.5) + Rosenbrock(1, 3), both evaluated by hand
        p = beale_rosenbrock_problem()
        assert p.loss(np.array([4.0, 3.0])) == pytest.approx(401.578125, abs=1e-12)
        assert np.array_equal(p.init_params(None), [4.0, 3.0])

    def test_beale_grad_matches_fd(self):
        x, y = 1.3, -0.7
        eps = 1e-6
        gx, gy = beale_grad(x, y)
        assert gx == pytest.approx((beale(x + eps, y) - beale(x - eps, y)) / (2 * eps), rel=1e-6)
        assert gy == pytest.approx((beale(x, y + eps) - beale(x, y - eps)) / (2 * eps), rel=1e-6)


class TestQuadraticProblem:
    def test_loss_and_grad(self):
        q = np.array([[2.0, 0.0], [0.0, 200.0]])
        p = quadratic_problem(q, [50.0, 1.0])
        w = p.init_params(None)
        assert p.loss(w) == 0.5 * (2 * 2500 + 200)
        assert np.array_equal(p.grad(w), q @ w)

    def test_loss_is_deterministic(self):
        p = quadratic_problem(np.eye(3), [1.0, 2.0, 3.0])
        w = np.array([0.3, -0.1, 0.7])
        assert p.loss(w) == p.loss(w.copy())

    def test_init_is_a_copy(self):
        p = quadratic_problem(np.eye(2), [1.0, 2.0])
        w = p.init_params(None)
        w[0] = 99.0
        assert np.array_equal(p.init_params(None), [1.0, 2.0])
