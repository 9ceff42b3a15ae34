"""Finite-difference and full-quadratic reference checks."""

import numpy as np
import pytest

from hidlr.linalg import make_rng
from hidlr.problems import FunctionProblem, GroupLayout, ellipse_problem

from oracle import (
    FullQuadraticFit,
    NotPositiveDefinite,
    SingularSystem,
    default_fd_eps,
    fd_directional_curvature,
    fd_directional_grad,
    fit_full_quadratic,
    full_hidlr,
    masked_direction,
    quadratic_problem,
)


class TestFiniteDifferences:
    def test_directional_grad_on_ellipse(self):
        # grad(50, 1) = (100, 200); along e_x the slope is 100
        problem = ellipse_problem()
        w = np.array([50.0, 1.0])
        slope = fd_directional_grad(problem, w, np.array([1.0, 0.0]))
        assert slope == pytest.approx(100.0, rel=1e-9)

    def test_zero_direction(self):
        problem = ellipse_problem()
        value = fd_directional_grad(problem, np.array([1.0, 1.0]), np.zeros(2))
        assert value == 0.0

    def test_linear_function_is_exact(self):
        problem = FunctionProblem(
            fn=lambda w: float(3.0 * w[0] - 2.0 * w[1]),
            grad_fn=lambda w: np.array([3.0, -2.0]),
            init=[0.0, 0.0],
            name="affine",
        )
        d = np.array([1.0, 1.0])
        assert fd_directional_grad(problem, np.zeros(2), d) == pytest.approx(
            1.0, abs=1e-9
        )
        assert fd_directional_curvature(problem, np.zeros(2), d) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_curvature_on_ellipse_axes(self):
        # H = diag(2, 200)
        problem = ellipse_problem()
        w = np.array([5.0, 5.0])
        cx = fd_directional_curvature(problem, w, np.array([1.0, 0.0]))
        cy = fd_directional_curvature(problem, w, np.array([0.0, 1.0]))
        assert cx == pytest.approx(2.0, rel=1e-5)
        assert cy == pytest.approx(200.0, rel=1e-5)

    def test_grad_error_shrinks_quadratically(self):
        # central differences: error ~ eps^2 on a smooth cubic
        problem = FunctionProblem(
            fn=lambda w: float(w[0] ** 4),
            grad_fn=lambda w: np.array([4.0 * w[0] ** 3]),
            init=[1.0],
            name="quartic",
        )
        w, d = np.array([1.0]), np.array([1.0])
        errs = [
            abs(fd_directional_grad(problem, w, d, eps=eps) - 4.0)
            for eps in (1e-2, 1e-3)
        ]
        assert errs[1] < errs[0] * 1e-1  # at least 10x smaller per decade

    def test_default_eps_scales_with_norms(self):
        small = default_fd_eps(np.zeros(2), np.zeros(2))
        assert small == pytest.approx(1e-4)
        # a huge direction shrinks the step to keep displacement bounded
        assert default_fd_eps(np.zeros(2), np.full(2, 1e4)) < 1e-7


class TestMaskedDirection:
    def test_zeroes_other_groups(self):
        layout = GroupLayout.from_sizes([("a", 2), ("b", 3)])
        d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        m = masked_direction(d, layout, 1)
        assert np.array_equal(m, [0.0, 0.0, 3.0, 4.0, 5.0])
        assert np.array_equal(d, [1.0, 2.0, 3.0, 4.0, 5.0])  # input intact


def probe_responses(problem, w, layout, probes, dir_vec):
    l0 = problem.loss(w)
    out = []
    for xi in probes:
        shifted = w - layout.expand(np.asarray(xi)) * dir_vec
        out.append(problem.loss(shifted) - l0)
    return np.array(out)


class TestFullQuadraticFit:
    def test_single_group_reduces_to_scalars(self):
        # L = 0.5*4*w^2 at w=2 along d=g=8: a = 256, b = 64
        problem = quadratic_problem(np.array([[4.0]]), np.array([2.0]))
        layout = GroupLayout.from_sizes([("all", 1)])
        w = np.array([2.0])
        d = problem.grad(w)
        rng = make_rng(0)
        probes = [np.array([x]) for x in rng.uniform(-0.1, 0.1, 8)]
        fit = fit_full_quadratic(probes, probe_responses(problem, w, layout, probes, d))
        assert fit.a_matrix[0, 0] == pytest.approx(256.0, rel=1e-8)
        assert fit.b[0] == pytest.approx(64.0, rel=1e-8)

    def test_separable_problem_has_tiny_cross_terms(self):
        q = np.diag([3.0, 7.0, 11.0])
        problem = quadratic_problem(q, np.array([1.0, -2.0, 0.5]))
        layout = GroupLayout.from_sizes([("a", 1), ("b", 1), ("c", 1)])
        w = problem.init_params(make_rng(0))
        d = problem.grad(w)
        rng = make_rng(1)
        probes = [rng.uniform(-0.05, 0.05, 3) for _ in range(20)]
        fit = fit_full_quadratic(probes, probe_responses(problem, w, layout, probes, d))
        off_diag = fit.a_matrix - np.diag(np.diag(fit.a_matrix))
        assert np.max(np.abs(off_diag)) < 1e-8 * np.max(np.abs(fit.a_matrix))

    def test_recovers_cross_term(self):
        # L = 0.5 w^T Q w with Q = [[2,1],[1,2]]; along d with one coord per
        # group the fitted A is D Q D with D = diag(d)
        q = np.array([[2.0, 1.0], [1.0, 2.0]])
        problem = quadratic_problem(q, np.array([1.0, 1.0]))
        layout = GroupLayout.from_sizes([("x", 1), ("y", 1)])
        w = np.array([1.0, 1.0])
        d = np.array([1.0, 3.0])
        rng = make_rng(2)
        probes = [rng.uniform(-0.1, 0.1, 2) for _ in range(15)]
        fit = fit_full_quadratic(probes, probe_responses(problem, w, layout, probes, d))
        expected = np.diag(d) @ q @ np.diag(d)
        assert np.allclose(fit.a_matrix, expected, rtol=1e-8)
        assert np.allclose(fit.b, (q @ w) * d, rtol=1e-8)

    def test_too_few_probes_rejected(self):
        probes = [np.ones(3)] * 4  # need 3*6/2 = 9
        with pytest.raises(SingularSystem, match="9 coefficients"):
            fit_full_quadratic(probes, np.zeros(4))

    def test_response_length_mismatch(self):
        probes = [make_rng(0).uniform(-1, 1, 2) for _ in range(10)]
        with pytest.raises(SingularSystem):
            fit_full_quadratic(probes, np.zeros(9))


class TestFullHidlr:
    def test_identity_curvature_returns_b(self):
        fit = FullQuadraticFit(a_matrix=np.eye(2), b=np.array([0.3, 0.7]))
        assert np.allclose(full_hidlr(fit), [0.3, 0.7])

    def test_diagonal_matches_ratio(self):
        fit = FullQuadraticFit(
            a_matrix=np.diag([2.0, 8.0]), b=np.array([3.0, 2.0])
        )
        assert np.allclose(full_hidlr(fit), [1.5, 0.25])

    def test_coupled_system(self):
        fit = FullQuadraticFit(
            a_matrix=np.array([[2.0, 1.0], [1.0, 2.0]]), b=np.array([3.0, 3.0])
        )
        assert np.allclose(full_hidlr(fit), [1.0, 1.0])

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[1.0, 0.0], [0.0, -1.0]]),  # indefinite
            np.array([[1.0, 2.0], [0.0, 1.0]]),  # asymmetric
            np.zeros((2, 2)),  # singular
        ],
    )
    def test_bad_curvature_rejected(self, a):
        fit = FullQuadraticFit(a_matrix=a, b=np.ones(2))
        with pytest.raises(NotPositiveDefinite):
            full_hidlr(fit)
