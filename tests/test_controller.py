"""Probe construction, quadratic fits, gating, and the full step loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidlr.controller import (
    PROBE_MULTIPLIERS,
    HiDlrConfig,
    LrState,
    ProbeMatrix,
    QuadraticFit,
    build_probe_matrix,
    evaluate_probes,
    fit_diag_quadratic,
    forward_pass_budget,
    gate_and_update,
    hidlr_step,
    initial_lr_state,
    optimal_lr,
)
from hidlr.errors import NonFiniteLoss, SingularFit, ValidationError
from hidlr.harness.runner import CountingProblem
from hidlr.linalg import make_rng, r2_score
from hidlr.optim import OptimizerState, apply_update, direction
from hidlr.problems import GroupLayout, ellipse_problem
from hidlr.problems.base import Dataset, LossProblem
from hidlr.problems.toy2d import FunctionProblem

from conftest import assert_bit_identical
from oracle import quadratic_problem, solve_least_squares


def parabola_deltas(probe, a, b):
    """Exact dL = 0.5*a*xi^2 - b*xi at the probe scales, flat and group-major."""
    xi = probe.xi_table()
    a_col = np.asarray(a, dtype=float)[:, None]
    b_col = np.asarray(b, dtype=float)[:, None]
    return (0.5 * a_col * xi**2 - b_col * xi).ravel()


class PoleProblem(LossProblem):
    """mean(1 / (w - x)^2) + w^2 over the batch's rows x: a pole at each row."""

    dim = 1
    default_layout = GroupLayout.from_sizes([("w", 1)])
    name = "pole"

    def __init__(self, x):
        self.train = Dataset(np.reshape(x, (-1, 1)), np.zeros(len(x)))

    def loss(self, w, batch=None):
        x = self.resolve_batch(batch)[0][:, 0]
        return float(np.mean(1.0 / (w[0] - x) ** 2) + w[0] ** 2)

    def loss_and_grad(self, w, batch=None):
        x = self.resolve_batch(batch)[0][:, 0]
        return self.loss(w, batch), np.array([np.mean(-2.0 / (w[0] - x) ** 3) + 2.0 * w[0]])


class TestProbeMatrix:
    def test_two_group_rows(self):
        probe = build_probe_matrix(np.array([0.1, 0.5]))
        expected = np.array([[-0.2, -0.1, 0.1, 0.2], [-1.0, -0.5, 0.5, 1.0]])
        assert np.allclose(probe.xi_table(), expected)
        assert probe.k == 2
        assert not probe.floored.any()

    def test_single_group(self):
        probe = build_probe_matrix(np.array([1e-3]))
        assert probe.xi_table().shape == (1, 4)
        assert np.allclose(probe.xi_table()[0], PROBE_MULTIPLIERS * 1e-3)

    def test_xi_ordering_is_group_major(self):
        probe = build_probe_matrix(np.array([0.1, 0.5]))
        xi = probe.xi_table().ravel()
        assert np.allclose(xi, [-0.2, -0.1, 0.1, 0.2, -1.0, -0.5, 0.5, 1.0])
        fit = fit_diag_quadratic(probe, np.arange(8.0))
        assert_bit_identical(fit.xi, xi)

    def test_tiny_rate_floored(self):
        probe = build_probe_matrix(np.array([1e-15, 0.5]), probe_floor=1e-12)
        assert probe.floored.tolist() == [True, False]
        assert probe.eta_base[0] == 1e-12
        assert probe.eta_base[1] == 0.5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_one_nonzero_per_row(self, k, seed):
        eta = make_rng(seed).uniform(1e-6, 1.0, k)
        probe = build_probe_matrix(eta)
        table = probe.xi_table()
        assert table.shape == (k, 4)
        xi = table.ravel()
        for j in range(4 * k):
            # probe j moves group j // 4 alone, by v_j times that group's rate
            v = PROBE_MULTIPLIERS[j % 4]
            assert table[j // 4, j % 4] == v * eta[j // 4] == xi[j] != 0.0


class TestEvaluateProbes:
    def test_zero_direction_zero_deltas(self):
        problem = ellipse_problem()
        w = problem.init_params(make_rng(0))
        layout = problem.default_layout
        probe = build_probe_matrix(np.array([1e-3, 1e-3]))
        l0 = problem.loss(w)
        deltas = evaluate_probes(problem, w, np.zeros(2), layout, probe, None, l0)
        assert np.array_equal(deltas, np.zeros(8))

    def test_ellipse_first_row_value(self):
        # x: 50 -> 50.2, so dL = 50.2^2 - 50^2 = 20.04
        problem = ellipse_problem()
        w = np.array([50.0, 1.0])
        d = problem.grad(w)  # (100, 200)
        probe = build_probe_matrix(np.array([1e-3, 1e-3]))
        deltas = evaluate_probes(
            problem, w, d, problem.default_layout, probe, None, problem.loss(w)
        )
        assert deltas[0] == pytest.approx(20.04, rel=1e-12)

    def test_parameters_left_untouched(self):
        problem = ellipse_problem()
        w = np.array([3.0, -2.0])
        before = w.tobytes()
        probe = build_probe_matrix(np.array([0.1, 0.1]))
        l0 = problem.loss(w)
        evaluate_probes(
            problem, w, problem.grad(w), problem.default_layout, probe, None, l0
        )
        assert w.tobytes() == before
        assert problem.loss(w) == l0

    @pytest.mark.parametrize(
        "k, fails, row, group",
        [
            # rows move w[0] to 3.02, 2.01, -0.01, -1.02: the third is the first to fail
            (1, lambda w: w[0] < 0, 2, 0),
            # group 0 is never refused; group 1's rows move w[1] as above, and its
            # second (row 5) fails first, before its fourth (row 7)
            (2, lambda w: 1.5 < w[1] < 2.5 or w[1] < -0.5, 5, 1),
        ],
        ids=["K1", "K2"],
    )
    def test_non_finite_probe_evaluates_every_probe(self, k, fails, row, group):
        def guarded(w):
            return np.inf if fails(w) else float(w.sum())

        inner = FunctionProblem(
            fn=guarded, grad_fn=lambda w: np.ones(k), init=np.ones(k), name="guard"
        )
        problem = CountingProblem(inner)
        probe = build_probe_matrix(np.full(k, 1.01))
        w = np.ones(k)
        message = rf"^probe row {row} \(group {group}\) gave loss inf$"
        with pytest.raises(NonFiniteLoss, match=message):
            evaluate_probes(
                problem, w, np.ones(k), inner.default_layout, probe, None, inner.loss(w)
            )
        assert problem.train_loss_calls == 4 * k

    def test_non_finite_anchor_raises(self):
        problem = PoleProblem([1.0, 3.0])
        probe = build_probe_matrix(np.array([1e-3]))
        w = np.array([1.0])
        with np.errstate(divide="ignore"), pytest.raises(
            NonFiniteLoss, match="^probe anchor gave loss inf$"
        ):
            evaluate_probes(
                problem, w, np.ones(1), problem.default_layout, probe, None, None
            )


def lstsq_fit(probe, delta_l):
    """(a, b, predicted, r2_group) from one SVD least squares per group.

    The reference for the closed form: each group's four probes plus the
    exact (0, 0), in u = xi/eta, solved with ``solve_least_squares``.
    """
    u = np.append(PROBE_MULTIPLIERS, 0.0)
    design = np.column_stack([0.5 * u**2, -u])
    k = probe.k
    a, b, r2_group = np.empty(k), np.empty(k), np.empty(k)
    predicted = np.empty(4 * k)
    for g in range(k):
        eta = probe.eta_base[g]
        rows = slice(4 * g, 4 * g + 4)
        coef = solve_least_squares(design, np.append(delta_l[rows], 0.0))
        a[g] = coef[0] / eta**2
        b[g] = coef[1] / eta
        predicted[rows] = design[:4] @ coef
        r2_group[g] = r2_score(delta_l[rows], predicted[rows])
    return a, b, predicted, r2_group


def assert_rel_close(actual, expected):
    """Equal to 1e-12 relative, an entry near 0 measured against the largest."""
    expected = np.asarray(expected)
    atol = 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=atol)


class TestFitDiagQuadratic:
    @pytest.mark.parametrize("k", [1, 2, 11, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_group_lstsq(self, k, seed):
        rng = make_rng(seed)
        probe = build_probe_matrix(10.0 ** rng.uniform(-6, 0, k))
        delta_l = rng.standard_normal(4 * k) * 10.0 ** rng.uniform(-8, 2, 4 * k)
        fit = fit_diag_quadratic(probe, delta_l)
        a, b, predicted, r2_group = lstsq_fit(probe, delta_l)
        for actual, expected in [
            (fit.a, a), (fit.b, b), (fit.predicted, predicted), (fit.r2_group, r2_group)
        ]:
            assert actual.shape == expected.shape
            assert_rel_close(actual, expected)
        assert fit.r2_pooled == pytest.approx(r2_score(delta_l, predicted), rel=1e-12)

    def test_constant_and_exact_parabola_groups(self):
        probe = build_probe_matrix(np.array([0.1, 0.02, 0.5]))
        delta_l = parabola_deltas(probe, a=[2.0, 30.0, 0.4], b=[3.0, 0.5, -1.0])
        delta_l[4:8] = 0.25  # group 1 answers every probe alike
        delta_l[8:] += make_rng(4).standard_normal(4) * 0.05  # group 2: noisy
        fit = fit_diag_quadratic(probe, delta_l)
        _, _, _, r2_group = lstsq_fit(probe, delta_l)
        assert fit.r2_group[1] == 0.0 == r2_group[1]
        assert fit.r2_group[0] == pytest.approx(1.0, abs=1e-12)
        assert_rel_close(fit.r2_group, r2_group)
        assert 0.0 < fit.r2_group[2] < 1.0

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_unusable_probe_scale_names_its_group(self, bad):
        probe = ProbeMatrix(
            eta_base=np.array([0.1, 0.2, bad, 0.3]), floored=np.zeros(4, dtype=bool)
        )
        with pytest.raises(SingularFit, match=r"group 2 probe scale"):
            fit_diag_quadratic(probe, np.ones(16))

    def test_known_parabola(self):
        probe = build_probe_matrix(np.array([0.1]))
        fit = fit_diag_quadratic(probe, np.array([0.64, 0.31, -0.29, -0.56]))
        assert fit.a[0] == pytest.approx(2.0, rel=1e-12)
        assert fit.b[0] == pytest.approx(3.0, rel=1e-12)
        assert fit.r2_group[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.r2_pooled == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_responses_give_zero_slope(self):
        probe = build_probe_matrix(np.array([0.5]))
        xi = probe.xi_table().ravel()
        fit = fit_diag_quadratic(probe, 3.0 * xi**2)
        assert fit.b[0] == pytest.approx(0.0, abs=1e-14)
        assert fit.a[0] == pytest.approx(6.0, rel=1e-12)

    def test_flat_responses(self):
        probe = build_probe_matrix(np.array([0.1, 0.2]))
        fit = fit_diag_quadratic(probe, np.zeros(8))
        assert np.array_equal(fit.a, np.zeros(2))
        assert np.array_equal(fit.b, np.zeros(2))
        assert np.array_equal(fit.r2_group, np.zeros(2))
        assert fit.r2_pooled == 0.0

    def test_groups_fit_independently(self):
        probe = build_probe_matrix(np.array([0.1, 0.01]))
        deltas = parabola_deltas(probe, a=[2.0, 40.0], b=[3.0, -1.0])
        fit = fit_diag_quadratic(probe, deltas)
        assert np.allclose(fit.a, [2.0, 40.0], rtol=1e-10)
        assert np.allclose(fit.b, [3.0, -1.0], rtol=1e-10)

    def test_wrong_length_rejected(self):
        probe = build_probe_matrix(np.array([0.1]))
        with pytest.raises(SingularFit):
            fit_diag_quadratic(probe, np.zeros(5))

    def test_nan_responses_rejected(self):
        probe = build_probe_matrix(np.array([0.1]))
        with pytest.raises(NonFiniteLoss):
            fit_diag_quadratic(probe, np.array([0.1, np.nan, 0.1, 0.2]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_recovers_random_parabolas(self, seed):
        rng = make_rng(seed)
        k = int(rng.integers(1, 5))
        a = rng.uniform(0.1, 10.0, k)
        b = rng.uniform(-5.0, 5.0, k)
        probe = build_probe_matrix(rng.uniform(1e-4, 1e-1, k))
        fit = fit_diag_quadratic(probe, parabola_deltas(probe, a, b))
        assert np.allclose(fit.a, a, rtol=1e-8)
        assert np.allclose(fit.b, b, rtol=1e-8, atol=1e-12)
        assert fit.r2_pooled == pytest.approx(1.0, abs=1e-9)


def make_fit(a, b, r2_group=None, r2_pooled=1.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if r2_group is None:
        r2_group = np.ones_like(a)
    filler = np.zeros(4 * a.shape[0])
    return QuadraticFit(
        a=a,
        b=b,
        r2_group=np.asarray(r2_group, dtype=float),
        r2_pooled=float(r2_pooled),
        xi=filler,
        delta_l=filler,
        predicted=filler,
    )


class TestOptimalLr:
    def test_ratio(self):
        eta_star = optimal_lr(make_fit([2.0, 8.0], [3.0, 2.0]))
        assert np.allclose(eta_star, [1.5, 0.25])

    def test_bad_curvature_marked_nan(self):
        eta_star = optimal_lr(make_fit([2.0, 0.0, -1.0], [3.0, 1.0, 1.0]))
        assert eta_star[0] == pytest.approx(1.5)
        assert np.isnan(eta_star[1]) and np.isnan(eta_star[2])

    def test_persistence_scales_ratio(self):
        eta_star = optimal_lr(make_fit([2.0, 8.0, -1.0], [3.0, 2.0, 1.0]), 0.9)
        assert np.allclose(eta_star[:2], [0.15, 0.025], rtol=1e-12)
        assert np.isnan(eta_star[2])


class TestPersistenceTarget:
    """Momentum-type directions move toward (1 - persistence) * b/a."""

    def first_refresh(self, problem, kind, gamma=0.0, **hyper):
        cfg = HiDlrConfig(phi=1, gamma=gamma)
        lr_state = initial_lr_state(cfg, problem.default_layout.k)
        opt = OptimizerState.create(kind, problem.dim, **hyper)
        w = problem.init_params(make_rng(0))
        return hidlr_step(
            problem, w, lr_state, opt, cfg, problem.default_layout, None, t=0
        ).refresh

    def parabola(self):
        # L = 0.5*4*w^2 from w=2; the gradient there is 8
        return quadratic_problem(np.array([[4.0]]), np.array([2.0]))

    @pytest.mark.parametrize("beta1", [0.9, 0.5])
    def test_adamw_targets_one_minus_beta1_of_newton_step(self, beta1):
        refresh = self.first_refresh(self.parabola(), "adamw", beta1=beta1)
        fit = refresh.fit
        assert refresh.accepted
        assert_bit_identical(refresh.eta_star, (1.0 - beta1) * (fit.b / fit.a))
        # first AdamW direction is g/(|g| + eps); b/a = 2/d is the line minimum
        d = 8.0 / (8.0 + 1e-8)
        assert refresh.eta_star[0] == pytest.approx((1.0 - beta1) * 2.0 / d, rel=1e-9)
        assert_bit_identical(refresh.eta_after, refresh.eta_star)

    def test_momentum_targets_one_minus_mu_of_newton_step(self):
        # the first heavy-ball direction is g itself, so b/a = 1/4
        refresh = self.first_refresh(self.parabola(), "momentum", mu=0.8)
        assert refresh.eta_star[0] == pytest.approx(0.2 * 0.25, rel=1e-9)

    def test_sgd_refresh_unchanged(self):
        refresh = self.first_refresh(ellipse_problem(), "sgd", gamma=0.9)
        fit = refresh.fit
        assert_bit_identical(refresh.eta_star, fit.b / fit.a)
        expected = np.clip(
            0.9 * refresh.eta_before + (1.0 - 0.9) * (fit.b / fit.a), 1e-10, 1e2
        )
        assert_bit_identical(refresh.eta_after, expected)


class TestGateAndUpdate:
    def cfg(self, **kw):
        kw.setdefault("gamma", 0.9)
        return HiDlrConfig(**kw)

    def test_accept_moves_by_ema(self):
        state = LrState(eta=np.array([0.01]))
        fit = make_fit([1.0], [0.03])
        out = gate_and_update(state, fit, optimal_lr(fit), self.cfg())
        assert out.accepted is True
        assert out.eta[0] == pytest.approx(0.9 * 0.01 + 0.1 * 0.03, rel=1e-12)

    def test_gamma_zero_jumps_to_optimum(self):
        state = LrState(eta=np.array([0.01]))
        fit = make_fit([4.0], [1.0])
        out = gate_and_update(state, fit, optimal_lr(fit), self.cfg(gamma=0.0))
        assert out.eta[0] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b, r2",
        [
            ([-1.0, 2.0], [1.0, 1.0], 1.0),  # one negative curvature
            ([2.0, 2.0], [1.0, -1.0], 1.0),  # one negative slope
            ([2.0, 2.0], [1.0, 1.0], 0.5),  # poor pooled fit
        ],
    )
    def test_reject_keeps_rates_bit_identical(self, a, b, r2):
        eta = np.array([0.0123456789, 0.987654321e-3])
        state = LrState(eta=eta)
        fit = make_fit(a, b, r2_pooled=r2)
        out = gate_and_update(state, fit, optimal_lr(fit), self.cfg())
        assert out.accepted is False
        assert out.eta is eta  # not even copied
        assert_bit_identical(out.eta, eta)
        assert out.reason != "ok"

    def test_clamped_to_eta_max(self):
        state = LrState(eta=np.array([0.5]))
        fit = make_fit([1e-4], [10.0])  # eta_star = 1e5
        out = gate_and_update(
            state, fit, optimal_lr(fit), self.cfg(eta_max=1.0, gamma=0.0)
        )
        assert out.eta[0] == 1.0

    def test_clamped_to_eta_min(self):
        state = LrState(eta=np.array([1e-8]))
        fit = make_fit([1e8], [1.0])  # eta_star = 1e-8, EMA can undershoot floor
        out = gate_and_update(
            state, fit, optimal_lr(fit), self.cfg(eta_min=1e-6, gamma=0.0)
        )
        assert out.eta[0] == 1e-6

    def test_per_group_partial_accept(self):
        eta = np.array([0.01, 0.02])
        state = LrState(eta=eta)
        fit = make_fit([2.0, -1.0], [3.0, 1.0])
        cfg = self.cfg(gating="per-group", gamma=0.0)
        out = gate_and_update(state, fit, optimal_lr(fit), cfg)
        assert out.accepted is True
        assert out.reason == "accepted 1/2 groups"
        assert out.eta[0] == pytest.approx(1.5)
        assert out.eta[1] == 0.02  # untouched

    def test_per_group_all_bad_rejects(self):
        eta = np.array([0.01, 0.02])
        state = LrState(eta=eta)
        fit = make_fit([-2.0, -1.0], [3.0, 1.0])
        cfg = self.cfg(gating="per-group")
        out = gate_and_update(state, fit, optimal_lr(fit), cfg)
        assert out.accepted is False
        assert out.eta is eta

    def test_global_mode_needs_every_group(self):
        state = LrState(eta=np.array([0.01, 0.02]))
        fit = make_fit([2.0, -1.0], [3.0, 1.0])
        out = gate_and_update(state, fit, optimal_lr(fit), self.cfg())
        assert out.accepted is False

    @pytest.mark.parametrize(
        "a, b, r2, reason",
        [
            ([2.0, 2.0], [1.0, 1.0], 1.0, "ok"),
            ([-1.0, 2.0], [1.0, 1.0], 1.0, "curvature a not positive for all groups"),
            ([2.0, 2.0], [1.0, -1.0], 1.0, "slope b not positive for all groups"),
            ([2.0, 2.0], [1.0, 1.0], 0.5, "pooled R2 0.5 <= 0.95"),
            (
                [-1.0, 2.0],
                [1.0, -1.0],
                1.0,
                "curvature a not positive for all groups; "
                "slope b not positive for all groups",
            ),
        ],
    )
    def test_global_reasons(self, a, b, r2, reason):
        eta = np.array([0.01, 0.02])
        fit = make_fit(a, b, r2_pooled=r2)
        out = gate_and_update(LrState(eta=eta), fit, optimal_lr(fit), self.cfg())
        assert out.reason == reason
        assert out.accepted is (reason == "ok")

    @pytest.mark.parametrize(
        "a, r2_group, reason, accepted",
        [
            ([2.0, 2.0], [1.0, 1.0], "ok", True),
            ([2.0, 2.0], [1.0, 0.5], "accepted 1/2 groups", True),
            ([-2.0, 2.0], [1.0, 0.5], "no group passed", False),
        ],
    )
    def test_per_group_reasons(self, a, r2_group, reason, accepted):
        eta = np.array([0.01, 0.02])
        fit = make_fit(a, [3.0, 1.0], r2_group=r2_group, r2_pooled=0.0)
        cfg = self.cfg(gating="per-group")
        out = gate_and_update(LrState(eta=eta), fit, optimal_lr(fit), cfg)
        assert out.reason == reason
        assert out.accepted is accepted
        assert (out.eta is eta) is not accepted


class TestHiDlrStep:
    def test_no_refresh_off_schedule(self):
        problem = ellipse_problem()
        cfg = HiDlrConfig(phi=10)
        lr_state = initial_lr_state(cfg, 2)
        opt = OptimizerState.create("sgd", 2)
        w = problem.init_params(make_rng(0))
        counted = CountingProblem(problem)
        result = hidlr_step(
            counted, w, lr_state, opt, cfg, problem.default_layout, None, t=3
        )
        assert result.refresh is None
        assert counted.train_loss_calls == 1
        assert_bit_identical(result.lr_state.eta, lr_state.eta)

    def test_refresh_at_t_zero(self):
        problem = ellipse_problem()
        cfg = HiDlrConfig(phi=10)
        lr_state = initial_lr_state(cfg, 2)
        opt = OptimizerState.create("sgd", 2)
        w = problem.init_params(make_rng(0))
        counted = CountingProblem(problem)
        result = hidlr_step(
            counted, w, lr_state, opt, cfg, problem.default_layout, None, t=0
        )
        assert result.refresh is not None
        assert counted.train_loss_calls == 1 + 8

    def test_one_accepted_refresh_solves_1d_quadratic(self):
        # L = 0.5*4*w^2 from w=2: eta* = 1/4 is the exact line-search step
        problem = quadratic_problem(np.array([[4.0]]), np.array([2.0]))
        cfg = HiDlrConfig(phi=1, gamma=0.0)
        lr_state = initial_lr_state(cfg, 1)
        opt = OptimizerState.create("sgd", 1)
        w = problem.init_params(make_rng(0))
        result = hidlr_step(
            problem, w, lr_state, opt, cfg, problem.default_layout, None, t=0
        )
        assert result.refresh.accepted
        assert result.lr_state.eta[0] == pytest.approx(0.25, rel=1e-9)
        assert abs(result.w[0]) < 1e-9
        assert result.l0 == pytest.approx(8.0)

    def test_rejected_refresh_keeps_stale_rates(self):
        # linear loss: fitted curvature is exactly zero, so the gate refuses
        problem = FunctionProblem(
            fn=lambda w: float(w.sum()),
            grad_fn=lambda w: np.ones(2),
            init=[1.0, 1.0],
            name="linear",
        )
        cfg = HiDlrConfig(phi=1)
        lr_state = initial_lr_state(cfg, 1)
        eta_before = lr_state.eta.copy()
        opt = OptimizerState.create("sgd", 2)
        layout = GroupLayout.from_sizes([("all", 2)])
        result = hidlr_step(
            problem, np.array([1.0, 1.0]), lr_state, opt, cfg, layout, None, t=0
        )
        assert result.refresh.accepted is False
        assert_bit_identical(result.lr_state.eta, eta_before)
        # training still proceeded with the old rate
        assert np.allclose(result.w, 1.0 - eta_before[0])

    def test_probe_failure_rejects_but_training_continues(self):
        def guarded(w):
            return float((w**2).sum()) if w[0] < 1.5 else np.nan

        problem = FunctionProblem(
            fn=guarded, grad_fn=lambda w: 2 * w, init=[1.0], name="guard"
        )
        cfg = HiDlrConfig(phi=1, eta0=0.5)
        lr_state = initial_lr_state(cfg, 1)
        opt = OptimizerState.create("sgd", 1)
        layout = GroupLayout.from_sizes([("all", 1)])
        result = hidlr_step(
            problem, np.array([1.0]), lr_state, opt, cfg, layout, None, t=0
        )
        assert result.refresh.accepted is False
        assert "non-finite" in result.refresh.reason
        assert result.lr_state.eta[0] == 0.5
        assert np.isfinite(result.w).all()

    def test_non_finite_fresh_batch_anchor_rejects_but_training_continues(self):
        # the step batch {0, 2} is finite at w = 1; the probe batch {1, 3} has
        # its pole at w = 1, so only the probe anchor is non-finite
        problem = CountingProblem(PoleProblem([0.0, 1.0, -1.0, 3.0]))
        cfg = HiDlrConfig(phi=1)
        lr_state = initial_lr_state(cfg, 1)
        w = np.array([1.0])
        with np.errstate(divide="ignore"):
            result = hidlr_step(
                problem,
                w,
                lr_state,
                OptimizerState.create("sgd", 1),
                cfg,
                problem.default_layout,
                np.array([0, 2]),
                t=0,
                probe_batch=np.array([1, 3]),
            )
        assert result.refresh.accepted is False
        assert result.refresh.fit is None
        assert result.refresh.reason == "non-finite probe: probe anchor gave loss inf"
        assert_bit_identical(result.lr_state.eta, lr_state.eta)
        # 1/(w - 0)^2 and 1/(w + 1)^2 give a gradient of -2 - 1/4 + 2 at w = 1
        assert result.w[0] == 1.0 - 1e-3 * 0.875
        assert problem.train_loss_calls == 1 + 1 + 4

    def test_separate_probe_batch_costs_one_extra_call(self):
        problem = ellipse_problem()
        cfg = HiDlrConfig(phi=1)
        lr_state = initial_lr_state(cfg, 2)
        opt = OptimizerState.create("sgd", 2)
        w = problem.init_params(make_rng(0))
        counted = CountingProblem(problem)
        hidlr_step(
            counted,
            w,
            lr_state,
            opt,
            cfg,
            problem.default_layout,
            None,
            t=0,
            probe_batch=np.arange(4),
        )
        assert counted.train_loss_calls == 1 + 1 + 8

    def test_no_config_is_a_plain_step(self):
        problem = ellipse_problem()
        layout = problem.default_layout
        eta = np.array([3e-3, 7e-4])
        w = problem.init_params(make_rng(0))
        opt = OptimizerState.create("adamw", 2)
        counted = CountingProblem(problem)
        result = hidlr_step(counted, w, LrState(eta=eta), opt, None, layout, None, t=0)
        assert result.refresh is None
        assert counted.train_loss_calls == 1
        assert result.lr_state.eta is eta
        fresh = OptimizerState.create("adamw", 2)
        expected = apply_update(w, layout, eta, direction(fresh, problem.grad(w), w))
        assert_bit_identical(result.w, expected)

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("plain", 1),
            ("same batch", 1 + 4 * 2),
            ("fresh batch", 2 + 4 * 2),
            ("non-finite probe", 1 + 4 * 1),
        ],
    )
    def test_step_declares_its_loss_calls(self, case, expected):
        if case == "non-finite probe":
            # probes move w to 3.0, 2.0, 0.0 and -1.0: the first two are NaN
            problem = FunctionProblem(
                fn=lambda w: float(w[0] ** 2) if w[0] < 1.5 else np.nan,
                grad_fn=lambda w: 2 * w,
                init=[1.0],
                name="guard",
            )
            cfg = HiDlrConfig(eta0=0.5)
        else:
            problem = ellipse_problem()
            cfg = None if case == "plain" else HiDlrConfig()
        layout = problem.default_layout
        counted = CountingProblem(problem)
        result = hidlr_step(
            counted,
            problem.init_params(make_rng(0)),
            initial_lr_state(HiDlrConfig(eta0=0.5), layout.k),
            OptimizerState.create("sgd", problem.dim),
            cfg,
            layout,
            None,
            t=0,
            probe_batch=np.arange(4) if case == "fresh batch" else None,
        )
        assert result.loss_calls == counted.train_loss_calls == expected
        if case == "non-finite probe":
            assert result.refresh.reason.startswith("non-finite probe")


class TestForwardPassBudget:
    @pytest.mark.parametrize(
        "t, k, phi, expected",
        [(100, 2, 10, 180), (100, 1, 1, 500), (7, 3, 10, 19)],
    )
    def test_reference_values(self, t, k, phi, expected):
        assert forward_pass_budget(t, k, phi) == expected

    def test_phi_larger_than_t_still_probes_once(self):
        assert forward_pass_budget(5, 2, 100) == 5 + 8

    def test_every_step_probed_is_5t_for_one_group(self):
        assert forward_pass_budget(10, 1, 1) == 50

    def test_fresh_probe_batch_adds_one_call_per_refresh(self):
        # nam-synthetic: T = 900, K = 11, phi = 2 -> 450 refreshes of 44 + 1
        assert forward_pass_budget(900, 11, 2, fresh_probe_batch=1) == 21150
        assert forward_pass_budget(900, 11, 2, fresh_probe_batch=0) == 20700

    def test_fresh_probe_batch_is_zero_or_one(self):
        with pytest.raises(ValidationError):
            forward_pass_budget(10, 1, 1, fresh_probe_batch=2)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ValidationError):
            forward_pass_budget(*bad)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"phi": 0},
            {"phi": 2.5},
            {"gamma": 1.0},
            {"gamma": -0.1},
            {"r2_threshold": 0.0},
            {"r2_threshold": 1.5},
            {"eta_min": 1.0, "eta_max": 0.5},
            {"probe_floor": 0.0},
            {"gating": "sometimes"},
            {"eta0": []},
            {"eta0": [1e-3, 0.0]},
            {"eta0": float("inf")},
            {"eta0": "fast"},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValidationError):
            HiDlrConfig(**kw)

    def test_scalar_eta0_broadcasts(self):
        state = initial_lr_state(HiDlrConfig(eta0=1e-3), 4)
        assert np.array_equal(state.eta, np.full(4, 1e-3))
        assert state.accepted is None
        assert state.reason == "init"

    def test_vector_eta0_checked_and_clamped(self):
        cfg = HiDlrConfig(eta0=[0.5, 1e-15], eta_min=1e-10)
        assert np.array_equal(cfg.initial_lr(2), [0.5, 1e-10])
        with pytest.raises(ValidationError):
            cfg.initial_lr(3)
        with pytest.raises(ValidationError):
            HiDlrConfig(eta0=[-1.0]).initial_lr(1)
