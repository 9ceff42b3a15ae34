"""Optimizer directions, grouped updates, schedulers, and the default rate grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidlr.errors import LengthMismatch, UnknownStrategy
from hidlr.linalg import make_rng
from hidlr.optim import (
    OPTIMIZER_KINDS,
    OptimizerState,
    apply_update,
    default_toy_grid,
    direction,
    scheduler_lr,
)
from hidlr.problems import GroupLayout


class TestDirection:
    def test_sgd_returns_gradient_copy(self):
        state = OptimizerState.create("sgd", 3)
        g = np.array([1.0, -2.0, 3.0])
        d = direction(state, g, np.zeros(3))
        assert np.array_equal(d, g)
        assert d is not g
        assert state.t == 1

    def test_momentum_accumulates(self):
        state = OptimizerState.create("momentum", 2, mu=0.5)
        g = np.array([1.0, 2.0])
        d1 = direction(state, g, np.zeros(2))
        d2 = direction(state, g, np.zeros(2))
        assert np.allclose(d1, g)
        assert np.allclose(d2, 0.5 * g + g)

    def test_adamw_first_step_is_sign_like(self):
        # with bias correction the first direction is g / (|g| + eps)
        state = OptimizerState.create("adamw", 4)
        g = np.array([3.0, -0.5, 1e-3, -7.0])
        d = direction(state, g, np.zeros(4))
        assert np.allclose(d, g / (np.abs(g) + state.eps))
        assert np.allclose(np.abs(d), 1.0, atol=1e-4)

    def test_adamw_weight_decay_added_to_direction(self):
        g = np.array([1.0, 1.0])
        w = np.array([10.0, -10.0])
        plain = direction(OptimizerState.create("adamw", 2), g, w)
        decayed = direction(
            OptimizerState.create("adamw", 2, weight_decay=0.01), g, w
        )
        assert np.allclose(decayed - plain, 0.01 * w)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_in_place_matches_out_of_place_reference(self, weight_decay):
        # the moments used to be rebuilt each step; in place, the bits stay
        hyper = {"beta1": 0.8, "beta2": 0.99, "weight_decay": weight_decay}
        state = OptimizerState.create("adamw", 64, **hyper)
        ref = OptimizerState.create("adamw", 64, **hyper)
        rng = make_rng(0)
        for t in range(1, 21):
            g = rng.standard_normal(64) * 10.0 ** rng.uniform(-6, 2, 64)
            w = rng.standard_normal(64)
            d = direction(state, g, w)
            ref.m = ref.beta1 * ref.m + (1.0 - ref.beta1) * g
            ref.v = ref.beta2 * ref.v + (1.0 - ref.beta2) * g * g
            m_hat = ref.m / (1.0 - ref.beta1**t)
            v_hat = ref.v / (1.0 - ref.beta2**t)
            expected = m_hat / (np.sqrt(v_hat) + ref.eps)
            if weight_decay:
                expected = expected + weight_decay * w
            assert d.tobytes() == expected.tobytes()
            assert state.m.tobytes() == ref.m.tobytes()
            assert state.v.tobytes() == ref.v.tobytes()

    def test_step_counter_increments(self):
        state = OptimizerState.create("adamw", 1)
        for expected in (1, 2, 3):
            direction(state, np.ones(1), np.zeros(1))
            assert state.t == expected

    def test_shape_mismatch_rejected(self):
        state = OptimizerState.create("sgd", 3)
        with pytest.raises(LengthMismatch):
            direction(state, np.ones(2), np.zeros(3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownStrategy, match="nesterov"):
            OptimizerState.create("nesterov", 3)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_zero_gradient_zero_direction(self, kind):
        state = OptimizerState.create(kind, 5)
        d = direction(state, np.zeros(5), np.zeros(5))
        assert np.allclose(d, 0.0)


class TestApplyUpdate:
    def test_single_group_matches_plain_step(self):
        layout = GroupLayout.from_sizes([("all", 4)])
        w = np.arange(4.0)
        d = np.array([1.0, -1.0, 2.0, 0.5])
        out = apply_update(w, layout, np.array([0.1]), d)
        assert out.tobytes() == (w - 0.1 * d).tobytes()

    def test_zero_rate_leaves_group_unchanged(self):
        layout = GroupLayout.from_sizes([("a", 2), ("b", 2)])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        out = apply_update(w, layout, np.array([0.0, 0.5]), np.ones(4))
        assert np.array_equal(out[:2], w[:2])
        assert np.allclose(out[2:], w[2:] - 0.5)

    def test_input_not_mutated(self):
        layout = GroupLayout.from_sizes([("all", 3)])
        w = np.ones(3)
        apply_update(w, layout, np.array([1.0]), np.ones(3))
        assert np.array_equal(w, np.ones(3))

    def test_dimension_mismatch(self):
        layout = GroupLayout.from_sizes([("all", 3)])
        with pytest.raises(LengthMismatch):
            apply_update(np.ones(4), layout, np.array([0.1]), np.ones(4))

    @pytest.mark.parametrize("kind", ["sgd", "adamw"])
    @pytest.mark.parametrize("k", [1, 2, 11])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_equal_to_broadcast_step_in_a_new_array(self, kind, k, seed):
        rng = make_rng(seed)
        layout = GroupLayout.from_sizes(
            [(f"g{i}", int(n)) for i, n in enumerate(rng.integers(1, 40, k))]
        )
        w = rng.standard_normal(layout.dim)
        state = OptimizerState.create(kind, layout.dim)
        d = direction(state, rng.standard_normal(layout.dim), w)
        lr = rng.uniform(1e-4, 1.0, k)
        kept = [w.copy(), d.copy(), lr.copy()]
        out = apply_update(w, layout, lr, d)
        assert out.tobytes() == (w - layout.expand(lr) * d).tobytes()
        assert not np.shares_memory(out, w) and not np.shares_memory(out, d)
        for before, after in zip(kept, [w, d, lr]):
            assert before.tobytes() == after.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_groups_do_not_mix(self, seed):
        # the update restricted to one group's slice depends only on that
        # group's rate
        rng = make_rng(seed)
        layout = GroupLayout.from_sizes([("a", 3), ("b", 5), ("c", 2)])
        w = rng.standard_normal(10)
        d = rng.standard_normal(10)
        lr = rng.uniform(0.01, 1.0, 3)
        out = apply_update(w, layout, lr, d)
        for i in range(3):
            lr_other = lr.copy()
            lr_other[(i + 1) % 3] *= 7.0  # perturb a different group
            alt = apply_update(w, layout, lr_other, d)
            sl = layout.slice(i)
            assert np.array_equal(out[sl], alt[sl])


class TestSchedulers:
    def test_constant(self):
        assert scheduler_lr("constant", 17, 100, 0.3) == 0.3

    def test_linear_decay(self):
        assert scheduler_lr("linear", 0, 100, 1.0) == 1.0
        assert scheduler_lr("linear", 50, 100, 1.0) == pytest.approx(0.5)
        assert scheduler_lr("linear", 99, 100, 1.0) == pytest.approx(0.01)

    def test_cosine_decay(self):
        assert scheduler_lr("cosine", 0, 100, 2.0) == pytest.approx(2.0)
        assert scheduler_lr("cosine", 50, 100, 2.0) == pytest.approx(1.0)
        assert scheduler_lr("cosine", 100 - 1, 100, 2.0) < 0.002

    def test_out_of_range_step(self):
        with pytest.raises(LengthMismatch):
            scheduler_lr("constant", 100, 100, 0.1)
        with pytest.raises(LengthMismatch):
            scheduler_lr("constant", -1, 100, 0.1)

    def test_unknown_kind(self):
        with pytest.raises(UnknownStrategy):
            scheduler_lr("cyclic", 0, 10, 0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["constant", "linear", "cosine"]),
        st.integers(0, 999),
    )
    def test_rates_stay_in_bounds(self, kind, t):
        lr = scheduler_lr(kind, t, 1000, 0.7)
        assert 0.0 <= lr <= 0.7


class TestGridSearch:
    def test_default_grid_values(self):
        grid = default_toy_grid()
        assert len(grid) == 12
        assert grid[0] == pytest.approx(1e-5)
        assert grid[2] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e-5 * 10**5.5)
