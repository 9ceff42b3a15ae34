"""GroupLayout invariants and the grouping strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidlr.errors import LengthMismatch, UnknownStrategy
from hidlr.linalg import make_rng
from hidlr.problems import build_problem, group_params
from hidlr.problems.base import GroupLayout


class TestGroupLayout:
    def test_from_sizes_basic(self):
        lay = GroupLayout.from_sizes([("a", 2), ("b", 3)])
        assert lay.k == 2
        assert lay.dim == 5
        assert lay.names == ("a", "b")
        assert lay.slice(1) == slice(2, 5)

    def test_offsets_follow_from_lengths(self):
        assert GroupLayout(("a", "b"), (2, 3)).slice(1) == slice(2, 5)
        with pytest.raises(LengthMismatch):
            GroupLayout(("a", "b"), (2,))  # checked on construction

    def test_zero_length_group_rejected(self):
        with pytest.raises(LengthMismatch):
            GroupLayout.from_sizes([("a", 0), ("b", 2)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(LengthMismatch):
            GroupLayout.from_sizes([("a", 1), ("a", 2)])

    def test_expand_repeats_per_group(self):
        lay = GroupLayout.from_sizes([("a", 2), ("b", 3)])
        out = lay.expand(np.array([0.1, 0.2]))
        assert np.array_equal(out, [0.1, 0.1, 0.2, 0.2, 0.2])

    def test_expand_wrong_length_rejected(self):
        lay = GroupLayout.from_sizes([("a", 2)])
        with pytest.raises(LengthMismatch):
            lay.expand(np.array([1.0, 2.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6))
    def test_partition_invariants_hold(self, sizes):
        lay = GroupLayout.from_sizes([(f"g{i}", n) for i, n in enumerate(sizes)])
        lay.validate()
        # slices tile [0, D) exactly, in order
        cursor = 0
        for s in lay.slices():
            assert s.start == cursor
            cursor = s.stop
        assert cursor == lay.dim == sum(sizes)
        # expand is the repeat of per-group values by group length
        vals = np.arange(1.0, lay.k + 1)
        assert np.array_equal(lay.expand(vals), np.repeat(vals, sizes))


class TestGroupParams:
    def test_default_returns_problem_layout(self):
        p = build_problem("lora-synthetic", make_rng(0), {})
        lay = group_params(p, "default")
        assert lay.names == ("A", "B")

    def test_single_merges_everything(self):
        p = build_problem("ellipse", make_rng(0), {})
        lay = group_params(p, "single")
        assert lay.k == 1
        assert lay.dim == p.dim

    def test_per_coordinate_on_toys(self):
        p = build_problem("ellipse", make_rng(0), {})
        lay = group_params(p, "per-coordinate")
        assert lay.k == 2
        assert lay.lengths == (1, 1)

    def test_named_split_keeps_and_merges(self):
        p = build_problem("nam-synthetic", make_rng(0), {})
        lay = group_params(p, "named-split", names=("f3",))
        # bias+f1+f2 merge into rest0, f3 kept, f4..f10 merge into rest1
        assert lay.names == ("rest0", "f3", "rest1")
        assert lay.dim == p.dim
        lay.validate()

    def test_named_split_unknown_name_rejected(self):
        p = build_problem("ellipse", make_rng(0), {})
        with pytest.raises(UnknownStrategy):
            group_params(p, "named-split", names=("nope",))

    def test_named_split_requires_names(self):
        p = build_problem("ellipse", make_rng(0), {})
        with pytest.raises(UnknownStrategy):
            group_params(p, "named-split")

    def test_unknown_strategy_rejected(self):
        p = build_problem("ellipse", make_rng(0), {})
        with pytest.raises(UnknownStrategy):
            group_params(p, "by-vibes")

    def test_every_strategy_output_validates(self):
        p = build_problem("moe", make_rng(0), {})
        for strategy in ("default", "single"):
            lay = group_params(p, strategy)
            lay.validate()
            assert lay.dim == p.dim
