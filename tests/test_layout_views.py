"""Parameter layouts: ``Carving`` and the problems' views of their flat vectors.

Every piece a problem reads or writes must be a view into the flat vector,
and the pieces must cover each coordinate exactly once: adding 1 through
every piece then leaves every covered coordinate at exactly 1.
"""

import numpy as np
import pytest

from hidlr.errors import LengthMismatch
from hidlr.linalg import make_rng
from hidlr.problems import LoraRegressionProblem, MoeProblem, NamProblem, make_nam_synthetic
from hidlr.problems.base import Carving


def add_one_through(block, pieces):
    for piece in pieces:
        assert np.shares_memory(piece, block)
        piece += 1.0


class TestCarve:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
    def test_pieces_are_views_that_tile_the_block_once(self, lead):
        shapes = [(2, 3), (3,), (), (1, 4, 2)]
        block = np.zeros((*lead, 6 + 3 + 1 + 8))
        pieces = Carving(shapes)(block)
        assert [p.shape for p in pieces] == [(*lead, *s) for s in shapes]
        add_one_through(block, pieces)
        assert np.array_equal(block, np.ones_like(block))

    def test_pieces_read_consecutive_entries_in_order(self):
        block = np.arange(10.0)
        a, b, c = Carving([(2, 2), (1,), (5,)])(block)
        assert np.array_equal(a, [[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(b, [4.0])
        assert np.array_equal(c, [5.0, 6.0, 7.0, 8.0, 9.0])

    def test_one_carving_serves_every_lead(self):
        carving = Carving([(2, 3), (3,), ()])
        for lead in [(), (4,), (2, 4)]:
            block = np.zeros((*lead, carving.size))
            pieces = carving(block)
            assert [p.shape for p in pieces] == [(*lead, 2, 3), (*lead, 3), lead]
            add_one_through(block, pieces)
            assert np.array_equal(block, np.ones_like(block))

    @pytest.mark.parametrize("shapes", [[(2, 3)], [(2, 3), (5,)], []])
    def test_shapes_that_do_not_fill_the_block_raise(self, shapes):
        with pytest.raises(LengthMismatch, match="entries, not 7"):
            Carving(shapes)(np.zeros(7))


class TestProblemViews:
    def test_nam_layers_cover_every_subnet_weight_once(self):
        problem = NamProblem(make_nam_synthetic(make_rng(0)), hidden_sizes=[4, 3])
        w = np.zeros(problem.dim)
        _, blocks = problem._unpack(w)
        dims = problem.layer_dims
        assert [b.shape for b in blocks] == [
            (problem.n_features, i + 1, o) for i, o in zip(dims[:-1], dims[1:])
        ]
        add_one_through(w, [block[:, -1] for block in blocks])
        # each layer's (in, out) weight, then its (out,) bias, in one sub-network's block
        is_bias, off = np.zeros(problem.per_subnet, bool), 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            off += fan_in * fan_out
            is_bias[off : off + fan_out] = True
            off += fan_out
        assert off == problem.per_subnet
        assert w[0] == 0.0  # the bias is the scalar ahead of the sub-network blocks
        assert np.array_equal(w[1:], np.tile(is_bias, problem.n_features).astype(float))
        add_one_through(w, blocks)
        assert np.array_equal(w[1:], np.tile(is_bias + 1.0, problem.n_features))

    def test_moe_views_cover_the_vector_once(self):
        problem = MoeProblem(make_rng(0), n_train=10, n_test=10)
        w = np.zeros(problem.dim)
        add_one_through(w, problem._views(w))
        assert np.array_equal(w, np.ones(problem.dim))

    def test_lora_factors_cover_the_vector_once(self):
        problem = LoraRegressionProblem(make_rng(0), width=8, rank=3, n_train=10, n_test=10)
        w = np.zeros(problem.dim)
        add_one_through(w, problem._unpack(w))
        assert np.array_equal(w, np.ones(problem.dim))
