"""Additive-model problem: synthetic dataset and the stacked-MLP network."""

import numpy as np
import pytest

from hidlr.controller import HiDlrConfig, hidlr_step, initial_lr_state
from hidlr.errors import DimensionMismatch, ValidationError
from hidlr.linalg import make_rng
from hidlr.optim import OptimizerState
from hidlr.problems import NAM_FEATURE_FNS, NamProblem, build_problem, make_nam_synthetic
from hidlr.problems.nam import NAM_N_FEATURES, NAM_N_ROWS

from conftest import REPO_ROOT


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
        x, y = problem.resolve_batch(batch)
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

    def test_empty_hidden_sizes_rejected(self):
        ds = make_nam_synthetic(make_rng(0))
        with pytest.raises(DimensionMismatch):
            NamProblem(ds, hidden_sizes=())

    @pytest.mark.parametrize("hidden_sizes", [(32.7,), (True,), (8, "8")])
    def test_non_integer_hidden_sizes_rejected(self, hidden_sizes):
        ds = make_nam_synthetic(make_rng(0))
        with pytest.raises(ValidationError, match="hidden_sizes entry must be an integer"):
            NamProblem(ds, hidden_sizes=hidden_sizes)

    def test_test_metrics_reports_mse(self, problem):
        w = np.zeros(problem.dim)
        metrics = problem.test_metrics(w)
        expected = float(np.mean(problem.test.targets**2))
        assert metrics["test_loss"] == pytest.approx(expected, rel=1e-12)


# --- Reused activation workspace -------------------------------------------
#
# The reference below is the broadcast forward and backward the workspace
# replaced: fresh arrays for every layer, the rank-1 layers as broadcasts and
# every batch sum as ``sum``. The workspace must give the same bits.


def ref_spec(problem):
    """(offset, in, out) of each layer in one sub-network's block, from the dims alone."""
    spec, off = [], 0
    for fan_in, fan_out in zip(problem.layer_dims[:-1], problem.layer_dims[1:]):
        spec.append((off, fan_in, fan_out))
        off += fan_in * fan_out + fan_out
    return spec


def ref_layers(problem, s):
    """(weight (N, in, out), bias (N, out)) per layer of stacked blocks ``s`` (N, per_subnet)."""
    return [
        (s[:, off : off + fan_in * fan_out].reshape(-1, fan_in, fan_out),
         s[:, off + fan_in * fan_out : off + fan_in * fan_out + fan_out])
        for off, fan_in, fan_out in ref_spec(problem)
    ]


def ref_unpack(problem, w):
    return w[0], ref_layers(problem, w[1:].reshape(problem.n_features, problem.per_subnet))


def ref_subnets(a, layers):
    acts = []
    last = len(layers) - 1
    for i, (weight, bias) in enumerate(layers):
        if weight.shape[1] == 1:
            z = a * weight[:, 0][:, None, :]
        else:
            z = np.matmul(a, weight)
        z += bias[:, None, :]
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
        a = z
    return acts


def ref_forward(problem, w, x):
    beta, layers = ref_unpack(problem, w)
    acts = ref_subnets(np.ascontiguousarray(x.T)[:, :, None], layers)
    return beta + acts[-1][:, :, 0].sum(axis=0), acts


def ref_loss_and_grad(problem, w, batch):
    x, y = problem.resolve_batch(batch)
    pred, acts = ref_forward(problem, w, x)
    _, layers = ref_unpack(problem, w)
    residual = pred - y
    g = np.zeros(problem.dim)
    gs = g[1:].reshape(problem.n_features, problem.per_subnet)
    dpred = 2.0 * residual / y.shape[0]
    g[0] = dpred.sum()
    da = np.broadcast_to(dpred[None, :, None], acts[-1].shape)
    spec = ref_spec(problem)
    for i in range(len(layers) - 1, -1, -1):
        weight, _ = layers[i]
        dz = da if i == len(layers) - 1 else da * (acts[i] > 0)
        a_in = np.ascontiguousarray(x.T)[:, :, None] if i == 0 else acts[i - 1]
        off, fan_in, fan_out = spec[i]
        n_w = fan_in * fan_out
        gw = np.matmul(a_in.transpose(0, 2, 1), dz)
        gs[:, off : off + n_w] = gw.reshape(problem.n_features, n_w)
        gs[:, off + n_w : off + n_w + fan_out] = dz.sum(axis=1)
        if i > 0:
            # wᵀ copied as the workspace copies it: on a transposed view, OpenBLAS
            # computes a partial 4-row block with another kernel (batch 1, 3, ...)
            wt = weight.transpose(0, 2, 1)
            da = dz * wt if fan_out == 1 else np.matmul(dz, np.ascontiguousarray(wt))
    return float(np.mean(residual**2)), g


def ref_anchored_probes(problem, w, d, xi, batch):
    x, y = problem.resolve_batch(batch)
    inputs = np.ascontiguousarray(x.T)[:, :, None]
    beta, layers = ref_unpack(problem, w)
    outs = ref_subnets(inputs, layers)[-1][:, :, 0]
    out = np.empty(xi.shape)
    total = outs.sum(axis=0)
    anchor = float(np.mean((beta + total - y) ** 2))
    for i, scale in enumerate(xi[0]):
        out[0, i] = np.mean((w[0] - scale * d[0] + total - y) ** 2)
    s = w[1:].reshape(problem.n_features, problem.per_subnet)
    ds = d[1:].reshape(problem.n_features, problem.per_subnet)
    mixed = outs.copy()
    for k in range(problem.n_features):
        moved = s[k] - xi[k + 1][:, None] * ds[k]
        probed = ref_subnets(inputs[k : k + 1], ref_layers(problem, moved))[-1]
        for i in range(xi.shape[1]):
            mixed[k] = probed[i, :, 0]
            out[k + 1, i] = np.mean((beta + mixed.sum(axis=0) - y) ** 2)
        mixed[k] = outs[k]
    return anchor, out


def _housing():
    csv = REPO_ROOT / "data" / "california_stand_in.csv"
    return build_problem("california-housing", make_rng(0), {"csv_path": str(csv)})


WORKSPACE_PROBLEMS = {
    "nam-synthetic": lambda: build_problem("nam-synthetic", make_rng(0), {}),
    "california-housing": _housing,
    # non-square hidden layers and a hidden fan-out of 1
    "deep": lambda: NamProblem(make_nam_synthetic(make_rng(1)), hidden_sizes=(16, 8, 1, 4)),
}


@pytest.fixture(scope="module", params=sorted(WORKSPACE_PROBLEMS))
def ws_problem(request):
    return WORKSPACE_PROBLEMS[request.param]()


def ws_point(problem, seed, batch_size=256):
    rng = make_rng(seed)
    w = problem.init_params(rng) + 0.1 * rng.standard_normal(problem.dim)
    d = rng.standard_normal(problem.dim)
    batch = None if batch_size is None else rng.choice(problem.train.n, batch_size, replace=False)
    return w, d, batch


def ws_xi(problem, scale):
    return np.outer(scale * np.linspace(0.5, 2.0, problem.default_layout.k), [-2, -1, 1, 2])


class TestWorkspace:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [256, 100, 3, 1, None])
    def test_loss_and_grad_bit_equal_to_broadcast(self, ws_problem, seed, batch_size):
        w, _, batch = ws_point(ws_problem, seed, batch_size)
        loss, g = ws_problem.loss_and_grad(w, batch)
        ref_loss, ref_g = ref_loss_and_grad(ws_problem, w, batch)
        assert loss == ref_loss
        assert g.tobytes() == ref_g.tobytes()
        assert ws_problem.loss(w, batch) == ref_loss

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("batch_size", [256, 3, 1, None])
    def test_probe_table_bit_equal_to_broadcast(self, ws_problem, seed, scale, batch_size):
        w, d, batch = ws_point(ws_problem, seed, batch_size)
        xi = ws_xi(ws_problem, scale)
        anchor, table = ws_problem.probe_losses(
            w, d, ws_problem.default_layout, xi, batch
        )
        ref_anchor, ref_table = ref_anchored_probes(ws_problem, w, d, xi, batch)
        assert anchor == ref_anchor
        assert table.tobytes() == ref_table.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 255, 256, 257, 258, 513, 777, None])
    def test_chunked_predict_bit_equal_to_one_pass(self, ws_problem, rows):
        w, _, _ = ws_point(ws_problem, 4)
        x = ws_problem.train.features[:rows]  # None: every train row
        assert ws_problem.predict(w, x).tobytes() == ref_forward(ws_problem, w, x)[0].tobytes()

    def test_test_metrics_bit_equal_to_one_pass(self, ws_problem):
        w, _, _ = ws_point(ws_problem, 5)
        pred = ref_forward(ws_problem, w, ws_problem.test.features)[0]
        expected = float(np.mean((pred - ws_problem.test.targets) ** 2))
        assert ws_problem.test_metrics(w)["test_loss"] == expected

    def test_returned_arrays_do_not_alias_the_workspace(self, ws_problem):
        w, d, batch = ws_point(ws_problem, 6)
        w2, d2, _ = ws_point(ws_problem, 7)
        xi = ws_xi(ws_problem, 1e-3)
        layout = ws_problem.default_layout
        _, g = ws_problem.loss_and_grad(w, batch)
        _, table = ws_problem.probe_losses(w, d, layout, xi, batch)
        pred = ws_problem.predict(w, ws_problem.test.features)
        kept = [g.copy(), table.copy(), pred.copy()]
        ws_problem.loss_and_grad(w2, batch)
        ws_problem.probe_losses(w2, d2, layout, xi, batch)
        ws_problem.predict(w2, ws_problem.test.features)
        for before, after in zip(kept, [g, table, pred]):
            assert before.tobytes() == after.tobytes()

    def test_second_step_allocates_less_than_one_activation(self, ws_problem):
        import tracemalloc

        w, _, batch = ws_point(ws_problem, 8)
        ws_problem.loss_and_grad(w, batch)  # warm-up: sizes the workspace
        tracemalloc.start()
        try:
            ws_problem.loss_and_grad(w, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ws_problem.n_features * batch.size * 32 * 8

    def test_full_batch_calls_leave_no_larger_buffer(self, ws_problem):
        w, d, batch = ws_point(ws_problem, 9)
        xi = ws_xi(ws_problem, 1e-3)
        layout = ws_problem.default_layout
        ws_problem.loss_and_grad(w, batch)
        ws_problem.probe_losses(w, d, layout, xi, batch)
        ws_problem.test_metrics(w)
        sizes = {name: buf.nbytes for name, buf in ws_problem._buffers.items()}
        assert sizes  # the batch calls filled the workspace
        ws_problem.loss_and_grad(w, None)
        ws_problem.loss(w, None)
        ws_problem.probe_losses(w, d, layout, xi, None)
        ws_problem.predict(w, ws_problem.train.features)
        assert {name: buf.nbytes for name, buf in ws_problem._buffers.items()} == sizes

    @pytest.mark.parametrize("name", sorted(WORKSPACE_PROBLEMS))
    def test_workspace_is_layer_outputs_one_mask_and_probe_outputs(self, name):
        problem = WORKSPACE_PROBLEMS[name]()  # fresh: an empty workspace
        w, d, batch = ws_point(problem, 10)
        problem.loss_and_grad(w, batch)
        problem.probe_losses(w, d, problem.default_layout, ws_xi(problem, 1e-3), batch)
        rows = problem.n_features * batch.size
        # backward deltas reuse the layer-input slots: no delta slot of their own
        expected = {f"a{i}": (np.float64, rows * width * 8)
                    for i, width in enumerate(problem.layer_dims[1:])}
        expected["mask"] = (np.bool_, rows * max(problem.layer_dims[1:-1]))
        expected["probe_out"] = (np.float64, 4 * batch.size * 8)
        got = {key: (buf.dtype.type, buf.nbytes) for key, buf in problem._buffers.items()}
        assert got == expected

    def test_warm_step_holds_under_three_parameter_vectors(self):
        import tracemalloc

        problem = build_problem("nam-synthetic", make_rng(0), {})
        layout = problem.default_layout
        w, _, batch = ws_point(problem, 11)
        cfg = HiDlrConfig(phi=2, eta0=1e-3)
        lr_state = initial_lr_state(cfg, layout.k)
        state = OptimizerState.create("sgd", problem.dim)
        w = hidlr_step(problem, w, lr_state, state, cfg, layout, batch, 0).w  # warm, refreshes
        tracemalloc.start()
        try:
            res = hidlr_step(problem, w, lr_state, state, cfg, layout, batch, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.refresh is None
        # the gradient is freed once the direction exists and the update is one array
        assert peak < 3 * problem.dim * 8

    def test_warm_fresh_batch_refresh_step_holds_under_two_and_three_quarter_vectors(self):
        import tracemalloc

        problem = build_problem("nam-synthetic", make_rng(0), {})
        layout = problem.default_layout
        w, _, batch = ws_point(problem, 12)
        rng = make_rng(13)
        cfg = HiDlrConfig(phi=1, eta0=1e-3)
        lr_state = initial_lr_state(cfg, layout.k)
        state = OptimizerState.create("sgd", problem.dim)
        fresh = [rng.choice(problem.train.n, batch.size, replace=False) for _ in range(2)]
        step = hidlr_step(problem, w, lr_state, state, cfg, layout, batch, 0, fresh[0])  # warm
        tracemalloc.start()
        try:
            res = hidlr_step(problem, step.w, step.lr_state, state, cfg, layout, batch, 1, fresh[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.refresh is not None
        # the probe set holds one sub-network's moved weights and (1, B, 2) input at a time
        assert peak < 2.75 * problem.dim * 8
