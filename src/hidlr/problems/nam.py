"""Additive regression model: one small MLP per input feature plus a bias.

The prediction is ``bias + sum_k f_k(x_k)`` where each ``f_k`` sees only
feature k. All sub-networks share one architecture, so their weights are
stored stacked along a leading K axis and the forward/backward passes run as
batched matmuls instead of a Python loop over features.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from ..errors import DimensionMismatch, ValidationError, check_int
from .base import Carving, Dataset, GroupLayout, LossProblem, row_chunks, split_dataset

# Nonzero target components of the synthetic additive dataset; the remaining
# features contribute nothing and exist to test whether training ignores them.
NAM_FEATURE_FNS = (
    lambda x: 2.0 * x**2 * np.tanh(x),
    lambda x: np.sin(x) * np.cos(x) + x**2,
    lambda x: 20.0 / (1.0 + np.exp(-5.0 * np.sin(x))),
    lambda x: 20.0 * np.sin(2.0 * x) ** 3 - 6.0 * np.cos(x) + x**2,
    lambda x: x**3,
    lambda x: x,
)

NAM_N_ROWS = 3000
NAM_N_FEATURES = 10
NAM_INPUT_RANGE = (-2.5, 2.5)


NAM_NOISE_STD = 5.0
# Rows per forward when predicting, and the most rows a call keeps workspace for.
EVAL_ROWS = 256


def make_nam_synthetic(rng: np.random.Generator) -> Dataset:
    """3000 x 10 uniform inputs; target = sum of six feature effects + noise.

    Features are i.i.d. Uniform(-2.5, 2.5) so every nonzero effect varies
    visibly over the support. Features 7..10 have zero effect. Label noise
    is ~7% of the target variance, so test error has a visible floor instead
    of running to interpolation. The assembled target is standardized over
    the table (part of the generative rule, not a preprocessing step) so the
    loss surface has a scale-1 output and the usual small-learning-rate
    regime applies.
    """
    lo, hi = NAM_INPUT_RANGE
    x = rng.uniform(lo, hi, size=(NAM_N_ROWS, NAM_N_FEATURES))
    y = np.zeros(NAM_N_ROWS)
    for j, fn in enumerate(NAM_FEATURE_FNS):
        y += fn(x[:, j])
    y += NAM_NOISE_STD * rng.standard_normal(NAM_N_ROWS)
    y = (y - y.mean()) / y.std()
    return Dataset(x, y)


def _with_ones(column: np.ndarray) -> np.ndarray:
    """(K, B, 2) first-layer input: the (K, B, 1) feature column, then a column of ones."""
    inputs = np.ones(column.shape[:2] + (2,))
    inputs[:, :, :1] = column
    return inputs


class NamProblem(LossProblem):
    """Mean-squared-error additive model with per-feature MLP sub-networks.

    Parameter groups: ``bias`` (the scalar offset) followed by one group per
    sub-network, ``f1`` .. ``fK``, each holding that network's weights.
    """

    def __init__(
        self,
        dataset: Union[Dataset, tuple[Dataset, Dataset]],
        hidden_sizes: Sequence[int] = (32, 32),
    ):
        if isinstance(dataset, Dataset):
            self.train, self.test = split_dataset(dataset, 0.8)
        else:
            self.train, self.test = dataset
        if not isinstance(hidden_sizes, (list, tuple)):
            raise ValidationError(f"hidden_sizes must be a list of integers, got {hidden_sizes!r}")
        if not hidden_sizes:
            raise DimensionMismatch("hidden_sizes must be nonempty")
        self.n_features = d = self.train.features.shape[1]
        self.layer_dims = [1, *(check_int("hidden_sizes entry", h) for h in hidden_sizes), 1]
        # One sub-network's flat block: per layer an (in + 1, out) block, the
        # weight rows then the bias row.
        dims = self.layer_dims
        self._carving = Carving([(i + 1, o) for i, o in zip(dims[:-1], dims[1:])])
        self.per_subnet = self._carving.size
        self.dim = 1 + d * self.per_subnet
        self.default_layout = GroupLayout.from_sizes(
            [("bias", 1)] + [(f"f{k + 1}", self.per_subnet) for k in range(d)]
        )
        self.name = "nam"
        # Reused activation workspace: one slot per layer output, the ReLU
        # mask and the probes' outputs.
        self._slots = tuple(f"a{i}" for i in range(len(self.layer_dims) - 1))
        self._buffers = {}

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        w = np.zeros(self.dim)
        for block in self._unpack(w)[1]:  # He init by fan-in; biases stay zero
            weight = block[:, :-1]
            weight[...] = rng.standard_normal(weight.shape) * np.sqrt(2.0 / weight.shape[1])
        return w

    def _unpack(self, w: np.ndarray):
        """The bias and, per layer, the (K, in + 1, out) views: weight rows, then the bias row."""
        return w[0], self._carving(w[1:].reshape(self.n_features, self.per_subnet))

    def _buffer(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Workspace slot ``name`` as a contiguous view of ``shape`` (N, rows, width).

        A slot grows to the largest shape asked of it and is reused by every
        later call. Above ``EVAL_ROWS`` rows the view is a fresh array, so a
        full-batch call leaves no large buffer behind. Callers write every
        element before reading it and return nothing that aliases a slot.
        """
        if shape[1] > EVAL_ROWS:
            return np.empty(shape, dtype)
        size = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.size < size:
            flat = self._buffers[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def _subnets(self, a: np.ndarray, layers, names: Sequence[str]) -> list:
        """Post-activations of N stacked sub-networks, layer i in slot ``names[i]``.

        Item-major activations (N, B, width) so each layer is one batched
        matmul; ``a`` is (N, B, 2), the feature then a column of ones, or
        (1, B, 2) to feed one input to all N. The first layer is one matmul
        with its whole block, x·w + 1·b, which adds the bias in the same
        rounding as a separate add. A fan-in-1 layer is a rank-1 product,
        written by ``einsum`` without a broadcast temporary.
        ReLU is applied in place and post-activations are kept: they double
        as the backward mask (max(z, 0) > 0 iff z > 0) and as the layer inputs.
        """
        n, rows = layers[0].shape[0], a.shape[1]
        acts = []
        last = len(layers) - 1
        for i, block in enumerate(layers):
            weight, bias = block[:, :-1], block[:, -1]
            z = self._buffer(names[i], (n, rows, block.shape[2]))
            if i == 0 and rows > 1:
                np.matmul(a, block, out=z)
            else:
                # fan-in 1, or a one-row first layer, whose x·w + 1·b gemv rounds otherwise
                if weight.shape[1] == 1:
                    np.einsum("kbi,kih->kbh", a[:, :, :1], weight, out=z)
                else:
                    np.matmul(a, weight, out=z)
                z += bias[:, None, :]
            if i < last:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
            a = z
        return acts

    def _forward(self, w: np.ndarray, x: np.ndarray):
        """pred, acts and layers; acts[i] is layer i's input (K, B, in), acts[-1] the output."""
        beta, layers = self._unpack(w)
        column = np.ascontiguousarray(x.T)[:, :, None]  # (K, B, 1), read by the backward
        acts = [column, *self._subnets(_with_ones(column), layers, self._slots)]
        pred = beta + acts[-1][:, :, 0].sum(axis=0)
        return pred, acts, layers

    def predict(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Predictions for the rows of ``x``, computed ``EVAL_ROWS`` rows at a time."""
        w = self.check_w(w)
        pred = np.empty(x.shape[0])
        for lo, hi in row_chunks(x.shape[0], EVAL_ROWS):
            pred[lo:hi] = self._forward(w, x[lo:hi])[0]
        return pred

    def loss(self, w, batch=None) -> float:
        x, y = self.resolve_batch(batch)
        return float(np.mean((self.predict(w, x) - y) ** 2))

    def loss_and_grad(self, w, batch=None):
        w = self.check_w(w)
        x, y = self.resolve_batch(batch)
        pred, acts, layers = self._forward(w, x)
        del x  # the backward reads its transposed copy, acts[0]
        residual = pred - y
        loss = float(np.mean(residual**2))

        g = np.zeros(self.dim)
        _, grads = self._unpack(g)

        dpred = 2.0 * residual / y.shape[0]  # (B,)
        g[0] = dpred.sum()
        # Output of subnet k enters the prediction with unit weight.
        da = np.broadcast_to(dpred[None, :, None], acts[-1].shape)  # (K, B, 1)
        last = len(layers) - 1
        for i in range(last, -1, -1):
            weight, gw, gb = layers[i][:, :-1], grads[i][:, :-1], grads[i][:, -1]
            fan_out = weight.shape[2]
            dz = da if i == last else np.multiply(da, mask, out=da)
            np.matmul(acts[i].transpose(0, 2, 1), dz, out=gw)  # (K, in, out)
            if fan_out == 1:
                # sum adds one column pairwise, where einsum would add in sequence
                gb[...] = dz.sum(axis=1)
            else:
                np.einsum("kbh->kh", dz, out=gb)
            if i > 0:
                # past its gradient and mask, layer i's input is dead: its slot takes the delta
                mask = np.greater(acts[i], 0.0, out=self._buffer("mask", acts[i].shape, bool))
                wt = weight.transpose(0, 2, 1)
                if fan_out == 1:
                    da = np.einsum("kbi,kih->kbh", dz, wt, out=acts[i])
                else:
                    da = np.matmul(dz, np.ascontiguousarray(wt), out=acts[i])
        return loss, g

    def probe_losses(self, w, d, layout, xi, batch=None, l0=None):
        """Probe losses from one base forward plus one rerun per sub-network.

        A probe moves one group, so every other sub-network's output is the
        base one. Sub-network k's n probe weight vectors run stacked
        through the same layer loop, and the bias probes shift the base sum.
        The prediction is still summed over all K outputs in order, so each
        loss is bit-identical to a full forward at the probed parameters.
        Without ``l0`` the anchor is the loss of that base forward. A one-row
        batch takes the default: numpy sums its K outputs pairwise, not in order.
        """
        rows = self.train.n if batch is None else np.size(batch)
        if layout != self.default_layout or rows == 1:
            return super().probe_losses(w, d, layout, xi, batch, l0)
        w, d = self.check_w(w), self.check_w(d)
        x, y = self.resolve_batch(batch)
        column = x.T[:, :, None]  # (K, B, 1): each probe builds its own (1, B, 2) input
        beta, layers = self._unpack(w)
        outs = self._subnets(_with_ones(column), layers, self._slots)[-1][:, :, 0]  # (K, B)
        out = np.empty(xi.shape)
        total = outs.sum(axis=0)
        if l0 is None:
            l0 = float(np.mean((beta + total - y) ** 2))  # as ``loss`` computes it
        out[0] = np.mean((w[0] - xi[0][:, None] * d[0] + total - y) ** 2, axis=1)
        s = w[1:].reshape(self.n_features, self.per_subnet)
        ds = d[1:].reshape(self.n_features, self.per_subnet)
        # The probes rerun the hidden slots but keep the base outputs ``outs``.
        probe_slots = (*self._slots[:-1], "probe_out")
        prefix = None  # outs[0] + ... + outs[k - 1]
        for k in range(self.n_features):
            moved = np.multiply(xi[k + 1][:, None], ds[k])  # (n, per_subnet)
            np.subtract(s[k], moved, out=moved)
            inputs = _with_ones(column[k : k + 1])
            acc = self._subnets(inputs, self._carving(moved), probe_slots)[-1][:, :, 0]
            del moved, inputs  # the next sub-network's are made without them
            # the sum in ``loss``'s order: outputs before k, probed k, outputs after k
            if prefix is not None:
                acc += prefix
            for j in range(k + 1, self.n_features):
                acc += outs[j]
            acc += beta  # the squared residual, in the probe outputs' slot
            acc -= y
            acc *= acc
            out[k + 1] = np.mean(acc, axis=1)
            prefix = outs[k] if prefix is None else prefix + outs[k]
        return l0, out

    def test_metrics(self, w) -> dict:
        pred = self.predict(w, self.test.features)
        return {"test_loss": float(np.mean((pred - self.test.targets) ** 2))}
