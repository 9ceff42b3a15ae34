"""Additive regression model: one small MLP per input feature plus a bias.

The prediction is ``bias + sum_k f_k(x_k)`` where each ``f_k`` sees only
feature k. All sub-networks share one architecture, so their weights are
stored stacked along a leading K axis and the forward/backward passes run as
batched matmuls instead of a Python loop over features.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..errors import DimensionMismatch
from .base import Dataset, GroupLayout, LossProblem, split_dataset

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
    return Dataset(x, y, split="full")


class NamProblem(LossProblem):
    """Mean-squared-error additive model with per-feature MLP sub-networks.

    Parameter groups: ``bias`` (the scalar offset) followed by one group per
    sub-network, ``f1`` .. ``fK``, each holding that network's weights.
    """

    def __init__(
        self,
        dataset: Union[Dataset, tuple[Dataset, Dataset]],
        hidden_sizes: Sequence[int] = (32, 32),
        n_features: Optional[int] = None,
    ):
        if isinstance(dataset, Dataset):
            self.train, self.test = split_dataset(dataset, 0.8)
        else:
            self.train, self.test = dataset
        if not hidden_sizes:
            raise DimensionMismatch("hidden_sizes must be nonempty")
        d = self.train.features.shape[1]
        if n_features is not None and n_features != d:
            raise DimensionMismatch(f"{d} dataset features but {n_features} sub-networks")
        self.n_features = d
        self.layer_dims = [1, *map(int, hidden_sizes), 1]
        # Per-layer (offset, in, out) within one sub-network's flat block.
        self._layer_spec = []
        cursor = 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            self._layer_spec.append((cursor, fan_in, fan_out))
            cursor += fan_in * fan_out + fan_out
        self.per_subnet = cursor
        self.dim = 1 + d * cursor
        self.default_layout = GroupLayout.from_sizes(
            [("bias", 1)] + [(f"f{k + 1}", cursor) for k in range(d)]
        )
        self.name = "nam"

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        w = np.zeros(self.dim)
        s = w[1:].reshape(self.n_features, self.per_subnet)
        for off, fan_in, fan_out in self._layer_spec:
            n_w = fan_in * fan_out
            s[:, off : off + n_w] = rng.standard_normal(
                (self.n_features, n_w)
            ) * np.sqrt(2.0 / fan_in)
        return w

    def _layers(self, s: np.ndarray):
        """(weight (N, in, out), bias (N, out)) per layer of N stacked subnets."""
        layers = []
        for off, fan_in, fan_out in self._layer_spec:
            n_w = fan_in * fan_out
            weight = s[:, off : off + n_w].reshape(s.shape[0], fan_in, fan_out)
            bias = s[:, off + n_w : off + n_w + fan_out]
            layers.append((weight, bias))
        return layers

    def _unpack(self, w: np.ndarray):
        return w[0], self._layers(w[1:].reshape(self.n_features, self.per_subnet))

    def _subnets(self, a: np.ndarray, layers) -> list:
        # Item-major activations (N, B, width) so each layer is one batched
        # matmul; ``a`` is (N, B, 1), or (1, B, 1) to feed one input to all N.
        # The fan-in-1 first layer is cheaper as a broadcast than a rank-1 gemm.
        # ReLU is applied in place and post-activations are kept: they double as
        # the backward mask (max(z, 0) > 0 iff z > 0) and as the layer inputs.
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

    def _forward(self, w: np.ndarray, x: np.ndarray):
        beta, layers = self._unpack(w)
        acts = self._subnets(np.ascontiguousarray(x.T)[:, :, None], layers)
        pred = beta + acts[-1][:, :, 0].sum(axis=0)
        return pred, acts

    def predict(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._forward(self.check_w(w), x)[0]

    def loss(self, w, batch=None) -> float:
        w = self.check_w(w)
        x, y = self.resolve_batch(batch)
        pred, _ = self._forward(w, x)
        return float(np.mean((pred - y) ** 2))

    def grad(self, w, batch=None) -> np.ndarray:
        return self.loss_and_grad(w, batch)[1]

    def loss_and_grad(self, w, batch=None):
        w = self.check_w(w)
        x, y = self.resolve_batch(batch)
        pred, acts = self._forward(w, x)
        _, layers = self._unpack(w)
        residual = pred - y
        loss = float(np.mean(residual**2))

        g = np.zeros(self.dim)
        gs = g[1:].reshape(self.n_features, self.per_subnet)

        dpred = 2.0 * residual / y.shape[0]  # (B,)
        g[0] = dpred.sum()
        # Output of subnet k enters the prediction with unit weight.
        da = np.broadcast_to(dpred[None, :, None], acts[-1].shape)  # (K, B, 1)
        for i in range(len(layers) - 1, -1, -1):
            weight, _ = layers[i]
            if i == len(layers) - 1:
                dz = da
            else:
                dz = np.multiply(da, acts[i] > 0, out=da if da.flags.writeable else None)
            a_in = (
                np.ascontiguousarray(x.T)[:, :, None]
                if i == 0
                else acts[i - 1]
            )
            off, fan_in, fan_out = self._layer_spec[i]
            n_w = fan_in * fan_out
            gw = np.matmul(a_in.transpose(0, 2, 1), dz)  # (K, in, out)
            gs[:, off : off + n_w] = gw.reshape(self.n_features, n_w)
            gs[:, off + n_w : off + n_w + fan_out] = dz.sum(axis=1)
            if i > 0:
                # a fan-out-1 layer's product is an outer one, cheaper as a broadcast
                wt = weight.transpose(0, 2, 1)
                da = dz * wt if fan_out == 1 else np.matmul(dz, wt)
        return loss, g

    def probe_losses(self, w, d, layout, xi, batch=None) -> np.ndarray:
        """Probe losses from one base forward plus one rerun per sub-network.

        A probe moves one group, so every other sub-network's output is the
        base one. Sub-network k's four probe weight vectors run stacked
        through the same layer loop, and the bias probes shift the base sum.
        The prediction is still summed over all K outputs in order, so each
        loss is bit-identical to a full forward at the probed parameters.
        """
        if layout != self.default_layout:
            return super().probe_losses(w, d, layout, xi, batch)
        return self._anchored_probes(w, d, xi, batch)[1]

    def anchored_probe_losses(self, w, d, layout, xi, batch=None):
        """The probe table, anchored on the loss of the base forward it runs."""
        if layout != self.default_layout:
            return super().anchored_probe_losses(w, d, layout, xi, batch)
        return self._anchored_probes(w, d, xi, batch)

    def _anchored_probes(self, w, d, xi, batch):
        w, d = self.check_w(w), self.check_w(d)
        x, y = self.resolve_batch(batch)
        inputs = np.ascontiguousarray(x.T)[:, :, None]  # (K, B, 1)
        beta, layers = self._unpack(w)
        outs = self._subnets(inputs, layers)[-1][:, :, 0]  # (K, B)
        out = np.empty(xi.shape)
        total = outs.sum(axis=0)
        anchor = float(np.mean((beta + total - y) ** 2))  # as ``loss`` computes it
        for i, scale in enumerate(xi[0]):
            out[0, i] = np.mean((w[0] - scale * d[0] + total - y) ** 2)
        s = w[1:].reshape(self.n_features, self.per_subnet)
        ds = d[1:].reshape(self.n_features, self.per_subnet)
        mixed = outs.copy()
        for k in range(self.n_features):
            moved = s[k] - xi[k + 1][:, None] * ds[k]  # (4, per_subnet)
            probed = self._subnets(inputs[k : k + 1], self._layers(moved))[-1]
            for i in range(xi.shape[1]):
                mixed[k] = probed[i, :, 0]
                out[k + 1, i] = np.mean((beta + mixed.sum(axis=0) - y) ** 2)
            mixed[k] = outs[k]
        return anchor, out

    def test_metrics(self, w) -> dict:
        pred = self.predict(w, self.test.features)
        return {"test_loss": float(np.mean((pred - self.test.targets) ** 2))}
