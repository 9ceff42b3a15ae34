"""Mixture-of-experts binary classifier on a noisy 2-D synthetic task.

Labels follow sin(x1) + cos(x2) > 0 with a fraction of labels flipped at
random. A softmax gating network mixes the logits of six small expert MLPs
(dense soft routing, so the loss stays smooth); parameters form two groups,
``gate`` and ``experts``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError, check_int, check_real
from .base import (
    Carving,
    Dataset,
    GroupLayout,
    LossProblem,
    bce_into,
    bce_loss_and_grad,
    bce_with_logits,
)

N_EXPERTS = 6
GATE_HIDDEN = 32
EXPERT_HIDDEN = 64
INPUT_RANGE = (-3.0, 3.0)
# Weight and bias shapes of the gate (2 -> GATE_HIDDEN -> N_EXPERTS) and of
# one expert (2 -> EXPERT_HIDDEN -> 1), in the order they sit in the vector.
GATE = Carving([(2, GATE_HIDDEN), (GATE_HIDDEN,), (GATE_HIDDEN, N_EXPERTS), (N_EXPERTS,)])
EXPERT = Carving([(2, EXPERT_HIDDEN), (EXPERT_HIDDEN,), (EXPERT_HIDDEN, 1), ()])


def moe_label_rule(x: np.ndarray) -> np.ndarray:
    """Noise-free class rule: 1 where sin(x1) + cos(x2) > 0."""
    return (np.sin(x[:, 0]) + np.cos(x[:, 1]) > 0).astype(np.float64)


def _make_split(rng, n, flip_fraction):
    lo, hi = INPUT_RANGE
    x = rng.uniform(lo, hi, size=(n, 2))
    y = moe_label_rule(x)
    flips = rng.random(n) < flip_fraction
    y[flips] = 1.0 - y[flips]
    return Dataset(x, y)


class MoeProblem(LossProblem):
    """Binary cross-entropy of the gate-weighted expert logit."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_train: int = 1000,
        n_test: int = 200,
        flip_fraction: float = 0.10,
    ):
        n_train, n_test = check_int("n_train", n_train), check_int("n_test", n_test)
        flip_fraction = check_real("flip_fraction", flip_fraction)
        if not 0.0 <= flip_fraction <= 1.0:
            raise ValidationError(f"flip_fraction must be in [0, 1], got {flip_fraction}")
        self.train = _make_split(rng, n_train, flip_fraction)
        self.test = _make_split(rng, n_test, flip_fraction)

        self.gate_size = GATE.size
        self.expert_size = EXPERT.size
        self.dim = self.gate_size + N_EXPERTS * self.expert_size
        self.default_layout = GroupLayout.from_sizes(
            [("gate", self.gate_size), ("experts", N_EXPERTS * self.expert_size)]
        )
        self.name = "moe"

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        w = np.zeros(self.dim)
        g1, _, g2, _, e1, _, e2, _ = self._views(w)
        for weight in (g1, g2, e1, e2):  # He init by fan-in; biases stay zero
            weight[...] = rng.standard_normal(weight.shape) * np.sqrt(2.0 / weight.shape[-2])
        return w

    def _views(self, w: np.ndarray):
        """Gate (g1, gb1, g2, gb2) and stacked expert (e1, eb1, e2, eb2) views of ``w``."""
        experts = w[self.gate_size :].reshape(N_EXPERTS, self.expert_size)
        return (*GATE(w[: self.gate_size]), *EXPERT(experts))

    def _forward(self, w: np.ndarray, x: np.ndarray):
        g1, gb1, g2, gb2, e1, eb1, e2, eb2 = self._views(w)
        gz1 = x @ g1 + gb1  # (B, h)
        ga1 = np.maximum(gz1, 0.0)
        gate_logits = ga1 @ g2 + gb2  # (B, E)
        shifted = gate_logits - gate_logits.max(axis=1, keepdims=True)
        expg = np.exp(shifted)
        p = expg / expg.sum(axis=1, keepdims=True)  # softmax gate weights

        ez1 = np.einsum("bd,edh->beh", x, e1, optimize=True) + eb1[None]  # (B, E, h)
        ea1 = np.maximum(ez1, 0.0)
        expert_logits = np.einsum("beh,eho->be", ea1, e2, optimize=True) + eb2[None]

        z = (p * expert_logits).sum(axis=1)  # mixture logit (B,)
        return z, (gz1, ga1, p, ez1, ea1, expert_logits)

    def predict_logit(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._forward(self.check_w(w), x)[0]

    def loss(self, w, batch=None) -> float:
        w = self.check_w(w)
        x, y = self.resolve_batch(batch)
        z, _ = self._forward(w, x)
        bce_into(z, y, out=z)
        return float(np.mean(z))

    def loss_and_grad(self, w, batch=None):
        w = self.check_w(w)
        x, y = self.resolve_batch(batch)
        z, (gz1, ga1, p, ez1, ea1, expert_logits) = self._forward(w, x)
        loss, dz = bce_loss_and_grad(z, y)  # dz: (B,)
        _, _, g2, _, _, _, e2, _ = self._views(w)

        g = np.zeros(self.dim)
        dg1, dgb1, dg2, dgb2, de1, deb1, de2, deb2 = self._views(g)

        dp = dz[:, None] * expert_logits  # (B, E)
        dlogits = dz[:, None] * p  # (B, E)

        # expert branch
        deb2[...] = dlogits.sum(axis=0)
        de2[..., 0] = np.einsum("beh,be->eh", ea1, dlogits, optimize=True)
        dea1 = dlogits[:, :, None] * e2[None, :, :, 0]  # (B, E, h)
        dez1 = dea1 * (ez1 > 0)
        de1[...] = np.einsum("bd,beh->edh", x, dez1, optimize=True)
        deb1[...] = dez1.sum(axis=0)

        # softmax backward, then the gate MLP
        dgate_logits = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        dgz1 = (dgate_logits @ g2.T) * (gz1 > 0)
        dg1[...] = x.T @ dgz1
        dgb1[...] = dgz1.sum(axis=0)
        dg2[...] = ga1.T @ dgate_logits
        dgb2[...] = dgate_logits.sum(axis=0)
        return loss, g

    def test_metrics(self, w) -> dict:
        x, y = self.test.features, self.test.targets
        z = self.predict_logit(w, x)
        return {
            "test_loss": float(np.mean(bce_with_logits(z, y))),
            "test_accuracy": float(np.mean((z > 0) == (y > 0.5))),
        }
