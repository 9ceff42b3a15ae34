"""Synthetic multi-task classification head on frozen random features.

A frozen random tanh feature map lifts inputs to 512 dimensions; the only
trainable parameters are the columns of a 512 x n_tasks linear head, one
binary classification task per column. Task difficulty ramps up across
tasks: labels come from a linear score plus Gaussian noise whose scale
grows linearly from 0.1 (first task) to 2.0 (last), so later tasks are
intrinsically harder to learn. Each head column is its own parameter
group, named ``task0`` .. ``task{K-1}``. The map is frozen, so splits hold
feature rows, not raw inputs. No call holds a gathered batch: every training
logit comes from 64-row blocks, and a batch's gradient from 64-column blocks.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_int
from .base import Dataset, GroupLayout, LossProblem, bce_into, bce_loss_and_grad, row_chunks, take

FEATURE_DIM = 512
INPUT_DIM = 16
NOISE_MIN = 0.1
NOISE_MAX = 2.0
PROBE_ROWS = 64  # feature rows multiplied (and, from a batch, gathered) at a time
GRAD_COLUMNS = 64  # feature columns of a batch gathered per gradient block


class MultitaskHeadProblem(LossProblem):
    """Mean binary cross-entropy over tasks and batch for the linear head."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_tasks: int = 8,
        n_train: int = 2048,
        n_test: int = 512,
    ):
        self.n_tasks = n_tasks = check_int("n_tasks", n_tasks, low=2)
        n_train, n_test = check_int("n_train", n_train), check_int("n_test", n_test)
        self.noise_scales = np.linspace(NOISE_MIN, NOISE_MAX, n_tasks)

        # frozen feature map and per-task label directions
        self._fmap = rng.standard_normal((INPUT_DIM, FEATURE_DIM)) / np.sqrt(INPUT_DIM)
        self._label_dirs = rng.standard_normal((FEATURE_DIM, n_tasks)) / np.sqrt(
            FEATURE_DIM
        )
        self.train = self._make_split(rng, n_train)
        self.test = self._make_split(rng, n_test)

        self.dim = FEATURE_DIM * n_tasks
        self.default_layout = GroupLayout.from_sizes(
            [(f"task{k}", FEATURE_DIM) for k in range(n_tasks)]
        )
        self.name = "multitask"

    def _make_split(self, rng: np.random.Generator, n: int) -> Dataset:
        """``n`` fresh labelled rows, held as their feature rows ``z``."""
        z = self.features(rng.standard_normal((n, INPUT_DIM)))
        score = z @ self._label_dirs  # (n, K)
        noise = rng.standard_normal(score.shape) * self.noise_scales[None, :]
        return Dataset(z, (score + noise > 0).astype(np.float64))

    def features(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self._fmap)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def _head(self, w: np.ndarray) -> np.ndarray:
        # row k of the (K, 512) view is head column k == parameter group k
        return w.reshape(self.n_tasks, FEATURE_DIM)

    def _logits(self, z, batch, *heads) -> list[np.ndarray]:
        """``z[batch] @ head.T`` per head, in ``PROBE_ROWS``-row blocks: every training logit."""
        n = len(z) if batch is None else len(batch)
        out = [np.empty((n, self.n_tasks)) for _ in heads]
        for lo, hi in row_chunks(n, PROBE_ROWS, least=PROBE_ROWS):
            rows = z[lo:hi] if batch is None else z[batch[lo:hi]]
            for head, logits in zip(heads, out):
                np.matmul(rows, self._head(head).T, out=logits[lo:hi])
            del rows  # the next block's rows replace these, never join them
        return out

    def loss(self, w, batch=None) -> float:
        batch = self.check_batch(batch)
        y = take(self.train.targets, batch)
        logits = self._logits(self.train.features, batch, self.check_w(w))[0]
        bce_into(logits, y, out=logits)
        return float(np.mean(logits))

    def loss_and_grad(self, w, batch=None):
        batch = self.check_batch(batch)
        y = take(self.train.targets, batch)
        z = self.train.features
        loss, dlogits = bce_loss_and_grad(self._logits(z, batch, self.check_w(w))[0], y)
        if batch is None:  # nothing to gather; one pass, as a strided column view moves bits
            return loss, (dlogits.T @ z).ravel()
        g = np.empty((self.n_tasks, FEATURE_DIM))  # gemm fills column blocks alone: same bits
        for lo in range(0, FEATURE_DIM, GRAD_COLUMNS):
            cols = slice(lo, lo + GRAD_COLUMNS)
            np.matmul(dlogits.T, z[batch, cols], out=g[:, cols])
        return loss, g.ravel()

    def probe_losses(self, w, d, layout, xi, batch=None, l0=None):
        """Probe losses from two head products, using the head's linearity.

        Moving head k by -xi * d_k moves only logit column k, by -xi * z d_k.
        So each probe's loss is the base loss with column k's BCE sum
        replaced, one (B, K) BCE per multiplier in one reused buffer. The
        sums run in another order than the default loop, so the table agrees
        with it to rounding, not bits. The base logits come from ``_logits``
        as ``loss``'s do, so without ``l0`` the anchor is ``loss(w, batch)``
        bit for bit.
        """
        if layout != self.default_layout:
            return super().probe_losses(w, d, layout, xi, batch, l0)
        batch = self.check_batch(batch)
        y = take(self.train.targets, batch)
        w, d = self.check_w(w), self.check_w(d)
        logits, slopes = self._logits(self.train.features, batch, w, d)  # (B, K) each
        buf = np.empty_like(logits)
        bce_into(logits, y, out=buf)
        if l0 is None:
            l0 = float(np.mean(buf))  # as ``loss`` computes it
        base = buf.sum(axis=0)  # (K,)
        total = base.sum()
        out = np.empty(xi.shape)
        for i in range(xi.shape[1]):
            np.multiply(xi[:, i], slopes, out=buf)
            np.subtract(logits, buf, out=buf)  # the moved logits
            bce_into(buf, y, out=buf)
            out[:, i] = (total - base + buf.sum(axis=0)) / logits.size
        return l0, out

    def test_metrics(self, w) -> dict:
        # one pass over the test rows: nothing compares these bits
        logits = self.test.features @ self._head(self.check_w(w)).T
        y = self.test.targets
        accuracy = float(np.mean((logits > 0) == (y > 0.5)))
        bce_into(logits, y, out=logits)
        return {"test_loss": float(np.mean(logits)), "test_accuracy": accuracy}
