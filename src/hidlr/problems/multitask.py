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
The probe set reads its rows and targets one 64-row block at a time and holds
no (B, K) array, except the base BCE of a fresh probe batch's anchor.
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


def _blocks(n: int, batch):
    """``(lo, hi, index)`` per ``PROBE_ROWS``-row block of ``n`` rows; ``index`` reads a split."""
    for lo, hi in row_chunks(n, PROBE_ROWS, least=PROBE_ROWS):
        yield lo, hi, slice(lo, hi) if batch is None else batch[lo:hi]


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
        for lo, hi, index in _blocks(n, batch):
            rows = z[index]
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
        """Probe losses from two head products per row block, using the head's linearity.

        Moving head k by -xi * d_k moves only logit column k, by -xi * z d_k.
        So each probe's loss is the base loss with column k's BCE sum
        replaced. The batch's rows and targets stream through ``_logits``'s
        row blocks. A block's base BCE and one moved BCE per multiplier fill
        one buffer, whose rows join running column sums in the row order of
        one (B, K) ``sum(axis=0)``: the blocks leave the table's bits as they
        are. The sums run in another order than the default loop, so the
        table agrees with it to rounding, not bits. No (B, K) array is held
        except, without ``l0``, the base BCE, whose mean is then the anchor:
        ``loss(w, batch)`` bit for bit.
        """
        if layout != self.default_layout:
            return super().probe_losses(w, d, layout, xi, batch, l0)
        batch = self.check_batch(batch)
        w, d = self.check_w(w), self.check_w(d)
        n = self.train.n if batch is None else len(batch)
        shifts = xi.T[:, None, :]  # (n_xi, 1, K): one multiplier per slot and column
        # the BCE is never -0.0, so sums that start at 0.0 keep ``sum(axis=0)``'s bits
        sums = np.zeros((1 + len(shifts), self.n_tasks))  # base, then one per multiplier
        base_bce = np.empty((n, self.n_tasks)) if l0 is None else None
        for lo, hi, index in _blocks(n, batch):
            rows = self.train.features[index]
            logits, slopes = rows @ self._head(w).T, rows @ self._head(d).T  # as ``_logits``
            del rows
            y = self.train.targets[index]
            bce = np.empty((len(sums), hi - lo, self.n_tasks))  # base, then one per multiplier
            np.multiply(shifts, slopes, out=bce[1:])
            np.subtract(logits, bce[1:], out=bce[1:])  # the moved logits
            bce[0] = logits
            del logits, slopes
            for j in range(len(bce)):  # a slot at a time keeps bce_into's scratch small
                bce_into(bce[j], y, out=bce[j])
            if base_bce is not None:
                base_bce[lo:hi] = bce[0]
            # the running sums, then this block's rows: ``sum(axis=0)``'s row order
            np.add.reduce(np.concatenate((sums[:, None], bce), axis=1), axis=1, out=sums)
            del bce, y  # before the next block's rows are gathered
        if l0 is None:
            l0 = float(np.mean(base_bce))  # as ``loss`` computes it
        base = sums[0]
        table = base.sum() - base + sums[1:]  # (n_xi, K)
        table /= n * self.n_tasks
        return l0, np.ascontiguousarray(table.T)

    def test_metrics(self, w) -> dict:
        # one pass over the test rows: nothing compares these bits
        logits = self.test.features @ self._head(self.check_w(w)).T
        y = self.test.targets
        accuracy = float(np.mean((logits > 0) == (y > 0.5)))
        bce_into(logits, y, out=logits)
        return {"test_loss": float(np.mean(logits)), "test_accuracy": accuracy}
