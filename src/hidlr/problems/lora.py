"""Low-rank teacher-student regression with a two-group (A, B) factorisation.

The student predicts through a rank-r product B @ A added to a frozen zero
base matrix; the teacher is a dense random matrix. B starts at zero, so at
initialisation the prediction ignores A entirely, and the loss curvature of
the two factors is markedly different, which is exactly what per-group
learning rates exploit.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_int
from .base import Carving, Dataset, GroupLayout, LossProblem, take


class LoraRegressionProblem(LossProblem):
    """Half squared error, averaged over the batch, of (B @ A) x against W* x."""

    def __init__(
        self,
        rng: np.random.Generator,
        width: int = 64,
        rank: int = 4,
        n_train: int = 1000,
        n_test: int = 200,
    ):
        width = check_int("width", width)
        rank = check_int("rank", rank, high=width)
        n_train, n_test = check_int("n_train", n_train), check_int("n_test", n_test)
        self.width = width
        self.rank = rank
        self.teacher = rng.standard_normal((width, width)) / np.sqrt(width)
        x_tr = rng.standard_normal((n_train, width))
        x_te = rng.standard_normal((n_test, width))
        self.train = Dataset(x_tr, x_tr @ self.teacher.T)
        self.test = Dataset(x_te, x_te @ self.teacher.T)
        self._carving = Carving([(rank, width), (width, rank)])
        self.dim = self._carving.size
        self.default_layout = GroupLayout.from_sizes(
            [("A", rank * width), ("B", width * rank)]
        )
        self.name = "lora"

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        w = np.zeros(self.dim)
        a, _ = self._unpack(w)
        a[...] = rng.standard_normal(a.shape) / np.sqrt(self.width)  # A Gaussian
        return w  # B stays zero

    def _unpack(self, w: np.ndarray):
        """Views ``(A (rank, width), B (width, rank))`` of ``w``."""
        return self._carving(w)

    def loss(self, w, batch=None) -> float:
        w = self.check_w(w)
        x, y = self.resolve_batch(batch)
        a, b = self._unpack(w)
        return _half_mse(x @ a.T, b, y)

    def probe_losses(self, w, d, layout, xi, batch=None, l0=None):
        """Probe losses from one gather of the batch rows.

        The rows give the base ``x @ A.T`` and each moved A's product and go
        before the targets come; the B probes and the anchor share the base.
        Each loss is ``loss``'s expression on the moved factor, so the table
        and the anchor equal the default loop's bit for bit.
        """
        if layout != self.default_layout:
            return super().probe_losses(w, d, layout, xi, batch, l0)
        batch = self.check_batch(batch)
        x = take(self.train.features, batch)
        a, b = self._unpack(self.check_w(w))
        da, db = self._unpack(self.check_w(d))
        moved = [x @ (a - s * da).T for s in xi[0]]  # (B, r) each
        xa = x @ a.T
        del x
        y = take(self.train.targets, batch)
        out = np.empty(xi.shape)
        for i, xa_moved in enumerate(moved):
            out[0, i] = _half_mse(xa_moved, b, y)
        for i, s in enumerate(xi[1]):
            out[1, i] = _half_mse(xa, b - s * db, y)
        if l0 is None:
            l0 = _half_mse(xa, b, y)
        return l0, out

    def loss_and_grad(self, w, batch=None):
        w = self.check_w(w)
        batch = self.check_batch(batch)
        a, b = self._unpack(w)
        xa = take(self.train.features, batch) @ a.T  # (B, r); the gathered rows go at once
        r = xa @ b.T  # (B, width), the residual once y is subtracted
        r -= take(self.train.targets, batch)
        loss = float(0.5 * np.sum(r * r) / len(xa))
        r /= len(xa)
        g = np.empty(self.dim)
        ga, gb = self._unpack(g)
        ga[...] = (b.T @ r.T) @ take(self.train.features, batch)  # gathered again, not kept
        gb[...] = r.T @ xa
        return loss, g

    def test_metrics(self, w) -> dict:
        a, b = self._unpack(self.check_w(w))
        x, y = self.test.features, self.test.targets
        return {"test_loss": _half_mse(x @ a.T, b, y)}


def _half_mse(xa: np.ndarray, b: np.ndarray, y: np.ndarray) -> float:
    """Half squared error of ``xa @ b.T`` against ``y``, averaged over rows.

    The residual is formed and then squared in place, so the call holds one
    (B, width) array besides ``y``.
    """
    r = xa @ b.T
    r -= y
    r *= r
    return float(0.5 * np.sum(r) / xa.shape[0])
