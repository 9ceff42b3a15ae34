"""Small dense linear-algebra and RNG utilities used throughout the package.

Vectors and matrices are plain float64 numpy arrays. Randomness goes through
numpy's PCG64 generator, which produces identical streams for identical seeds
on every platform, so every experiment is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch

# Total sum of squares below which responses count as constant and a fit's
# R^2 is 0.0 (r2_score and the controller's per-group fit).
SS_TOT_FLOOR = 1e-30


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot.

    Returns 0.0 when the targets are (numerically) constant, i.e.
    SS_tot < SS_TOT_FLOOR; downstream quality gates treat that as a failed fit.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise LengthMismatch(f"shapes {y_true.shape} and {y_pred.shape} differ")
    if y_true.size < 2:
        raise LengthMismatch("need at least two points")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    ss_tot = float(((y_true - y_true.sum() / y_true.size) ** 2).sum())
    if ss_tot < SS_TOT_FLOOR:
        return 0.0
    return 1.0 - ss_res / ss_tot


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent deterministic generators from one seed."""
    seqs = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(s)) for s in seqs]
