"""Small dense linear-algebra and RNG utilities used throughout the package.

Vectors and matrices are plain float64 numpy arrays. Randomness goes through
numpy's PCG64 generator, which produces identical streams for identical seeds
on every platform, so every experiment is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, SingularSystem

# Relative singular-value cutoff below which a design matrix is treated as
# rank deficient.
SINGULAR_RTOL = 1e-12
# Total sum of squares below which responses count as constant and a fit's
# R^2 is 0.0 (r2_score and the controller's per-group fit).
SS_TOT_FLOOR = 1e-30


def solve_least_squares(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return beta minimising ||x @ beta - y||^2.

    Requires at least as many rows as columns. Raises SingularSystem when the
    ratio of smallest to largest singular value of ``x`` falls below 1e-12.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise LengthMismatch(f"design must be 2-D, got shape {x.shape}")
    n, p = x.shape
    if y.shape != (n,):
        raise LengthMismatch(f"response has shape {y.shape}, expected ({n},)")
    if n < p:
        raise LengthMismatch(f"underdetermined system: {n} rows < {p} columns")
    beta, _, _, svals = np.linalg.lstsq(x, y, rcond=None)
    if svals[0] == 0.0 or svals[-1] / svals[0] < SINGULAR_RTOL:
        raise SingularSystem(
            f"singular value ratio {0.0 if svals[0] == 0.0 else svals[-1] / svals[0]:.3e} "
            f"below {SINGULAR_RTOL:.0e}"
        )
    return beta


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
