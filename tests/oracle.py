"""Brute-force references the tests check the package against.

Nothing here runs in training. These are independent, slower ways to get
what the controller and the problems compute: a least-squares solver,
finite-difference directional derivatives, the full K x K quadratic fit
with cross-group terms and its joint rates, the logistic function that
``bce_loss_and_grad`` must match bit for bit, and a quadratic test problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from hidlr.errors import HidlrError, LengthMismatch
from hidlr.problems import FunctionProblem, GroupLayout, LossProblem

SINGULAR_RTOL = 1e-12  # relative singular value below which a design is rank deficient
PD_PIVOT_REL = 1e-12  # eigenvalues must exceed this times trace/K


class SingularSystem(HidlrError):
    """Least-squares design is numerically rank deficient."""


class NotPositiveDefinite(HidlrError):
    """Matrix required to be positive definite is not."""


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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, stable in both tails: ``exp`` only sees -|z|.

    ``where`` keeps a NaN's sign where ``-abs`` would flip it, so the result
    is bit-equal to 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)).
    """
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, e) / (1.0 + e)


def quadratic_problem(
    q: np.ndarray,
    init: Sequence[float],
    layout: Optional[GroupLayout] = None,
) -> FunctionProblem:
    """L(w) = 0.5 w^T Q w for a symmetric Q; reference case for exact fits."""
    q = np.asarray(q, dtype=np.float64)
    return FunctionProblem(
        fn=lambda w: 0.5 * float(w @ q @ w),
        grad_fn=lambda w: q @ w,
        init=init,
        layout=layout,
        name="quadratic",
    )


def default_fd_eps(w: np.ndarray, d: np.ndarray) -> float:
    """Step size balancing truncation against roundoff at double precision."""
    return 1e-4 * (1.0 + np.linalg.norm(w)) / (1.0 + np.linalg.norm(d))


def fd_directional_grad(
    problem: LossProblem,
    w: np.ndarray,
    d: np.ndarray,
    batch: Optional[np.ndarray] = None,
    eps: Optional[float] = None,
) -> float:
    """Central-difference estimate of G(w)^T d."""
    if eps is None:
        eps = default_fd_eps(w, d)
    up = problem.loss(w + eps * d, batch)
    down = problem.loss(w - eps * d, batch)
    return (up - down) / (2.0 * eps)


def fd_directional_curvature(
    problem: LossProblem,
    w: np.ndarray,
    d: np.ndarray,
    batch: Optional[np.ndarray] = None,
    eps: Optional[float] = None,
) -> float:
    """Second-difference estimate of d^T H(w) d."""
    if eps is None:
        eps = default_fd_eps(w, d)
    up = problem.loss(w + eps * d, batch)
    mid = problem.loss(w, batch)
    down = problem.loss(w - eps * d, batch)
    return (up - 2.0 * mid + down) / (eps * eps)


def masked_direction(dir_vec: np.ndarray, layout: GroupLayout, group: int) -> np.ndarray:
    """Copy of the direction with every group but ``group`` zeroed."""
    out = np.zeros_like(dir_vec)
    s = layout.slice(group)
    out[s] = dir_vec[s]
    return out


@dataclass
class FullQuadraticFit:
    """Joint model dL = -xi^T b + 0.5 xi^T A xi with all cross terms."""

    a_matrix: np.ndarray  # (K, K) symmetric
    b: np.ndarray  # (K,)


def fit_full_quadratic(
    probes: Sequence[np.ndarray], delta_l: np.ndarray
) -> FullQuadraticFit:
    """Least-squares fit of the full K x K quadratic from probe responses.

    Needs at least K(K+3)/2 probes whose monomials span the model space;
    random probe vectors satisfy this with probability one.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    delta_l = np.asarray(delta_l, dtype=np.float64)
    n, k = probes.shape
    n_unknowns = k * (k + 3) // 2
    if n < n_unknowns:
        raise SingularSystem(
            f"{n} probes cannot determine {n_unknowns} coefficients (K={k})"
        )
    if delta_l.shape != (n,):
        raise SingularSystem(f"{n} probes but {delta_l.shape} responses")

    cols = [-probes[:, i] for i in range(k)]  # b coefficients
    diag_cols = [0.5 * probes[:, i] ** 2 for i in range(k)]  # A_ii
    cross_cols = [
        probes[:, i] * probes[:, j] for i in range(k) for j in range(i + 1, k)
    ]  # A_ij, i<j (both halves folded together)
    design = np.column_stack(cols + diag_cols + cross_cols)
    coef = solve_least_squares(design, delta_l)

    b = coef[:k]
    a = np.zeros((k, k))
    np.fill_diagonal(a, coef[k : 2 * k])
    pos = 2 * k
    for i in range(k):
        for j in range(i + 1, k):
            a[i, j] = a[j, i] = coef[pos]
            pos += 1
    return FullQuadraticFit(a_matrix=a, b=b)


def full_hidlr(fit: FullQuadraticFit) -> np.ndarray:
    """Joint optimal rates: solve A eta = b for the full fitted quadratic."""
    a = np.asarray(fit.a_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPositiveDefinite(f"fitted A is not square: {a.shape}")
    asym = np.max(np.abs(a - a.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise NotPositiveDefinite(f"fitted A is not symmetric (max skew {asym:.3g})")
    k = a.shape[0]
    floor = PD_PIVOT_REL * np.trace(a) / k
    eigs = np.linalg.eigvalsh(a)
    if not np.all(eigs > floor):
        raise NotPositiveDefinite(
            f"fitted A is not positive definite (min eigenvalue {eigs[0]:.3g})"
        )
    return np.linalg.solve(fit.a_matrix, fit.b)
