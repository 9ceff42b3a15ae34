"""Brute-force reference implementations used by the test suite.

Nothing here runs inside the training path: these are independent,
slower ways to obtain the same quantities the controller estimates —
finite-difference directional derivatives and the full K x K quadratic fit
including cross-group terms, with its joint rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NotPositiveDefinite, SingularSystem
from .linalg import solve_least_squares
from .problems.base import GroupLayout, LossProblem

PD_PIVOT_REL = 1e-12  # eigenvalues must exceed this times trace/K


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


def _check_spd(a: np.ndarray, what: str) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPositiveDefinite(f"{what} is not square: {a.shape}")
    asym = np.max(np.abs(a - a.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise NotPositiveDefinite(f"{what} is not symmetric (max skew {asym:.3g})")
    k = a.shape[0]
    floor = PD_PIVOT_REL * np.trace(a) / k
    eigs = np.linalg.eigvalsh(a)
    if not np.all(eigs > floor):
        raise NotPositiveDefinite(
            f"{what} is not positive definite (min eigenvalue {eigs[0]:.3g})"
        )


def full_hidlr(fit: FullQuadraticFit) -> np.ndarray:
    """Joint optimal rates: solve A eta = b for the full fitted quadratic."""
    _check_spd(fit.a_matrix, "fitted A")
    return np.linalg.solve(fit.a_matrix, fit.b)
