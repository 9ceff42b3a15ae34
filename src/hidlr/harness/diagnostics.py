"""Truth-versus-prediction tables for the fitted per-group quadratics.

For each group the fit is anchored by the standard probe set, then the
measured loss change at every requested scale is tabulated next to the
model's prediction 0.5*a*xi^2 - b*xi. On a quadratic loss the two columns
agree to rounding error; on real problems their agreement (pooled R^2) is
the evidence that the second-order model is trustworthy at probe scale.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import controller
from ..errors import ValidationError
from ..linalg import r2_score
from ..problems.base import GroupLayout, LossProblem


def taylor_diagnostics(
    problem: LossProblem,
    w: np.ndarray,
    dir_vec: np.ndarray,
    layout: GroupLayout,
    eta_grid: Sequence[float],
    batch: Optional[np.ndarray] = None,
) -> list:
    """Rows of (group, xi, measured dL, predicted dL) over ``eta_grid``.

    The reference parabola per group comes from the standard probe set
    (``controller.PROBE_MULTIPLIERS``) scaled so its widest probe reaches
    the largest grid magnitude; a grid equal to the standard multiples of
    some rate therefore reproduces the fit's own residuals. The measured
    losses come from one ``probe_losses`` call with every group probed at
    every grid scale.
    """
    eta_grid = [float(x) for x in eta_grid]
    if not eta_grid:
        raise ValidationError("eta_grid must be nonempty")
    eta_ref = max(abs(x) for x in eta_grid) / np.abs(controller.PROBE_MULTIPLIERS).max()

    probe = controller.build_probe_matrix(np.full(layout.k, eta_ref))
    l0 = problem.loss(w, batch)
    deltas = controller.evaluate_probes(problem, w, dir_vec, layout, probe, batch, l0)
    fit = controller.fit_diag_quadratic(probe, deltas)
    xi_table = np.tile(eta_grid, (layout.k, 1))
    _, losses = problem.probe_losses(w, dir_vec, layout, xi_table, batch, l0)

    rows = []
    for g in range(layout.k):
        for xi, loss in zip(eta_grid, losses[g].tolist()):
            rows.append(
                {
                    "group": g,
                    "group_name": layout.names[g],
                    "xi": xi,
                    "measured": loss - l0,
                    "predicted": float(0.5 * fit.a[g] * xi**2 - fit.b[g] * xi),
                }
            )
    return rows


def pooled_r2_from_rows(rows: Sequence[dict]) -> float:
    """R^2 of predicted against measured over a diagnostics table."""
    measured = np.array([r["measured"] for r in rows])
    predicted = np.array([r["predicted"] for r in rows])
    return float(r2_score(measured, predicted))
