"""Curvature-probed per-group learning rates.

Every ``phi`` steps the controller perturbs the parameters along the
current update direction, one group at a time, at PROBE_MULTIPLIERS
(-2, -1, 1, 2) times the group's current rate, measures the loss change,
and fits dL = 0.5*a*xi^2 - b*xi per group. When every fitted curvature and
slope is positive and the fit explains the probes well (R^2 above a
threshold), each group's rate moves toward its refresh target via an
exponential moving average; otherwise the rates stay exactly as they were.

The parabola minimum b/a is the best single step along the probed
direction, and with sgd it is the target. A momentum-type direction keeps
pointing the same way for about 1/(1 - beta) steps, so stepping b/a every
step would overshoot that minimum about 1/(1 - beta) times over; the
target is (1 - beta) * b/a, with beta = beta1 for adamw and beta = mu for
momentum, read from the optimizer's own state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    LengthMismatch,
    NonFiniteLoss,
    SingularFit,
    ValidationError,
    check_int,
    check_positive,
    check_real,
)
from .linalg import SS_TOT_FLOOR, r2_score
from .optim import OptimizerState, apply_update, direction
from .problems.base import GroupLayout, LossProblem

# The probe design's only statement; its users read these names from this
# module when called. Fit design at u = PROBE_MULTIPLIERS: columns 0.5*u^2
# and -u, orthogonal for a symmetric set, here with squared norms 8.5 and 10
# (the exact origin point adds a zero row).
PROBE_MULTIPLIERS = np.array([-2.0, -1.0, 1.0, 2.0])
FIT_DESIGN = np.column_stack([0.5 * PROBE_MULTIPLIERS**2, -PROBE_MULTIPLIERS])
FIT_NORMS = np.sum(FIT_DESIGN**2, axis=0)
GATING_MODES = ("global", "per-group")

# a_k must exceed this fraction of |b_k| to count as a positive curvature;
# guards against astronomically large b/a from noise-level curvature.
CURVATURE_REL_FLOOR = 1e-12
# smallest base rate a probe is scaled by; a rate below it is floored here
PROBE_FLOOR = 1e-12


@dataclass
class HiDlrConfig:
    """Controller knobs; defaults favor stochastic problems."""

    phi: int = 1  # steps between rate refreshes
    gamma: float = 0.9  # EMA factor for accepted refreshes
    r2_threshold: float = 0.95
    eta0: Union[float, Sequence[float]] = 1e-3
    eta_min: float = 1e-10
    eta_max: float = 1e2
    probe_floor: float = PROBE_FLOOR
    gating: str = "global"
    fresh_probe_batch: bool = False

    def __post_init__(self):
        self.phi = check_int("phi", self.phi)
        for name in ("gamma", "r2_threshold", "eta_min", "eta_max", "probe_floor"):
            setattr(self, name, check_real(name, getattr(self, name)))
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.r2_threshold <= 1.0:
            raise ValidationError(
                f"r2_threshold must be in (0, 1], got {self.r2_threshold}"
            )
        if not 0.0 < self.eta_min < self.eta_max < math.inf:
            raise ValidationError(
                f"need 0 < eta_min < eta_max < inf, got [{self.eta_min}, {self.eta_max}]"
            )
        is_list = isinstance(self.eta0, (list, tuple))
        rates = [check_real("eta0", e) for e in (self.eta0 if is_list else [self.eta0])]
        if not rates:
            raise ValidationError(f"eta0 must be a number or a nonempty list, got {self.eta0!r}")
        for rate in rates:
            check_positive("eta0", rate)
        self.eta0 = rates if is_list else rates[0]
        check_positive("probe_floor", self.probe_floor)
        if self.gating not in GATING_MODES:
            raise ValidationError(
                f"gating must be one of {GATING_MODES}, got {self.gating!r}"
            )
        if not isinstance(self.fresh_probe_batch, bool):
            raise ValidationError(
                "fresh_probe_batch must be true or false, "
                f"got {self.fresh_probe_batch!r}"
            )

    def initial_lr(self, k: int) -> np.ndarray:
        eta0 = np.full(k, self.eta0) if np.ndim(self.eta0) == 0 else np.asarray(self.eta0)
        if eta0.shape != (k,):
            raise ValidationError(f"eta0 has shape {eta0.shape}, expected ({k},)")
        return np.clip(eta0, self.eta_min, self.eta_max)


@dataclass
class LrState:
    """Per-group rates plus the outcome of the most recent refresh."""

    eta: np.ndarray
    accepted: Optional[bool] = None  # None until the first refresh
    reason: str = "init"


def initial_lr_state(cfg: HiDlrConfig, k: int) -> LrState:
    return LrState(eta=cfg.initial_lr(k))


@dataclass
class ProbeMatrix:
    """nK one-group-at-a-time rate perturbations, n = len(PROBE_MULTIPLIERS).

    Probe j = nk + i (group-major) moves group k alone by
    PROBE_MULTIPLIERS[i] times its rate; the (K, n) table of those step
    scales is all a probe set needs.
    """

    eta_base: np.ndarray  # (K,) rates the probes were scaled by (after floor)
    floored: np.ndarray  # (K,) bool: group rate was raised to the probe floor

    @property
    def k(self) -> int:
        return self.eta_base.shape[0]

    def xi_table(self) -> np.ndarray:
        """(K, n) signed step scales: row k is PROBE_MULTIPLIERS * eta_base[k]."""
        return PROBE_MULTIPLIERS[None, :] * self.eta_base[:, None]


@dataclass
class QuadraticFit:
    """Per-group parabola coefficients for dL = 0.5*a*xi^2 - b*xi."""

    a: np.ndarray  # (K,) curvature estimates g_(k)^T H_kk g_(k)
    b: np.ndarray  # (K,) slope estimates G_(k)^T g_(k)
    r2_group: np.ndarray  # (K,) fit quality over each group's n probes
    r2_pooled: float  # fit quality over all nK probes
    xi: np.ndarray  # (nK,) probe scales, group-major
    delta_l: np.ndarray  # (nK,) measured loss changes
    predicted: np.ndarray  # (nK,) model's loss changes at xi


@dataclass
class RefreshRecord:
    """Everything one refresh measured and decided; serialized by the harness."""

    t: int
    fit: QuadraticFit
    eta_star: np.ndarray
    eta_before: np.ndarray
    eta_after: np.ndarray
    accepted: bool
    reason: str
    floored: np.ndarray


def build_probe_matrix(eta_prev: np.ndarray, probe_floor: float = PROBE_FLOOR) -> ProbeMatrix:
    """Probes e_k (x) v scaled by the previous rates, floored at probe_floor."""
    eta_prev = np.asarray(eta_prev, dtype=np.float64)
    floored = eta_prev < probe_floor
    eta_base = np.where(floored, probe_floor, eta_prev)
    return ProbeMatrix(eta_base=eta_base, floored=floored)


def evaluate_probes(
    problem: LossProblem,
    w: np.ndarray,
    dir_vec: np.ndarray,
    layout: GroupLayout,
    probe: ProbeMatrix,
    batch: Optional[np.ndarray],
    l0: Optional[float],
) -> np.ndarray:
    """Loss change at each probed displacement, flat and group-major; w untouched.

    ``l0`` is the already-computed loss at ``w`` on the same batch. The
    losses come from one ``problem.probe_losses`` call, which with
    ``l0=None`` also computes the anchor, at one more loss evaluation. All
    nK probes are evaluated even when one is non-finite; then NonFiniteLoss
    names the first such probe row, or the anchor if only it is non-finite.
    """
    w = np.asarray(w, dtype=np.float64)
    dir_vec = np.asarray(dir_vec, dtype=np.float64)
    if w.shape != (layout.dim,) or dir_vec.shape != (layout.dim,):
        raise LengthMismatch(
            f"params {w.shape} / direction {dir_vec.shape} vs layout dim {layout.dim}"
        )
    xi = probe.xi_table()
    l0, losses = problem.probe_losses(w, dir_vec, layout, xi, batch, l0)
    losses = losses.ravel()
    finite = np.isfinite(losses)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NonFiniteLoss(f"probe row {j} (group {j // xi.shape[1]}) gave loss {losses[j]}")
    if not math.isfinite(l0):
        raise NonFiniteLoss(f"probe anchor gave loss {l0}")
    return losses - l0


def fit_diag_quadratic(probe: ProbeMatrix, delta_l: np.ndarray) -> QuadraticFit:
    """Per-group parabola through n probes and the exact (0, 0), in closed form.

    In the normalized coordinate u = xi/eta the design columns 0.5*u^2 and
    -u are orthogonal (FIT_DESIGN), so each group's least-squares
    coefficients are its responses projected on each column divided by the
    column's squared norm. All K groups are solved by one (K, n) @ (n, 2)
    product (the origin row adds nothing to it), then rescaled by eta; this
    stays well-conditioned for any rate magnitude.
    """
    xi = probe.xi_table()
    k, n = xi.shape
    delta_l = np.asarray(delta_l, dtype=np.float64)
    if delta_l.shape != (xi.size,):
        raise SingularFit(f"expected {xi.size} probe responses, got {delta_l.shape}")
    if not np.isfinite(delta_l).all():
        raise NonFiniteLoss("probe responses contain NaN/Inf")
    for g, scale in enumerate(probe.eta_base.tolist()):
        if not (math.isfinite(scale) and scale > 0):
            raise SingularFit(f"group {g} probe scale {scale} is unusable")

    eta = probe.eta_base
    responses = delta_l.reshape(k, n)
    # coef fits dL = 0.5*a'*u^2 - b'*u with u = xi/eta
    coef = responses @ FIT_DESIGN / FIT_NORMS  # (K, 2)
    pred = coef @ FIT_DESIGN.T  # (K, n)
    ss_res = ((responses - pred) ** 2).sum(axis=1)
    centered = responses - (responses.sum(axis=1) / n)[:, None]
    ss_tot = (centered**2).sum(axis=1)
    # R^2 is 0.0 for (numerically) constant responses, as in r2_score
    unexplained = np.divide(ss_res, ss_tot, out=np.ones(k), where=ss_tot >= SS_TOT_FLOOR)
    predicted = pred.ravel()
    return QuadraticFit(
        a=coef[:, 0] / eta**2,
        b=coef[:, 1] / eta,
        r2_group=1.0 - unexplained,
        r2_pooled=r2_score(delta_l, predicted),
        xi=xi.ravel(),
        delta_l=delta_l,
        predicted=predicted,
    )


def _curvature_ok(fit: QuadraticFit) -> np.ndarray:
    """Per group: a is positive and above CURVATURE_REL_FLOOR * |b|."""
    return fit.a > np.maximum(0.0, CURVATURE_REL_FLOOR * np.abs(fit.b))


def optimal_lr(fit: QuadraticFit, persistence: float = 0.0) -> np.ndarray:
    """Refresh target (1 - persistence) * b/a per group; NaN marks unusable a.

    ``persistence`` is the direction's per-step decay from
    ``OptimizerState.persistence``: 0 for sgd, whose target is exactly b/a.
    """
    valid = _curvature_ok(fit)
    eta_star = np.full(fit.a.shape, np.nan)
    eta_star[valid] = (1.0 - persistence) * (fit.b[valid] / fit.a[valid])
    return eta_star


def gate_and_update(
    state: LrState,
    fit: QuadraticFit,
    eta_star: np.ndarray,
    cfg: HiDlrConfig,
) -> LrState:
    """Accept the refresh (EMA + clamp) or keep the rates bit-identical.

    Global gating accepts every group or none; per-group gating accepts
    each group on its own (a, b, R2).
    """
    curvature_ok, slope_ok = _curvature_ok(fit), fit.b > 0.0
    if cfg.gating == "global":
        failures = []
        if not np.all(curvature_ok):
            failures.append("curvature a not positive for all groups")
        if not np.all(slope_ok):
            failures.append("slope b not positive for all groups")
        if not fit.r2_pooled > cfg.r2_threshold:
            failures.append(
                f"pooled R2 {fit.r2_pooled:.6g} <= {cfg.r2_threshold:.6g}"
            )
        ok = np.full(curvature_ok.shape, not failures)
        reason = "; ".join(failures) or "ok"
    else:
        ok = curvature_ok & slope_ok & (fit.r2_group > cfg.r2_threshold)
        n_ok = int(ok.sum())
        if n_ok == 0:
            reason = "no group passed"
        else:
            reason = "ok" if n_ok == len(ok) else f"accepted {n_ok}/{len(ok)} groups"
    if not ok.any():
        return LrState(eta=state.eta, accepted=False, reason=reason)
    moved = np.clip(
        cfg.gamma * state.eta + (1.0 - cfg.gamma) * eta_star, cfg.eta_min, cfg.eta_max
    )
    return LrState(eta=np.where(ok, moved, state.eta), accepted=True, reason=reason)


@dataclass
class StepResult:
    """One training step's outputs, with the training-loss calls it made."""

    w: np.ndarray
    lr_state: LrState
    l0: float
    refresh: Optional[RefreshRecord]
    loss_calls: int


def hidlr_step(
    problem: LossProblem,
    w: np.ndarray,
    lr_state: LrState,
    opt_state: OptimizerState,
    cfg: Optional[HiDlrConfig],
    layout: GroupLayout,
    batch: Optional[np.ndarray],
    t: int,
    probe_batch: Optional[np.ndarray] = None,
) -> StepResult:
    """One full training step: loss and gradient, optional refresh, update.

    A refresh happens when ``t % cfg.phi == 0`` (so always at t = 0). With
    ``cfg=None`` the step is plain: no refresh, at ``lr_state.eta`` as given. A
    ``NonFiniteLoss`` from the probe set rejects the refresh and training
    continues with the previous rates. Any other error propagates, such as
    the fit's ``SingularFit``, which needs a probe scale that is not finite
    and positive (a validated config cannot give one). ``probe_batch``
    (when given) replaces the step's batch for probing only; this costs one
    extra loss call to re-anchor the baseline, made by the probe set itself.
    ``loss_calls`` is 1, plus ``refresh_calls`` on a refresh step, rejected
    or not, since the probe set makes all of its calls either way.
    """
    l0, g = problem.loss_and_grad(w, batch)
    if not math.isfinite(l0):
        raise NonFiniteLoss(f"training loss at step {t} is {l0}")
    d = direction(opt_state, g, w)
    del g  # consumed: the probe set and the update need only d

    refresh, loss_calls = None, 1
    if cfg is not None and t % cfg.phi == 0:
        probe = build_probe_matrix(lr_state.eta, cfg.probe_floor)
        loss_calls += refresh_calls(probe.k, probe_batch is not None)
        if probe_batch is None:
            pb, lp = batch, l0
        else:
            pb, lp = probe_batch, None  # the probe set anchors itself
        eta_before = lr_state.eta
        try:
            deltas = evaluate_probes(problem, w, d, layout, probe, pb, lp)
        except NonFiniteLoss as exc:
            fit = None
            eta_star = np.full(probe.k, np.nan)
            lr_state = LrState(
                eta=lr_state.eta, accepted=False, reason=f"non-finite probe: {exc}"
            )
        else:
            fit = fit_diag_quadratic(probe, deltas)
            eta_star = optimal_lr(fit, opt_state.persistence)
            lr_state = gate_and_update(lr_state, fit, eta_star, cfg)
        refresh = RefreshRecord(
            t=t,
            fit=fit,
            eta_star=eta_star,
            eta_before=eta_before,
            eta_after=lr_state.eta,
            accepted=bool(lr_state.accepted),
            reason=lr_state.reason,
            floored=probe.floored,
        )
    w_next = apply_update(w, layout, lr_state.eta, d)
    return StepResult(w_next, lr_state, l0, refresh, loss_calls)


def refresh_calls(k: int, fresh: bool) -> int:
    """Training-loss calls of one refresh: one per probe, +1 for a fresh anchor."""
    return len(PROBE_MULTIPLIERS) * k + int(fresh)


def forward_pass_budget(
    total_steps: int, k: int, phi: int, fresh_probe_batch: int = 0
) -> int:
    """Training-loss evaluations for T steps with refreshes at t % phi == 0.

    The sum of ``hidlr_step``'s declared ``loss_calls`` at a fixed phi: one
    per step plus ``refresh_calls`` per refresh (steps 0, phi, 2*phi, ...),
    giving T + (nK + f) * ceil(T / phi) with f = ``fresh_probe_batch``. The
    run audit also checks one gradient per step; test-set evaluations are
    counted apart.
    """
    if total_steps < 1 or k < 1 or phi < 1:
        raise ValidationError(
            f"need T, K, phi >= 1, got ({total_steps}, {k}, {phi})"
        )
    if fresh_probe_batch not in (0, 1):
        raise ValidationError(
            f"fresh_probe_batch must be 0 or 1, got {fresh_probe_batch}"
        )
    refreshes = -(-total_steps // phi)
    return total_steps + refresh_calls(k, fresh_probe_batch) * refreshes
