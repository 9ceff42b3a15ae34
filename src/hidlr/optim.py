"""Base optimizers, grouped updates, baseline schedulers, and grid search.

The optimizers here produce an update *direction* only; step sizes are
applied separately (per parameter group) by ``apply_update``. This split is
what lets the rate controller probe the loss along the exact direction the
optimizer is about to take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import LengthMismatch, NonFiniteLoss, UnknownStrategy
from .linalg import spawn_rngs
from .problems.base import GroupLayout, LossProblem

# each optimizer -> the ``optimizer_params`` keys its ``direction`` reads
OPTIMIZER_PARAMS = {
    "sgd": (),
    "momentum": ("mu",),
    "adamw": ("beta1", "beta2", "eps", "weight_decay"),
}
OPTIMIZER_KINDS = tuple(OPTIMIZER_PARAMS)
SCHEDULER_KINDS = ("constant", "linear", "cosine")


@dataclass
class OptimizerState:
    """Mutable per-run optimizer state; ``t`` counts direction() calls."""

    kind: str
    dim: int
    t: int = 0
    m: Optional[np.ndarray] = None  # first moment / momentum buffer
    v: Optional[np.ndarray] = None  # second moment (adamw only)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    mu: float = 0.9
    weight_decay: float = 0.0

    @property
    def persistence(self) -> float:
        """Per-step decay of the direction's memory: beta1, mu, or 0 for sgd.

        A direction that decays at rate p keeps pointing roughly the same
        way for about 1/(1 - p) steps.
        """
        if self.kind == "adamw":
            return self.beta1
        if self.kind == "momentum":
            return self.mu
        return 0.0

    @staticmethod
    def create(kind: str, dim: int, **hyper) -> "OptimizerState":
        if kind not in OPTIMIZER_KINDS:
            raise UnknownStrategy(
                f"unknown optimizer {kind!r}; known: {', '.join(OPTIMIZER_KINDS)}"
            )
        state = OptimizerState(kind=kind, dim=dim, **hyper)
        if kind == "momentum":
            state.m = np.zeros(dim)
        elif kind == "adamw":
            state.m = np.zeros(dim)
            state.v = np.zeros(dim)
        return state


def direction(state: OptimizerState, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Preconditioned update direction; mutates ``state`` exactly once."""
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if g.shape != (state.dim,) or w.shape != (state.dim,):
        raise LengthMismatch(
            f"gradient {g.shape} / params {w.shape} vs dimension {state.dim}"
        )
    state.t += 1
    if state.kind == "sgd":
        return g.copy()
    if state.kind == "momentum":
        state.m = state.mu * state.m + g
        return state.m.copy()
    # adamw: m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, updated in
    # place with one temporary, then d = m_hat / (sqrt(v_hat) + eps)
    tmp = (1.0 - state.beta1) * g
    state.m *= state.beta1
    state.m += tmp
    np.multiply(1.0 - state.beta2, g, out=tmp)
    tmp *= g
    state.v *= state.beta2
    state.v += tmp
    d = state.v / (1.0 - state.beta2**state.t)  # v_hat
    np.sqrt(d, out=d)
    d += state.eps
    np.divide(state.m, 1.0 - state.beta1**state.t, out=tmp)  # m_hat
    np.divide(tmp, d, out=d)
    if state.weight_decay != 0.0:
        d += state.weight_decay * w
    return d


def apply_update(
    w: np.ndarray,
    layout: GroupLayout,
    lr: np.ndarray,
    dir_vec: np.ndarray,
) -> np.ndarray:
    """w - [eta_1 * d_(1), ..., eta_K * d_(K)], one rate per group."""
    w = np.asarray(w, dtype=np.float64)
    dir_vec = np.asarray(dir_vec, dtype=np.float64)
    if w.shape != (layout.dim,) or dir_vec.shape != (layout.dim,):
        raise LengthMismatch(
            f"params {w.shape} / direction {dir_vec.shape} vs layout dim {layout.dim}"
        )
    step = layout.expand(lr)  # a fresh array: the update is built in it
    step *= dir_vec
    return np.subtract(w, step, out=step)


def scheduler_lr(kind: str, t: int, total: int, eta0: float) -> float:
    """Baseline learning-rate schedules evaluated at step t of `total`."""
    if not 0 <= t < total:
        raise LengthMismatch(f"step {t} outside [0, {total})")
    if kind == "constant":
        return eta0
    if kind == "linear":
        return eta0 * (1.0 - t / total)
    if kind == "cosine":
        return eta0 * (1.0 + np.cos(np.pi * t / total)) / 2.0
    raise UnknownStrategy(
        f"unknown scheduler {kind!r}; known: {', '.join(SCHEDULER_KINDS)}"
    )


def default_toy_grid() -> list[float]:
    """12-point half-decade grid 1e-5 * 10^(k/2), k = 0..11."""
    return [1e-5 * 10 ** (k / 2) for k in range(12)]


def grid_search(
    problem: LossProblem,
    optimizer_kind: str,
    grid: Sequence[float],
    iters: int,
    seed: int = 0,
    opt_hyper: Optional[dict] = None,
) -> tuple[float, float]:
    """Best constant uniform rate on `grid` by final training loss.

    Every candidate starts from the run's initial parameters (drawn from
    the second of ``spawn_rngs(seed, 3)``, as ``runner.set_up_run`` draws
    them), takes `iters` plain full-batch ``hidlr_step`` steps, and scores
    its full-batch loss. Diverged runs score +inf; ties break toward the
    smaller rate, and the result does not depend on the order of `grid`.
    """
    # controller imports this module, so its step is imported at call time
    from .controller import LrState, hidlr_step

    if len(grid) == 0:
        raise LengthMismatch("grid must be nonempty")
    layout = GroupLayout.from_sizes([("all", problem.dim)])
    w0 = problem.init_params(spawn_rngs(seed, 3)[1])
    best_lr, best_loss = None, np.inf
    for lr in sorted(float(x) for x in grid):
        w = w0
        state = OptimizerState.create(optimizer_kind, problem.dim, **(opt_hyper or {}))
        rate = LrState(eta=np.array([lr]))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for t in range(iters):
                    w = hidlr_step(problem, w, rate, state, None, layout, None, t).w
                loss = problem.loss(w)
            except NonFiniteLoss:
                loss = np.inf
        if np.isfinite(loss) and loss < best_loss:
            best_lr, best_loss = lr, loss
    if best_lr is None:  # every candidate diverged; take the smallest rate
        best_lr = min(float(x) for x in grid)
    return best_lr, best_loss
