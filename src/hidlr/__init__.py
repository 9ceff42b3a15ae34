"""Curvature-informed per-group learning rates for first-order optimizers.

The controller periodically probes the loss along the current update
direction at a few scaled step sizes per parameter group, fits a quadratic
per group, and moves each group's learning rate toward its curvature-optimal
value b/a. The package also ships the toy/synthetic problem zoo, baseline
optimizers and schedulers, and a CLI experiment harness.
"""

from .controller import (
    HiDlrConfig,
    LrState,
    QuadraticFit,
    build_probe_matrix,
    evaluate_probes,
    fit_diag_quadratic,
    forward_pass_budget,
    gate_and_update,
    hidlr_step,
    optimal_lr,
)
from .errors import (
    DimensionMismatch,
    HidlrError,
    LengthMismatch,
    MissingColumn,
    NonFiniteLoss,
    ParseError,
    SingularFit,
    UnknownStrategy,
    ValidationError,
)
from .linalg import make_rng, r2_score, spawn_rngs
from .optim import (
    OptimizerState,
    apply_update,
    default_toy_grid,
    direction,
    scheduler_lr,
)
from .problems import (
    GroupLayout,
    LossProblem,
    PROBLEM_NAMES,
    build_problem,
    group_params,
)

__version__ = "0.1.0"

__all__ = [
    "HiDlrConfig",
    "LrState",
    "QuadraticFit",
    "build_probe_matrix",
    "evaluate_probes",
    "fit_diag_quadratic",
    "forward_pass_budget",
    "gate_and_update",
    "hidlr_step",
    "optimal_lr",
    "HidlrError",
    "DimensionMismatch",
    "LengthMismatch",
    "MissingColumn",
    "NonFiniteLoss",
    "ParseError",
    "SingularFit",
    "UnknownStrategy",
    "ValidationError",
    "make_rng",
    "r2_score",
    "spawn_rngs",
    "OptimizerState",
    "apply_update",
    "default_toy_grid",
    "direction",
    "scheduler_lr",
    "GroupLayout",
    "LossProblem",
    "PROBLEM_NAMES",
    "build_problem",
    "group_params",
    "__version__",
]
