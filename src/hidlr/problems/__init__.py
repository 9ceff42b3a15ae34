"""Problem zoo: registry plus re-exports of the individual constructors."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ValidationError, check_int
from .base import (
    Dataset,
    GroupLayout,
    LossProblem,
    bce_with_logits,
    split_dataset,
)
from .grouping import STRATEGIES, group_params
from .lora import LoraRegressionProblem
from .moe import MoeProblem, moe_label_rule
from .multitask import MultitaskHeadProblem
from .nam import NAM_FEATURE_FNS, NamProblem, make_nam_synthetic
from .tabular import load_csv_tabular
from .toy2d import (
    FunctionProblem,
    beale,
    beale_grad,
    beale_rosenbrock_problem,
    ellipse_problem,
    rosenbrock,
    rosenbrock_grad,
)

__all__ = [
    "Dataset",
    "GroupLayout",
    "LossProblem",
    "FunctionProblem",
    "NamProblem",
    "LoraRegressionProblem",
    "MoeProblem",
    "MultitaskHeadProblem",
    "PROBLEM_NAMES",
    "STRATEGIES",
    "bce_with_logits",
    "beale",
    "beale_grad",
    "beale_rosenbrock_problem",
    "build_problem",
    "ellipse_problem",
    "group_params",
    "load_csv_tabular",
    "make_nam_synthetic",
    "moe_label_rule",
    "NAM_FEATURE_FNS",
    "rosenbrock",
    "rosenbrock_grad",
    "split_dataset",
]


def _build_nam_synthetic(rng, hidden_sizes=(32, 32)):
    return NamProblem(make_nam_synthetic(rng), hidden_sizes=hidden_sizes)


def _build_california(rng, csv_path, target_column="MedHouseVal", split_seed=0,
                      hidden_sizes=(32, 32)):
    split_seed = check_int("split_seed", split_seed, low=0)
    splits = load_csv_tabular(csv_path, target_column, seed=split_seed)
    return NamProblem(splits, hidden_sizes=hidden_sizes)


# name -> (builder taking the rng, parameter names it accepts, names it requires)
_REGISTRY = {
    "ellipse": (lambda rng: ellipse_problem(), set(), set()),
    "beale-rosenbrock": (lambda rng: beale_rosenbrock_problem(), set(), set()),
    "nam-synthetic": (_build_nam_synthetic, {"hidden_sizes"}, set()),
    "california-housing": (
        _build_california,
        {"csv_path", "target_column", "split_seed", "hidden_sizes"},
        {"csv_path"},
    ),
    "lora-synthetic": (LoraRegressionProblem, {"width", "rank", "n_train"}, set()),
    "moe": (MoeProblem, {"n_train", "n_test", "flip_fraction"}, set()),
    "multitask": (MultitaskHeadProblem, {"n_tasks", "n_train", "n_test"}, set()),
}

PROBLEM_NAMES = tuple(sorted(_REGISTRY))


def build_problem(
    name: str,
    rng: np.random.Generator,
    params: Optional[dict] = None,
) -> LossProblem:
    """Instantiate a zoo problem by name.

    ``params`` supplies problem-specific keyword arguments; unknown names
    and unknown parameter keys are rejected rather than ignored.
    """
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown problem {name!r}; known: {', '.join(PROBLEM_NAMES)}"
        )
    builder, allowed, required = _REGISTRY[name]
    params = dict(params or {})
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValidationError(
            f"problem {name!r} does not accept parameter(s) {unknown}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    missing = sorted(required - set(params))
    if missing:
        raise ValidationError(f"problem {name!r} requires parameter(s) {missing}")
    return builder(rng, **params)
