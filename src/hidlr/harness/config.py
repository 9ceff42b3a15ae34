"""Experiment configuration: YAML schema, defaulting, strict validation.

Unknown keys anywhere in the file are errors — a typo like ``lerning_rate``
should fail loudly rather than be silently ignored. Every run must name a
seed; there is no implicit entropy anywhere in the harness.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import yaml

from ..controller import HiDlrConfig
from ..errors import ParseError, ValidationError, check_int, check_positive, check_real
from ..optim import OPTIMIZER_KINDS, OPTIMIZER_PARAMS, SCHEDULER_KINDS
from ..problems import PROBLEM_NAMES, STRATEGIES

# libyaml's loader where PyYAML was built with it; it tokenises in C and
# gives the same values as the pure-Python SafeLoader.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

METHODS = ("hidlr", "hiulr", *SCHEDULER_KINDS, "grid")


def _check_optimizer_param(key: str, value) -> float:
    """A finite ``optimizer_params`` value: eps > 0, weight_decay >= 0, the rest in [0, 1)."""
    value = check_real(f"optimizer_params.{key}", value)
    if key == "eps":
        ok, bounds = 0.0 < value, "> 0"
    elif key == "weight_decay":
        ok, bounds = 0.0 <= value, ">= 0"
    else:
        ok, bounds = 0.0 <= value < 1.0, "in [0, 1)"
    if not (ok and math.isfinite(value)):
        raise ValidationError(
            f"optimizer_params.{key} must be a finite number {bounds}, got {value}"
        )
    return value


@dataclass
class ExperimentConfig:
    """One training run, fully specified."""

    problem: str
    method: str
    seed: int
    problem_params: dict = field(default_factory=dict)
    grouping: str = "default"
    grouping_names: tuple = ()
    optimizer: str = "sgd"
    optimizer_params: dict = field(default_factory=dict)
    hidlr: HiDlrConfig = field(default_factory=HiDlrConfig)
    epochs: Optional[int] = None
    iterations: Optional[int] = None
    batch_size: Optional[int] = None
    base_lr: float = 1e-3
    grid: Optional[tuple] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValidationError(
                f"optimizer must be one of {OPTIMIZER_KINDS}, got {self.optimizer!r}"
            )
        if self.grouping not in STRATEGIES:
            raise ValidationError(
                f"grouping must be one of {STRATEGIES}, got {self.grouping!r}"
            )
        self.seed = check_int("seed", self.seed, low=0)
        if self.epochs is not None and self.iterations is not None:
            raise ValidationError("give epochs or iterations, not both")
        for name in ("epochs", "iterations", "batch_size"):
            if getattr(self, name) is not None:
                setattr(self, name, check_int(name, getattr(self, name)))
        self.base_lr = check_positive("base_lr", self.base_lr)
        if self.grid is not None:
            try:
                grid = tuple(self.grid)
            except TypeError:
                raise ValidationError(
                    f"grid must be a list of rates, got {self.grid!r}"
                ) from None
            self.grid = tuple(check_real("grid", x) for x in grid)
            if not self.grid or not all(0 < x < math.inf for x in self.grid):
                raise ValidationError(
                    f"grid must be a nonempty list of finite rates > 0, got {list(self.grid)}"
                )
        self.optimizer_params = {
            key: _check_optimizer_param(key, value)
            for key, value in self.optimizer_params.items()
        }
        names = () if self.grouping_names is None else self.grouping_names
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ValidationError(f"grouping_names must be a list of strings, got {names!r}")
        self.grouping_names = tuple(names)
        if names and self.grouping != "named-split":
            raise ValidationError(
                f"grouping_names needs grouping: named-split, got grouping {self.grouping!r}"
            )
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValidationError(f"grouping_names repeats {', '.join(repeated)}")
        if not isinstance(self.problem_params, dict):
            raise ValidationError("problem_params must be a mapping")


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: set, path: str, scope: str = "") -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        where = f"{path}." if path else ""
        raise ParseError(
            f"unknown key(s) {', '.join(where + k for k in unknown)}; "
            f"allowed{scope}: {', '.join(sorted(allowed)) or 'none'}"
        )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping (from YAML or overrides) into a config."""
    raw = _require_mapping(raw, "config")
    _check_keys(raw, {f.name for f in fields(ExperimentConfig)}, "")
    for required in ("problem", "method", "seed"):
        if required not in raw:
            raise ValidationError(f"config is missing required key {required!r}")
    if raw["problem"] not in PROBLEM_NAMES:
        raise ValidationError(
            f"unknown problem {raw['problem']!r}; known: {', '.join(PROBLEM_NAMES)}"
        )

    hidlr_raw = _require_mapping(raw.get("hidlr"), "hidlr")
    _check_keys(hidlr_raw, {f.name for f in fields(HiDlrConfig)}, "hidlr")
    opt_raw = _require_mapping(raw.get("optimizer_params"), "optimizer_params")
    optimizer = raw.get("optimizer", ExperimentConfig.optimizer)
    if optimizer in OPTIMIZER_KINDS:  # ExperimentConfig names an unknown one
        reads = set(OPTIMIZER_PARAMS[optimizer])
        _check_keys(opt_raw, reads, "optimizer_params", f" for optimizer {optimizer}")
    problem_params = _require_mapping(raw.get("problem_params"), "problem_params")
    return ExperimentConfig(
        **{
            **raw,
            "problem_params": dict(problem_params),
            "optimizer_params": dict(opt_raw),
            "hidlr": HiDlrConfig(**hidlr_raw),
        }
    )


def _line_column(text: str, offset: int) -> str:
    """``line L, column C`` (both from 1) of character ``offset`` in ``text``."""
    line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    return f"line {line}, column {column}"


def _yaml_error(exc: yaml.YAMLError, text: str) -> str:
    """``line L, column C: problem`` for a YAML error, the same under either loader."""
    if isinstance(exc, yaml.reader.ReaderError):
        # libyaml counts the offset in UTF-8 bytes and PyYAML in characters.
        # Both stop at the first unacceptable character, so look it up.
        character = chr(exc.character)
        return f"{_line_column(text, text.find(character))}: {exc.reason} ({character!r})"
    mark = exc.problem_mark  # every other loading error is marked
    return f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"


def load_config_dict(path) -> dict:
    """Read the YAML file into a raw mapping (no validation yet)."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        where = _line_column(before, len(before))
        raise ParseError(
            f"{path}: {where}: byte {data[exc.start]:#04x} is not valid UTF-8"
        ) from None
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {_yaml_error(exc, text)}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return raw


def parse_config(path) -> ExperimentConfig:
    return config_from_dict(load_config_dict(path))


def apply_overrides(raw: dict, overrides: Sequence[str]) -> dict:
    """Apply ``dotted.key=value`` pairs; values are parsed as YAML scalars."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override {item!r} is not of the form key=value")
        key_path, _, value_text = item.partition("=")
        try:
            value = yaml.load(value_text, Loader=_LOADER)
        except yaml.YAMLError:
            raise ParseError(f"override {item!r}: unparseable value") from None
        keys = key_path.split(".")
        target = out
        for k in keys[:-1]:
            nxt = target.get(k)
            if nxt is None:
                nxt = target[k] = {}
            elif not isinstance(nxt, dict):
                raise ParseError(f"override {item!r}: {k} is not a mapping")
            target = nxt
        target[keys[-1]] = value
    return out
