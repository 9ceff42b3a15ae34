"""Config parsing: defaults, strict key checking, overrides, shipped presets."""

import pytest

from hidlr.errors import ParseError, ValidationError
from hidlr.harness.config import (
    METHODS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    parse_config,
)

MINIMAL = {"problem": "ellipse", "method": "hidlr", "seed": 0}


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(dict(MINIMAL))
        assert cfg.optimizer == "sgd"
        assert cfg.grouping == "default"
        assert cfg.base_lr == 1e-3
        assert cfg.hidlr.phi == 1
        assert cfg.hidlr.gamma == 0.9
        assert cfg.hidlr.r2_threshold == 0.95
        assert cfg.hidlr.eta0 == 1e-3
        assert cfg.epochs is None and cfg.iterations is None

    def test_integer_base_lr_becomes_float(self):
        assert type(config_from_dict({**MINIMAL, "base_lr": 1}).base_lr) is float
        assert type(ExperimentConfig(**MINIMAL, base_lr=2).base_lr) is float

    def test_null_grouping_names_is_empty(self):
        assert config_from_dict({**MINIMAL, "grouping_names": None}).grouping_names == ()
        assert ExperimentConfig(**MINIMAL, grouping_names=None).grouping_names == ()

    def test_method_list(self):
        assert METHODS == ("hidlr", "hiulr", "constant", "linear", "cosine", "grid")

    def test_nested_sections_parsed(self):
        cfg = config_from_dict(
            {
                **MINIMAL,
                "hidlr": {"phi": 4, "gamma": 0.5},
                "optimizer": "adamw",
                "optimizer_params": {"weight_decay": 0.01},
                "iterations": 50,
            }
        )
        assert cfg.hidlr.phi == 4
        assert cfg.hidlr.gamma == 0.5
        assert cfg.optimizer_params == {"weight_decay": 0.01}
        assert cfg.iterations == 50


class TestStrictKeys:
    def test_typo_in_top_level_key(self):
        with pytest.raises(ParseError, match="lerning_rate"):
            config_from_dict({**MINIMAL, "lerning_rate": 0.1})

    def test_typo_inside_hidlr_section_names_path(self):
        with pytest.raises(ParseError, match=r"hidlr\.fi"):
            config_from_dict({**MINIMAL, "hidlr": {"fi": 2}})

    def test_allowed_keys_are_the_schema(self):
        top = (
            "base_lr, batch_size, epochs, grid, grouping, grouping_names, hidlr, "
            "iterations, method, optimizer, optimizer_params, out_dir, problem, "
            "problem_params, seed"
        )
        with pytest.raises(ParseError, match=f"allowed: {top}$"):
            config_from_dict({**MINIMAL, "lerning_rate": 0.1})
        hidlr = (
            "eta0, eta_max, eta_min, fresh_probe_batch, gamma, gating, phi, "
            "probe_floor, r2_threshold"
        )
        with pytest.raises(ParseError, match=f"allowed: {hidlr}$"):
            config_from_dict({**MINIMAL, "hidlr": {"fi": 2}})

    def test_typo_inside_optimizer_params(self):
        with pytest.raises(ParseError, match=r"optimizer_params\.beta3"):
            config_from_dict({**MINIMAL, "optimizer_params": {"beta3": 0.9}})

    @pytest.mark.parametrize("missing", ["problem", "method", "seed"])
    def test_missing_required_key(self, missing):
        raw = dict(MINIMAL)
        del raw[missing]
        with pytest.raises(ValidationError, match=missing):
            config_from_dict(raw)

    def test_unknown_problem_name(self):
        with pytest.raises(ValidationError, match="known"):
            config_from_dict({**MINIMAL, "problem": "mnist"})

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            config_from_dict({**MINIMAL, "method": "adam"})


class TestValueValidation:
    def test_epochs_and_iterations_conflict(self):
        with pytest.raises(ValidationError, match="not both"):
            config_from_dict({**MINIMAL, "epochs": 5, "iterations": 10})

    def test_boolean_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            config_from_dict({**MINIMAL, "seed": True})

    @pytest.mark.parametrize("field", ["epochs", "iterations", "batch_size"])
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            config_from_dict({**MINIMAL, field: 0})

    def test_negative_base_lr(self):
        with pytest.raises(ValidationError, match="base_lr"):
            config_from_dict({**MINIMAL, "base_lr": -0.1})

    def test_grid_entries_must_be_positive(self):
        with pytest.raises(ValidationError, match="grid"):
            config_from_dict({**MINIMAL, "grid": [1e-3, 0.0]})

    def test_null_base_lr_is_a_validation_error(self):
        raw = apply_overrides(dict(MINIMAL), ["base_lr=null"])
        with pytest.raises(ValidationError, match="base_lr"):
            config_from_dict(raw)
        with pytest.raises(ValidationError, match="base_lr"):
            config_from_dict({**MINIMAL, "base_lr": "fast"})

    def test_scalar_grid_is_a_validation_error(self):
        raw = apply_overrides({**MINIMAL, "method": "grid"}, ["grid=0.1"])
        with pytest.raises(ValidationError, match="grid"):
            config_from_dict(raw)
        with pytest.raises(ValidationError, match="grid"):
            ExperimentConfig(**MINIMAL, grid=[1e-3, None])

    def test_bad_hidlr_value_propagates(self):
        with pytest.raises(ValidationError, match="gamma"):
            config_from_dict({**MINIMAL, "hidlr": {"gamma": 1.5}})

    @pytest.mark.parametrize("value", ['"false"', '"no"', '"true"', "1", "null"])
    def test_fresh_probe_batch_must_be_a_bool(self, value):
        raw = apply_overrides(dict(MINIMAL), [f"hidlr.fresh_probe_batch={value}"])
        with pytest.raises(ValidationError, match="fresh_probe_batch must be true or"):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", ["false", "no", "true", "yes"])
    def test_fresh_probe_batch_yaml_bools_accepted(self, value):
        raw = apply_overrides(dict(MINIMAL), [f"hidlr.fresh_probe_batch={value}"])
        expected = value in ("true", "yes")
        assert config_from_dict(raw).hidlr.fresh_probe_batch is expected


class TestOverrides:
    def test_scalar_override(self):
        raw = apply_overrides(dict(MINIMAL), ["seed=7"])
        assert raw["seed"] == 7
        assert config_from_dict(raw).seed == 7

    def test_nested_override_creates_section(self):
        raw = apply_overrides(dict(MINIMAL), ["hidlr.phi=3", "hidlr.gamma=0.0"])
        assert raw["hidlr"] == {"phi": 3, "gamma": 0.0}

    def test_override_does_not_mutate_input(self):
        raw = dict(MINIMAL)
        apply_overrides(raw, ["seed=99"])
        assert raw["seed"] == 0

    def test_yaml_typed_values(self):
        raw = apply_overrides(dict(MINIMAL), ["hidlr.fresh_probe_batch=true"])
        assert raw["hidlr"]["fresh_probe_batch"] is True

    def test_malformed_override(self):
        with pytest.raises(ParseError, match="key=value"):
            apply_overrides(dict(MINIMAL), ["seed:7"])

    def test_override_through_scalar_fails(self):
        with pytest.raises(ParseError, match="not a mapping"):
            apply_overrides({**MINIMAL, "hidlr": 3}, ["hidlr.phi=2"])


class TestShippedPresets:
    def test_every_preset_parses(self, repo_root):
        paths = sorted((repo_root / "configs").glob("*.yaml"))
        assert len(paths) == 7
        for path in paths:
            cfg = parse_config(path)
            assert cfg.method == "hidlr"

    def test_nam_preset_knobs(self, repo_root):
        cfg = parse_config(repo_root / "configs" / "nam-synthetic.yaml")
        assert cfg.problem == "nam-synthetic"
        assert cfg.optimizer == "sgd"
        assert cfg.epochs == 100
        assert cfg.batch_size == 256
        assert cfg.hidlr.phi == 2
        assert cfg.hidlr.fresh_probe_batch is True

    def test_housing_preset_knobs(self, repo_root):
        cfg = parse_config(repo_root / "configs" / "california-housing.yaml")
        assert cfg.optimizer == "adamw"
        assert cfg.epochs == 200
        assert cfg.hidlr.phi == 8
        assert cfg.problem_params["csv_path"] == "data/california_stand_in.csv"
