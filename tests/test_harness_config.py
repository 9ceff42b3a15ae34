"""Config parsing: defaults, strict key checking, overrides, shipped presets."""

import re

import pytest
import yaml

from hidlr.errors import ParseError, ValidationError
from hidlr.harness import config
from hidlr.harness.config import (
    METHODS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    load_config_dict,
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

    def test_grouping_names_with_named_split(self):
        cfg = config_from_dict({**MINIMAL, "grouping": "named-split", "grouping_names": ["x"]})
        assert cfg.grouping_names == ("x",)

    @pytest.mark.parametrize(
        "grouping, names, message",
        [
            ("default", ["x"],
             "grouping_names needs grouping: named-split, got grouping 'default'"),
            ("single", ["x", "y"],
             "grouping_names needs grouping: named-split, got grouping 'single'"),
            ("named-split", ["y", "x", "y", "x"], "grouping_names repeats x, y"),
        ],
        ids=["default", "single", "repeats"],
    )
    def test_grouping_names_rejected(self, grouping, names, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            config_from_dict({**MINIMAL, "grouping": grouping, "grouping_names": names})

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

    @pytest.mark.parametrize(
        "optimizer, reads",
        [("sgd", ()), ("momentum", ("mu",)), ("adamw", ("beta1", "beta2", "eps", "weight_decay"))],
    )
    def test_optimizer_params_limited_to_what_the_optimizer_reads(self, optimizer, reads):
        raw = {**MINIMAL, "optimizer": optimizer}
        params = dict.fromkeys(reads, 0.5)
        assert config_from_dict({**raw, "optimizer_params": params}).optimizer_params == params
        for key in {"beta1", "beta2", "eps", "mu", "weight_decay"} - set(reads):
            message = (
                f"unknown key(s) optimizer_params.{key}; "
                f"allowed for optimizer {optimizer}: {', '.join(reads) or 'none'}"
            )
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                config_from_dict({**raw, "optimizer_params": {**params, key: 0.5}})

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            config_from_dict({**MINIMAL, "seed": -1})

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

    @pytest.mark.parametrize(
        "name, text, value",
        [
            ("gamma", "5e-1", 0.5),
            ("r2_threshold", "9e-1", 0.9),
            ("eta_min", "1e-9", 1e-9),
            ("eta_max", "1e-2", 1e-2),
            ("probe_floor", "1e-13", 1e-13),
        ],
    )
    def test_hidlr_numbers_read_like_base_lr(self, name, text, value):
        # YAML reads 5e-1 (no dot) as a string; base_lr already takes it as a number
        raw = apply_overrides(dict(MINIMAL), [f"hidlr.{name}={text}", f"base_lr={text}"])
        cfg = config_from_dict(raw)
        assert type(getattr(cfg.hidlr, name)) is float
        assert getattr(cfg.hidlr, name) == value == cfg.base_lr

    @pytest.mark.parametrize("name", ["gamma", "r2_threshold", "eta_min", "eta_max",
                                      "probe_floor"])
    @pytest.mark.parametrize("text", ["true", "fast"])
    def test_hidlr_numbers_reject_bools_and_words(self, name, text):
        raw = apply_overrides(dict(MINIMAL), [f"hidlr.{name}={text}"])
        with pytest.raises(ValidationError, match=f"^{name} must be a number, got"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key", ["epochs", "iterations", "batch_size", "hidlr.phi"])
    @pytest.mark.parametrize("text", ["true", "2.0"])
    def test_integer_fields_reject_bools_and_floats(self, key, text):
        raw = apply_overrides(dict(MINIMAL), [f"{key}={text}"])
        name = key.split(".")[-1]
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta1", 1.5),
            ("beta1", 1.0),
            ("beta2", -1),
            ("mu", float("nan")),
            ("eps", 0.0),
            ("eps", float("inf")),
            ("weight_decay", -0.1),
            ("weight_decay", float("inf")),
            ("eps", "fast"),
            ("beta1", True),
        ],
    )
    def test_optimizer_params_checked_on_load(self, key, value):
        optimizer = "momentum" if key == "mu" else "adamw"  # the one that reads the key
        raw = {**MINIMAL, "optimizer": optimizer, "optimizer_params": {key: value}}
        with pytest.raises(ValidationError, match=f"^optimizer_params.{key} must be"):
            config_from_dict(raw)

    def test_optimizer_params_stay_a_plain_dict_of_numbers(self):
        raw = apply_overrides(
            {**MINIMAL, "optimizer": "adamw"},
            ["optimizer_params.eps=1e-8", "optimizer_params.weight_decay=0",
             "optimizer_params.beta1=0"],
        )
        params = config_from_dict(raw).optimizer_params
        assert type(params) is dict
        assert params == {"eps": 1e-8, "weight_decay": 0.0, "beta1": 0.0}
        assert all(type(v) is float for v in params.values())

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


@pytest.fixture(params=["libyaml", "python"])
def loader(request, monkeypatch):
    """Each test runs under the module's loader and under the pure-Python fallback."""
    if request.param == "python":
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    return request.param


class TestLoaders:
    """The libyaml loader and its pure-Python fallback read every input alike."""

    OVERRIDES = ["1e-2", "1.0e-2", "yes", "no", "~", "null", "[a, b]", "0x1F"]
    BAD_YAML = [
        ("problem: [ellipse\nmethod: hidlr\n", 2, 7),  # unclosed flow sequence
        ("problem: ellipse\n\tseed: 0\n", 2, 1),  # tab-indented line
        ("problem: \u00e9llipse\nmethod: hi\x07dlr\n", 2, 11),  # control character
    ]

    def test_libyaml_is_used_where_pyyaml_has_it(self):
        if yaml.__with_libyaml__:
            assert config._LOADER is yaml.CSafeLoader
        else:
            assert config._LOADER is yaml.SafeLoader

    def test_presets_parse_equal(self, repo_root, monkeypatch):
        paths = sorted((repo_root / "configs").glob("*.yaml"))
        raw, fast = [load_config_dict(p) for p in paths], [parse_config(p) for p in paths]
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
        # repr tells 1 from 1.0 and True, which == does not
        assert repr([load_config_dict(p) for p in paths]) == repr(raw)
        assert [parse_config(p) for p in paths] == fast

    def test_overrides_parse_equal(self, monkeypatch):
        items = [f"k{i}={text}" for i, text in enumerate(self.OVERRIDES)]
        fast = apply_overrides({}, items)
        assert fast == {"k0": "1e-2", "k1": 0.01, "k2": True, "k3": False, "k4": None,
                        "k5": None, "k6": ["a", "b"], "k7": 31}
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
        assert repr(apply_overrides({}, items)) == repr(fast)

    @pytest.mark.parametrize("text, line, column", BAD_YAML)
    def test_syntax_error_is_one_line_at_its_position(self, tmp_path, loader, text, line, column):
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_config(path)
        message = str(info.value)
        assert "\n" not in message
        assert re.fullmatch(f"{re.escape(str(path))}: line {line}, column {column}: \\S.*", message)

    def test_non_utf8_byte_is_one_line(self, tmp_path, loader):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"problem: ellipse\n# caf\xe9\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2, column 6: "
                           "byte 0xe9 is not valid UTF-8$"):
            parse_config(path)
