"""Command-line interface: subcommands, exit codes, emitted files."""

import json

import numpy as np
import pytest
import yaml

from hidlr.harness.cli import main
from hidlr.problems import PROBLEM_NAMES

from conftest import read_jsonl


@pytest.fixture
def ellipse_yaml(tmp_path):
    path = tmp_path / "ellipse.yaml"
    path.write_text(
        yaml.safe_dump(
            {"problem": "ellipse", "method": "hidlr", "seed": 0, "iterations": 10}
        )
    )
    return path


class TestInformationalCommands:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(out)
        assert set(out) == set(PROBLEM_NAMES)

    def test_budget(self, capsys):
        assert main(["budget", "100", "2", "10"]) == 0
        assert capsys.readouterr().out.strip() == "180"

    def test_budget_fresh_probe_batch(self, capsys):
        assert main(["budget", "100", "2", "10", "--fresh-probe-batch"]) == 0
        assert capsys.readouterr().out.strip() == "190"

    def test_budget_invalid_arguments(self, capsys):
        assert main(["budget", "0", "2", "10"]) == 1
        assert "error" in capsys.readouterr().err


class TestRunCommand:
    def test_run_writes_metrics(self, ellipse_yaml, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(ellipse_yaml), "--out", str(out)])
        assert code == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "probes.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["problem"] == "ellipse"
        assert summary["total_steps"] == 10
        assert "wrote" in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, ellipse_yaml, tmp_path):
        out = tmp_path / "out"
        main(["run", str(ellipse_yaml), "--seed", "42", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 42

    def test_override_flag(self, ellipse_yaml, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                str(ellipse_yaml),
                "--out",
                str(out),
                "--override",
                "iterations=4",
                "--override",
                "hidlr.phi=2",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_steps"] == 4
        refreshes = [
            r for r in read_jsonl(out / "probes.jsonl") if r["kind"] == "refresh"
        ]
        assert [r["t"] for r in refreshes] == [0, 2]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: ellipse\nmethod: hidlr\nseed: 0\nlerning_rate: 1\n")
        assert main(["run", str(path)]) == 1
        assert "lerning_rate" in capsys.readouterr().err

    def test_bad_override_value(self, ellipse_yaml, capsys):
        assert main(["run", str(ellipse_yaml), "--override", "hidlr.gamma=2"]) == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [(["base_lr=null"], "base_lr"), (["method=grid", "grid=0.1"], "grid")],
    )
    def test_wrong_type_override_exits_1(self, ellipse_yaml, capsys, overrides, key):
        args = [arg for item in overrides for arg in ("--override", item)]
        assert main(["run", str(ellipse_yaml), *args]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ['"false"', '"no"'])
    def test_string_fresh_probe_batch_exits_1(self, ellipse_yaml, tmp_path, capsys, value):
        out = tmp_path / "out"
        args = ["--override", f"hidlr.fresh_probe_batch={value}", "--out", str(out)]
        assert main(["run", str(ellipse_yaml), *args]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: fresh_probe_batch must be true or false, got '{value[1:-1]}'"
        ]
        assert not out.exists()

    def test_fresh_probe_batch_without_a_dataset_exits_2(self, repo_root, tmp_path, capsys):
        config = str(repo_root / "configs" / "ellipse.yaml")
        args = ["--override", "hidlr.fresh_probe_batch=true", "--out", str(tmp_path / "out")]
        assert main(["run", config, *args]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "runtime error: run problem=ellipse seed=0: "
            "hidlr.fresh_probe_batch needs a dataset; ellipse has none"
        ]
        assert not (tmp_path / "out").exists()

    def test_batch_size_without_a_dataset_exits_2(self, repo_root, tmp_path, capsys):
        config = str(repo_root / "configs" / "ellipse.yaml")
        args = ["--override", "batch_size=4", "--out", str(tmp_path / "out")]
        assert main(["run", config, *args]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "runtime error: run problem=ellipse seed=0: batch_size needs a dataset; ellipse has none"
        ]
        assert not (tmp_path / "out").exists()

    def test_diverging_baseline_exits_2(self, repo_root, tmp_path, capsys):
        config = repo_root / "configs" / "nam-synthetic.yaml"
        args = ["--override", "method=constant", "--override", "base_lr=0.02"]
        with np.errstate(all="ignore"):
            code = main(["run", str(config), *args, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "training loss at step 8 is inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lora_rank_error_exits_2(self, repo_root, tmp_path, capsys):
        config = repo_root / "configs" / "lora-synthetic.yaml"
        args = ["--override", "problem_params.rank=0", "--out", str(tmp_path / "out")]
        assert main(["run", str(config), *args]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["runtime error: rank 0 outside [1, 64]"]
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "config, override, same_as",
        [
            ("ellipse", "hidlr.eta_max=1e-2", "hidlr.eta_max=0.01"),
            ("ellipse", "hidlr.gamma=5e-1", "hidlr.gamma=0.5"),
            ("lora-synthetic", "optimizer_params.eps=1e-8", "optimizer_params.eps=0.00000001"),
        ],
    )
    def test_exponent_numbers_run_like_decimals(
        self, repo_root, tmp_path, capsys, config, override, same_as
    ):
        config = str(repo_root / "configs" / f"{config}.yaml")
        summaries = []
        for i, item in enumerate((override, same_as)):
            out = tmp_path / str(i)
            args = ["--override", item, "--override", "iterations=8", "--out", str(out)]
            assert main(["run", config, *args]) == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "config, override, message",
        [
            ("lora-synthetic", "batch_size=true", "batch_size must be an integer, got True"),
            ("ellipse", "hidlr.phi=true", "phi must be an integer, got True"),
            ("ellipse", "hidlr.eta_max=fast", "eta_max must be a number, got 'fast'"),
            ("lora-synthetic", "optimizer_params.beta1=1.5",
             "optimizer_params.beta1 must be a finite number in [0, 1), got 1.5"),
            ("lora-synthetic", "optimizer_params.beta2=-1",
             "optimizer_params.beta2 must be a finite number in [0, 1), got -1.0"),
            ("nam-synthetic", "optimizer_params.weight_decay=0.5",
             "unknown key(s) optimizer_params.weight_decay; allowed for optimizer sgd: none"),
            ("lora-synthetic", "optimizer_params.mu=0.5",
             "unknown key(s) optimizer_params.mu; "
             "allowed for optimizer adamw: beta1, beta2, eps, weight_decay"),
            ("ellipse", "hidlr.eta0=abc", "eta0 must be a number, got 'abc'"),
            ("ellipse", "hidlr.eta0=[1e-3, -1]", "eta0 must be a finite number > 0, got -1.0"),
            ("ellipse", "hidlr.eta0=true", "eta0 must be a number, got True"),
            ("ellipse", "hidlr.eta0=.inf", "eta0 must be a finite number > 0, got inf"),
            ("ellipse", "hidlr.eta0=.nan", "eta0 must be a finite number > 0, got nan"),
            ("ellipse", "grouping_names=5", "grouping_names must be a list of strings, got 5"),
            ("ellipse", "base_lr=.inf", "base_lr must be a finite number > 0, got inf"),
            ("ellipse", "grid=[1e-3, .inf]",
             "grid must be a nonempty list of finite rates > 0, got [0.001, inf]"),
            ("ellipse", "hidlr.eta_max=.inf",
             "need 0 < eta_min < eta_max < inf, got [1e-10, inf]"),
            ("ellipse", "hidlr.probe_floor=.inf",
             "probe_floor must be a finite number > 0, got inf"),
        ],
    )
    def test_bad_value_is_one_config_error(
        self, repo_root, tmp_path, capsys, config, override, message
    ):
        out = tmp_path / "out"
        args = ["--override", override, "--out", str(out)]
        assert main(["run", str(repo_root / "configs" / f"{config}.yaml"), *args]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["grouping_names=[x]"],
             "grouping_names needs grouping: named-split, got grouping 'per-coordinate'"),
            (["grouping=named-split", "grouping_names=[x, y, x]"],
             "grouping_names repeats x"),
        ],
    )
    def test_bad_grouping_names_is_one_config_error(
        self, repo_root, tmp_path, capsys, overrides, message
    ):
        out = tmp_path / "out"
        args = [arg for item in overrides for arg in ("--override", item)]
        config = str(repo_root / "configs" / "ellipse.yaml")
        assert main(["run", config, *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, where",
        [
            (b"problem: [ellipse\nmethod: hidlr\n", "line 2, column 7: "),
            (b"# caf\xe9\nproblem: ellipse\n", "line 1, column 6: byte 0xe9 is not valid UTF-8"),
        ],
    )
    def test_unreadable_config_is_one_config_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {path}: {where}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, override, message",
        [
            ("lora-synthetic", "problem_params.rank=2.5", "rank must be an integer, got 2.5"),
            ("lora-synthetic", "problem_params.width=true",
             "width must be an integer, got True"),
            ("nam-synthetic", "problem_params.hidden_sizes=[32.7]",
             "hidden_sizes entry must be an integer, got 32.7"),
            ("nam-synthetic", "problem_params.hidden_sizes=[true]",
             "hidden_sizes entry must be an integer, got True"),
            ("nam-synthetic", "problem_params.hidden_sizes=32",
             "hidden_sizes must be a list of integers, got 32"),
            ("california-housing", "problem_params.hidden_sizes=32",
             "hidden_sizes must be a list of integers, got 32"),
            ("moe", "problem_params.flip_fraction=abc",
             "flip_fraction must be a number, got 'abc'"),
            ("moe", "problem_params.flip_fraction=1.5", "flip_fraction must be in [0, 1], got 1.5"),
            ("moe", "problem_params.flip_fraction=-0.1",
             "flip_fraction must be in [0, 1], got -0.1"),
            ("moe", "problem_params.flip_fraction=true",
             "flip_fraction must be a number, got True"),
        ],
    )
    def test_bad_problem_parameter_is_one_runtime_error(
        self, repo_root, tmp_path, capsys, monkeypatch, config, override, message
    ):
        monkeypatch.chdir(repo_root)  # where california-housing's relative csv_path resolves
        out = tmp_path / "out"
        args = ["--override", override, "--out", str(out)]
        assert main(["run", str(repo_root / "configs" / f"{config}.yaml"), *args]) == 2
        assert capsys.readouterr().err.splitlines() == [f"runtime error: {message}"]
        assert not out.exists()


class TestGridCommand:
    def test_grid_forces_method(self, ellipse_yaml, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(ellipse_yaml), "--override", "method=grid", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "grid" in summary
        assert "best_lr" in capsys.readouterr().out


class TestDiagCommand:
    def test_diag_writes_table(self, ellipse_yaml, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["diag", str(ellipse_yaml), "--out", str(out)]) == 0
        rows = read_jsonl(out / "diagnostics.jsonl")
        # two groups, four probe scales each
        assert len(rows) == 8
        assert {r["group_name"] for r in rows} == {"x", "y"}
        printed = capsys.readouterr().out
        assert "pooled_r2=1.000000" in printed  # quadratic: exact fit

    @pytest.mark.parametrize(
        "override, key", [("batch_size=4", "batch_size"),
                          ("hidlr.fresh_probe_batch=true", "hidlr.fresh_probe_batch")],
    )
    def test_dataset_setting_on_a_toy_exits_2(self, repo_root, tmp_path, capsys, override, key):
        config = str(repo_root / "configs" / "ellipse.yaml")
        args = ["--override", override, "--out", str(tmp_path / "out")]
        assert main(["diag", config, *args]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"runtime error: {key} needs a dataset; ellipse has none"
        ]
        assert not (tmp_path / "out").exists()
