"""Problem registry: name lookup and strict parameter checking."""

import numpy as np
import pytest

from hidlr.errors import ValidationError
from hidlr.linalg import make_rng
import hidlr.problems
from hidlr.problems import PROBLEM_NAMES, LossProblem, build_problem


class TestRegistry:
    def test_known_names(self):
        assert PROBLEM_NAMES == (
            "beale-rosenbrock",
            "california-housing",
            "ellipse",
            "lora-synthetic",
            "moe",
            "multitask",
            "nam-synthetic",
        )

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="known"):
            build_problem("imagenet", make_rng(0))

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError, match="momentum"):
            build_problem("ellipse", make_rng(0), {"momentum": 0.9})

    def test_missing_required_parameter(self):
        with pytest.raises(ValidationError, match="csv_path"):
            build_problem("california-housing", make_rng(0))

    @pytest.mark.parametrize("split_seed", [1.5, True, -1])
    def test_california_split_seed_checked(self, repo_root, split_seed):
        params = {"csv_path": str(repo_root / "data" / "california_stand_in.csv"),
                  "split_seed": split_seed}
        with pytest.raises(ValidationError, match="^split_seed must be"):
            build_problem("california-housing", make_rng(0), params)

    def test_multitask_defaults_to_eight_tasks(self):
        problem = build_problem("multitask", make_rng(0))
        assert problem.n_tasks == 8
        assert problem.default_layout.k == 8

    def test_accepted_parameters_stay_explicit(self):
        # the constructor takes n_test, the registry entry does not
        with pytest.raises(ValidationError, match="n_test"):
            build_problem("lora-synthetic", make_rng(0), {"n_test": 5})

    def test_exports_have_no_duplicates_or_wrappers(self):
        exported = hidlr.problems.__all__
        assert len(exported) == len(set(exported))
        wrappers = {
            "nam_problem",
            "moe_problem",
            "lora_regression_problem",
            "multitask_head_problem",
        }
        assert not wrappers & set(exported)
        assert not any(hasattr(hidlr.problems, name) for name in wrappers)

    def test_parameters_forwarded(self):
        problem = build_problem(
            "moe", make_rng(0), {"n_train": 300, "n_test": 60}
        )
        assert problem.train.n == 300
        assert problem.test.n == 60

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_every_problem_defines_loss_and_grad(self, repo_root, name):
        csv = {"csv_path": str(repo_root / "data" / "california_stand_in.csv")}
        problem = build_problem(name, make_rng(0), csv if name == "california-housing" else {})
        assert type(problem).loss_and_grad is not LossProblem.loss_and_grad

    @pytest.mark.parametrize(
        "name, params",
        [
            ("ellipse", {}),
            ("beale-rosenbrock", {}),
            ("lora-synthetic", {"width": 16, "rank": 2, "n_train": 50}),
            ("moe", {"n_train": 100, "n_test": 20}),
            ("multitask", {"n_tasks": 2, "n_train": 64, "n_test": 16}),
        ],
    )
    def test_small_instances_satisfy_contract(self, name, params):
        problem = build_problem(name, make_rng(7), params)
        assert isinstance(problem, LossProblem)
        layout = problem.default_layout
        layout.validate()
        assert layout.dim == problem.dim
        w = problem.init_params(make_rng(8))
        assert w.shape == (problem.dim,)
        batch = np.arange(min(16, problem.train.n)) if problem.train else None
        assert np.isfinite(problem.loss(w, batch))
        assert problem.grad(w, batch).shape == (problem.dim,)
