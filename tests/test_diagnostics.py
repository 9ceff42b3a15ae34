"""Record serialization and the fit-quality diagnostic table."""

import numpy as np
import pytest

from hidlr.errors import ValidationError
from hidlr.harness.config import ExperimentConfig
from hidlr.harness.diagnostics import pooled_r2_from_rows, taylor_diagnostics
from hidlr.harness.metrics import emit_metrics
from hidlr.harness.runner import run_experiment
from hidlr.problems import ellipse_problem

from conftest import read_jsonl
from oracle import quadratic_problem


@pytest.fixture
def ellipse_record():
    return run_experiment(
        ExperimentConfig(problem="ellipse", method="hidlr", seed=0, iterations=5)
    )


class TestEmitMetrics:
    def test_writes_three_files(self, ellipse_record, tmp_path):
        paths = emit_metrics(ellipse_record, tmp_path / "run")
        for p in paths.values():
            assert p.exists()
        assert read_jsonl(paths["metrics"]) == ellipse_record.rows
        assert read_jsonl(paths["probes"]) == ellipse_record.probes

    def test_output_bytes_are_stable(self, ellipse_record, tmp_path):
        a = emit_metrics(ellipse_record, tmp_path / "a")
        b = emit_metrics(ellipse_record, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_lines_have_sorted_keys(self, ellipse_record, tmp_path):
        paths = emit_metrics(ellipse_record, tmp_path / "run")
        first = paths["metrics"].read_text().splitlines()[0]
        keys = list(read_jsonl(paths["metrics"])[0])
        assert keys == sorted(keys)
        assert ": " not in first  # compact separators


class TestTaylorDiagnostics:
    def test_quadratic_matches_exactly(self):
        problem = quadratic_problem(np.diag([2.0, 50.0]), np.array([1.0, 1.0]))
        layout = problem.default_layout
        w = np.array([1.0, 1.0])
        d = problem.grad(w)
        rows = taylor_diagnostics(problem, w, d, layout, [1e-3, 2e-3, -1e-3])
        assert len(rows) == 2 * 3
        for row in rows:
            assert row["measured"] == pytest.approx(
                row["predicted"], rel=1e-8, abs=1e-14
            )
        assert pooled_r2_from_rows(rows) == pytest.approx(1.0, abs=1e-10)

    def test_ellipse_reference_value(self):
        # group x at xi = 0.25 along d = grad: x moves 50 -> 25,
        # dL = 25^2 - 50^2 = -1875, and the quadratic model is exact
        problem = ellipse_problem()
        w = np.array([50.0, 1.0])
        rows = taylor_diagnostics(
            problem, w, problem.grad(w), problem.default_layout, [0.25, 0.5]
        )
        x_row = next(r for r in rows if r["group_name"] == "x" and r["xi"] == 0.25)
        assert x_row["measured"] == pytest.approx(-1875.0, rel=1e-12)
        assert x_row["predicted"] == pytest.approx(-1875.0, rel=1e-9)

    def test_grid_matching_probe_scales_reproduces_fit(self):
        problem = ellipse_problem()
        w = np.array([3.0, -1.0])
        d = problem.grad(w)
        eta = 1e-2
        rows = taylor_diagnostics(
            problem,
            w,
            d,
            problem.default_layout,
            [-2 * eta, -eta, eta, 2 * eta],
        )
        # quadratic problem: fit residuals are rounding-level everywhere
        worst = max(abs(r["measured"] - r["predicted"]) for r in rows)
        assert worst < 1e-10

    def test_empty_grid_rejected(self):
        problem = ellipse_problem()
        with pytest.raises(ValidationError):
            taylor_diagnostics(
                problem, np.ones(2), np.ones(2), problem.default_layout, []
            )

    def test_nonquadratic_has_imperfect_but_high_r2(self):
        # Beale-Rosenbrock at the start point: locally well approximated
        from hidlr.problems import beale_rosenbrock_problem

        problem = beale_rosenbrock_problem()
        w = np.array([4.0, 3.0])
        d = problem.grad(w)
        rows = taylor_diagnostics(
            problem, w, d, problem.default_layout, [1e-5, 2e-5, -1e-5, -2e-5]
        )
        r2 = pooled_r2_from_rows(rows)
        assert 0.99 < r2 <= 1.0
