"""The probe design has one home: patching ``hidlr.controller`` swaps it everywhere.

Only names in ``hidlr.controller`` are patched here, to a symmetric
six-point design. The fit, the loss-call budget and its audit, the refresh
log, ``hidlr budget`` and ``hidlr diag`` must all follow it.
"""

from collections import Counter

import numpy as np
import pytest

from hidlr import controller
from hidlr.harness.cli import main
from hidlr.harness.config import config_from_dict, load_config_dict
from hidlr.harness.diagnostics import taylor_diagnostics
from hidlr.harness.runner import run_experiment
from hidlr.problems.toy2d import FunctionProblem

from conftest import REPO_ROOT, read_jsonl

SIX = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
# preset -> overrides that keep the run short
SHORT_RUNS = {
    "ellipse": {"iterations": 10},
    "multitask": {"epochs": 3},
    "lora-synthetic": {"iterations": 40},
    "nam-synthetic": {"epochs": 2},
    "moe": {"epochs": 2},
}


@pytest.fixture
def six_point(monkeypatch):
    design = np.column_stack([0.5 * SIX**2, -SIX])
    monkeypatch.setattr(controller, "PROBE_MULTIPLIERS", SIX)
    monkeypatch.setattr(controller, "FIT_DESIGN", design)
    monkeypatch.setattr(controller, "FIT_NORMS", np.sum(design**2, axis=0))


def test_fit_recovers_a_parabola_on_six_points(six_point):
    probe = controller.build_probe_matrix(np.array([0.1, 0.02]))
    xi = probe.xi_table()
    assert xi.shape == (2, 6)
    a, b = np.array([[2.0], [30.0]]), np.array([[3.0], [-0.5]])
    fit = controller.fit_diag_quadratic(probe, (0.5 * a * xi**2 - b * xi).ravel())
    np.testing.assert_allclose(fit.a, a[:, 0], rtol=1e-10)
    np.testing.assert_allclose(fit.b, b[:, 0], rtol=1e-10)
    assert fit.r2_group == pytest.approx([1.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_run_follows_the_patched_design(name, six_point, capsys):
    raw = load_config_dict(REPO_ROOT / "configs" / f"{name}.yaml")
    raw.update(SHORT_RUNS[name])
    record = run_experiment(config_from_dict(raw))  # raises unless the audit is exact
    calls, summary = record.summary["loss_calls"], record.summary
    assert calls["budget_exact"] and calls["train"] == calls["expected_train"]

    k = summary["n_groups"]
    probes = Counter(p["t"] for p in record.probes if p["kind"] == "probe")
    refreshes = [p for p in record.probes if p["kind"] == "refresh"]
    assert refreshes and all(r["a"] is not None for r in refreshes)
    assert probes == {r["t"]: 6 * k for r in refreshes}
    first = [p for p in record.probes if p["kind"] == "probe" and p["t"] == 0]
    eta = np.repeat(refreshes[0]["eta_before"], 6)
    assert [p["xi"] for p in first] == (np.tile(SIX, k) * eta).tolist()
    assert [p["group"] for p in first] == np.repeat(np.arange(k), 6).tolist()

    hcfg = raw["hidlr"]
    args = [str(summary["total_steps"]), str(k), str(hcfg["phi"])]
    if hcfg.get("fresh_probe_batch"):
        args.append("--fresh-probe-batch")
    assert main(["budget", *args]) == 0
    assert int(capsys.readouterr().out) == calls["train"]


def test_diagnostics_reproduce_the_six_point_fit(six_point):
    problem = FunctionProblem(
        fn=lambda w: float(np.sum(w**4 + w)), grad_fn=lambda w: 4 * w**3 + 1, init=[1.0, -0.5]
    )
    layout, w = problem.default_layout, problem.init_params()
    d = problem.grad(w)
    rows = taylor_diagnostics(problem, w, d, layout, SIX * 0.05)
    probe = controller.build_probe_matrix(np.full(2, 0.05))
    deltas = controller.evaluate_probes(problem, w, d, layout, probe, None, problem.loss(w))
    fit = controller.fit_diag_quadratic(probe, deltas)
    assert [r["predicted"] for r in rows] == pytest.approx(fit.predicted.tolist(), rel=1e-9)
    assert [r["measured"] for r in rows] == pytest.approx(deltas.tolist(), rel=1e-9)


def test_diag_grid_follows_the_patched_design(six_point, tmp_path, capsys):
    config = str(REPO_ROOT / "configs" / "ellipse.yaml")
    assert main(["diag", config, "--out", str(tmp_path)]) == 0
    rows = read_jsonl(tmp_path / "diagnostics.jsonl")
    assert [r["xi"] for r in rows] == (SIX * 1e-3).tolist() * 2
    r2 = float(capsys.readouterr().out.split("pooled_r2=")[1])
    assert r2 == pytest.approx(1.0, abs=1e-9)
