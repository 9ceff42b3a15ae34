"""End-to-end runs through the harness: records, schedules, accounting."""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hidlr import controller
from hidlr.controller import (
    HiDlrConfig,
    RefreshRecord,
    build_probe_matrix,
    fit_diag_quadratic,
)
from hidlr.errors import HidlrError, NonFiniteLoss, ValidationError
from hidlr.harness import runner
from hidlr.harness.config import ExperimentConfig, parse_config
from hidlr.harness.metrics import RefreshLog, clean
from hidlr.harness.runner import (
    CountingProblem,
    RunRecord,
    _eval_row,
    _Schedule,
    run_experiment,
)
from hidlr.linalg import make_rng
from hidlr.problems import FunctionProblem, build_problem, ellipse_problem


def record_bytes(record):
    payload = {
        "rows": record.rows,
        "probes": record.probes,
        "summary": record.summary,
    }
    return json.dumps(payload, sort_keys=True).encode()


def ellipse_cfg(**kw):
    kw.setdefault("problem", "ellipse")
    kw.setdefault("method", "hidlr")
    kw.setdefault("seed", 0)
    kw.setdefault("iterations", 20)
    return ExperimentConfig(**kw)


class TestCountingProblem:
    def test_channels(self):
        problem = CountingProblem(ellipse_problem())
        w = np.array([1.0, 1.0])
        problem.loss(w)
        problem.loss(w)
        problem.grad(w)
        assert problem.train_loss_calls == 2
        assert problem.grad_calls == 1
        assert problem.eval_loss_calls == 0

    def test_delegates_attributes(self):
        problem = CountingProblem(ellipse_problem())
        assert problem.dim == 2
        assert problem.default_layout.names == ("x", "y")


class TestSchedule:
    def make(self, epochs=2, batch_size=10, n_train=40):
        problem = build_problem("moe", make_rng(0), {"n_train": n_train, "n_test": 10})
        cfg = ExperimentConfig(
            problem="moe", method="hidlr", seed=0, epochs=epochs, batch_size=batch_size
        )
        return _Schedule(problem, cfg, make_rng(1))

    def test_epoch_partitions_train_set(self):
        schedule = self.make()
        assert schedule.steps_per_epoch == 4
        assert schedule.total_steps == 8
        seen = np.concatenate([schedule.batch(t) for t in range(4)])
        assert sorted(seen.tolist()) == list(range(40))

    def test_epochs_reshuffle(self):
        schedule = self.make()
        first = [schedule.batch(t).tolist() for t in range(4)]
        second = [schedule.batch(t).tolist() for t in range(4, 8)]
        assert first != second

    def test_eval_at_epoch_ends_only(self):
        schedule = self.make()
        points = [t for t in range(8) if schedule.is_eval_point(t)]
        assert points == [3, 7]

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            self.make(batch_size=100, n_train=40)

    def test_toy_problems_run_full_batch(self):
        cfg = ellipse_cfg(iterations=7)
        schedule = _Schedule(ellipse_problem(), cfg, make_rng(0))
        assert schedule.total_steps == 7
        assert schedule.batch(0) is None
        assert all(schedule.is_eval_point(t) for t in range(7))

    def test_fresh_batch_draws_without_replacement(self):
        schedule = self.make()
        fresh = schedule.fresh_batch()
        assert fresh.shape == (10,)
        assert len(set(fresh.tolist())) == 10


def ref_finite(value):
    return value if math.isfinite(value) else None


def ref_clean(value):
    """The reference JSON cleaning: numpy to Python, non-finite to None."""
    if isinstance(value, np.ndarray):
        return [ref_clean(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [ref_clean(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return ref_finite(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def ref_refresh_rows(refresh, names):
    """The reference serializer: one refresh as probe dicts plus a decision dict."""
    rows = []
    fit = refresh.fit
    if fit is not None:
        columns = zip(fit.xi.tolist(), fit.delta_l.tolist(), fit.predicted.tolist())
        for j, (xi, delta_l, predicted) in enumerate(columns):
            g = j // 4
            rows.append(
                {
                    "kind": "probe",
                    "t": refresh.t,
                    "group": g,
                    "group_name": names[g],
                    "xi": ref_finite(xi),
                    "delta_l": ref_finite(delta_l),
                    "predicted": ref_finite(predicted),
                }
            )
    rows.append(
        {
            "kind": "refresh",
            "t": refresh.t,
            "accepted": bool(refresh.accepted),
            "reason": refresh.reason,
            "a": ref_clean(fit.a) if fit else None,
            "b": ref_clean(fit.b) if fit else None,
            "r2_group": ref_clean(fit.r2_group) if fit else None,
            "r2_pooled": ref_clean(fit.r2_pooled) if fit else None,
            "eta_star": ref_clean(refresh.eta_star),
            "eta_before": ref_clean(refresh.eta_before),
            "eta_after": ref_clean(refresh.eta_after),
            "floored": ref_clean(refresh.floored),
        }
    )
    return rows


def ref_lines(refreshes, names):
    return [
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for refresh in refreshes
        for row in ref_refresh_rows(refresh, names)
    ]


def logged_lines(refreshes, names):
    log = RefreshLog(len(refreshes), names)
    for refresh in refreshes:
        log.append(refresh)
    return list(log.lines())


def clean_rows(refresh, layout):
    """Probe rows the element-by-element way: ``clean`` on each numpy scalar."""
    fit = refresh.fit
    return [
        {
            "kind": "probe",
            "t": refresh.t,
            "group": j // 4,
            "group_name": layout.names[j // 4],
            "xi": clean(fit.xi[j]),
            "delta_l": clean(fit.delta_l[j]),
            "predicted": clean(fit.predicted[j]),
        }
        for j in range(fit.xi.shape[0])
    ]


def a_refresh(fit, k, t=8):
    eta = np.full(k, 1e-3)
    return RefreshRecord(
        t=t, fit=fit, eta_star=np.full(k, np.nan), eta_before=eta, eta_after=eta,
        accepted=False, reason="r", floored=np.zeros(k, dtype=bool),
    )


def fitted(k=2, seed=0):
    probe = build_probe_matrix(10.0 ** make_rng(seed).uniform(-3, -1, k))
    return fit_diag_quadratic(probe, make_rng(seed).standard_normal(4 * k))


class TestRefreshLogLines:
    layout = ellipse_problem().default_layout

    def lines_of(self, refresh):
        return [json.loads(line) for line in logged_lines([refresh], self.layout.names)]

    def test_probe_rows_equal_clean_rows(self):
        refresh = a_refresh(fitted(), 2)
        rows = self.lines_of(refresh)
        assert rows[:-1] == clean_rows(refresh, self.layout)
        reference = clean_rows(refresh, self.layout)
        assert json.dumps(rows[:-1], sort_keys=True) == json.dumps(reference, sort_keys=True)
        assert rows[-1]["kind"] == "refresh" and rows[-1]["a"] == clean(refresh.fit.a)

    def test_non_finite_predicted_is_null(self):
        fit = fitted()
        fit.predicted[5] = np.inf
        fit.predicted[6] = np.nan
        rows = self.lines_of(a_refresh(fit, 2))
        assert [r["predicted"] for r in rows[4:7]] == [fit.predicted[4], None, None]
        assert "Infinity" not in json.dumps(rows) and "NaN" not in json.dumps(rows)

    def test_failed_refresh_gives_decision_row_only(self):
        rows = self.lines_of(a_refresh(None, 2))
        assert len(rows) == 1
        assert rows[0]["kind"] == "refresh"
        assert rows[0]["a"] is None and rows[0]["r2_pooled"] is None

    def test_lines_equal_reference_serializer(self):
        names = ('q"uote', "back\\slash", "gr\u00fcn \u03b7")
        k = len(names)
        plain = a_refresh(fitted(k, 1), k, t=0)
        plain.eta_star = np.array([2e-3, 5e-4, 1e-2])
        plain.accepted, plain.reason = True, "ok"
        odd = a_refresh(fitted(k, 2), k, t=3)
        odd.fit.predicted[[0, 5, 11]] = [np.nan, np.inf, -np.inf]
        odd.fit.xi[1], odd.fit.delta_l[2], odd.fit.delta_l[3] = -0.0, 5e-324, 1e16
        odd.fit.a[0], odd.fit.b[1], odd.fit.r2_group[2] = -0.0, 5e-324, 1e16
        odd.fit.r2_pooled = -np.inf
        odd.eta_star = np.array([np.nan, np.inf, -np.inf])
        odd.eta_before = np.array([-0.0, 5e-324, 1e16])
        odd.floored = np.array([True, False, True])
        failed = a_refresh(None, k, t=6)
        failed.reason = "non-finite probe: probe row 4 (group 1) gave loss inf"
        failed.floored = np.array([False, True, False])
        refreshes = [plain, odd, failed]
        lines = logged_lines(refreshes, names)
        assert lines == ref_lines(refreshes, names)
        assert len(lines) == 2 * (4 * k + 1) + 1
        assert "NaN" not in "".join(lines) and "Infinity" not in "".join(lines)

    def test_run_lines_equal_reference_serializer(self, monkeypatch):
        refreshes = []
        step = runner.hidlr_step

        def keep(*args, **kwargs):
            res = step(*args, **kwargs)
            if res.refresh is not None:
                refreshes.append(res.refresh)
            return res

        monkeypatch.setattr(runner, "hidlr_step", keep)
        record = run_experiment(ellipse_cfg(iterations=6))
        names = record.refreshes.group_names
        assert list(record.probe_lines()) == ref_lines(refreshes, names)
        assert record.refreshes.n == len(refreshes) == 6

    def test_log_is_preallocated_for_every_refresh(self):
        record = run_experiment(ellipse_cfg(iterations=7, hidlr=HiDlrConfig(phi=3)))
        log = record.refreshes
        assert log.n == log.t.shape[0] == 3
        assert log.t.tolist() == [0, 3, 6]
        assert log.xi.shape == log.delta_l.shape == log.predicted.shape == (3, 8)
        assert log.a.shape == log.eta_after.shape == log.floored.shape == (3, 2)


class TestRefreshLogMemory:
    def test_lora_record_holds_little(self, repo_root):
        cfg = parse_config(repo_root / "configs" / "lora-synthetic.yaml")
        run_experiment(cfg)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = run_experiment(cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert record.refreshes.n == 250
        assert held <= 200_000

    @pytest.mark.parametrize("method", ["constant", "grid"])
    def test_run_without_refreshes_has_no_log(self, method):
        record = run_experiment(ellipse_cfg(method=method, iterations=5))
        assert record.refreshes is None
        assert list(record.probe_lines()) == []


class TestRunExperiment:
    @pytest.mark.parametrize("method", ["hidlr", "constant"])
    def test_initial_vector_freed_after_step_zero(self, method, monkeypatch):
        refs, alive = [], []
        set_up_run, hidlr_step = runner.set_up_run, runner.hidlr_step

        def set_up_and_watch(cfg):
            set_up = set_up_run(cfg)
            refs.append(weakref.ref(set_up[2]))
            return set_up

        def step_and_look(*args):
            if args[7] == 1:  # t: step 0 is over
                alive.append(refs[0]() is not None)
            return hidlr_step(*args)

        monkeypatch.setattr(runner, "set_up_run", set_up_and_watch)
        monkeypatch.setattr(runner, "hidlr_step", step_and_look)
        run_experiment(ellipse_cfg(method=method, iterations=3))
        assert alive == [False]

    def test_rows_iterations_increase(self):
        record = run_experiment(ellipse_cfg())
        iters = [row["iteration"] for row in record.rows]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)
        assert iters[-1] == 20

    def test_eta_per_group_in_rows(self):
        record = run_experiment(ellipse_cfg())
        assert all(len(row["eta"]) == 2 for row in record.rows)
        assert record.summary["n_groups"] == 2
        assert record.summary["group_names"] == ["x", "y"]

    def test_budget_audited_exactly(self):
        record = run_experiment(ellipse_cfg(iterations=10))
        calls = record.summary["loss_calls"]
        assert calls["budget_exact"] is True
        assert calls["train"] == 10 + 4 * 2 * 10
        assert calls["expected_train"] == calls["train"]

    def test_budget_audited_with_fresh_probe_batch(self):
        cfg = ExperimentConfig(
            problem="nam-synthetic",
            method="hidlr",
            seed=0,
            iterations=6,
            batch_size=64,
            hidlr=HiDlrConfig(phi=2, fresh_probe_batch=True),
        )
        calls = run_experiment(cfg).summary["loss_calls"]
        # T + (4K + 1) * ceil(T / phi) with K = 11
        assert calls["train"] == calls["expected_train"] == 6 + 45 * 3
        assert calls["budget_exact"] is True

    def test_budget_audited_after_failed_refresh(self, monkeypatch):
        def guarded(w):
            return float((w**2).sum()) if w[0] < 1.5 else np.nan

        problem = FunctionProblem(fn=guarded, grad_fn=lambda w: 2 * w, init=[1.0])
        monkeypatch.setattr(runner, "build_problem", lambda *args: problem)
        cfg = ellipse_cfg(iterations=3, hidlr=HiDlrConfig(eta0=0.5))
        record = run_experiment(cfg)
        # step 0's probes move w to 3.0, 2.0, 0.0 and -1.0: the first fails,
        # and all 4 calls are made
        assert record.probes[0]["reason"] == (
            "non-finite probe: probe row 0 (group 0) gave loss nan"
        )
        calls = record.summary["loss_calls"]
        assert calls["train"] == calls["expected_train"] == 3 + 4 * 3
        assert calls["budget_exact"] is True

    @pytest.mark.parametrize("method", ["constant", "linear", "cosine", "grid"])
    def test_baselines_audited_exactly(self, method):
        record = run_experiment(ellipse_cfg(method=method, iterations=30))
        calls = record.summary["loss_calls"]
        assert calls["train"] == calls["expected_train"] == 30
        assert calls["budget_exact"] is True
        assert record.probes == []

    def test_grid_candidates_not_counted(self):
        record = run_experiment(ellipse_cfg(method="grid", iterations=60))
        assert record.rows[-1]["loss_calls"] == 60
        assert record.summary["loss_calls"]["grad"] == 60

    def test_baseline_audit_fails_on_extra_call(self, monkeypatch):
        counted = CountingProblem.loss_and_grad

        def one_extra(self, w, batch=None):
            self.loss(w, batch)
            return counted(self, w, batch)

        monkeypatch.setattr(CountingProblem, "loss_and_grad", one_extra)
        cfg = ellipse_cfg(method="constant", iterations=5)
        with pytest.raises(HidlrError, match="budget audit failed: 10 .* expected 5"):
            run_experiment(cfg)

    def test_audit_fails_on_extra_gradient_per_refresh(self, monkeypatch, repo_root):
        probed = CountingProblem.probe_losses

        def one_extra_grad(self, w, d, layout, xi, batch=None, l0=None):
            self.grad(w, batch)
            return probed(self, w, d, layout, xi, batch, l0)

        monkeypatch.setattr(CountingProblem, "probe_losses", one_extra_grad)
        cfg = parse_config(repo_root / "configs" / "lora-synthetic.yaml")
        cfg.iterations = 40  # phi = 4: 10 refreshes
        with pytest.raises(HidlrError, match="budget audit failed: 50 gradients, expected 40"):
            run_experiment(cfg)

    def test_audit_checks_declarations_against_the_count(self, monkeypatch):
        declared = controller.refresh_calls
        monkeypatch.setattr(controller, "refresh_calls", lambda k, fresh: declared(k, fresh) - 1)
        cfg = ellipse_cfg(iterations=5)  # phi = 1: 5 refreshes of 4K = 8 calls
        with pytest.raises(HidlrError, match="budget audit failed: 45 training .* expected 40"):
            run_experiment(cfg)

    def test_diverging_baseline_raises(self):
        cfg = ExperimentConfig(
            problem="nam-synthetic",
            method="constant",
            base_lr=0.02,
            seed=0,
            epochs=1,
            batch_size=256,
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="step 8"):
            run_experiment(cfg)

    def test_eval_row_cleans_non_finite_train_loss(self):
        problem = CountingProblem(ellipse_problem())
        schedule = _Schedule(problem, ellipse_cfg(iterations=1), make_rng(0))
        record = RunRecord()
        _eval_row(problem, np.zeros(2), 0, schedule, [1.0, np.nan], np.ones(2), record)
        assert record.rows[0]["train_loss"] is None
        assert record.rows[0]["train_loss_last"] is None

    def test_probe_rows_per_refresh(self):
        record = run_experiment(ellipse_cfg(iterations=6))
        refreshes = [p for p in record.probes if p["kind"] == "refresh"]
        probes = [p for p in record.probes if p["kind"] == "probe"]
        assert len(refreshes) == 6  # phi defaults to 1
        assert len(probes) == 6 * 4 * 2
        assert {p["group_name"] for p in probes} == {"x", "y"}

    def test_same_config_bitwise_repeatable(self):
        a = run_experiment(ellipse_cfg(seed=5))
        b = run_experiment(ellipse_cfg(seed=5))
        assert record_bytes(a) == record_bytes(b)

    def test_seed_changes_nothing_on_deterministic_toy(self):
        # the ellipse has a fixed start; only rng-dependent problems differ
        a = run_experiment(ellipse_cfg(seed=1))
        b = run_experiment(ellipse_cfg(seed=2))
        assert a.rows[-1]["train_loss"] == b.rows[-1]["train_loss"]

    def test_hiulr_is_single_group_controller(self):
        single = run_experiment(ellipse_cfg(grouping="single", iterations=15))
        alias = run_experiment(ellipse_cfg(method="hiulr", iterations=15))
        assert record_bytes(single) == record_bytes(alias)
        assert single.summary["n_groups"] == 1

    def test_summary_is_json_clean(self):
        record = run_experiment(ellipse_cfg())
        text = json.dumps(record.summary)
        assert "NaN" not in text and "Infinity" not in text
        assert record.summary["final"]["train_loss"] is not None

    def test_linear_schedule_decays(self):
        record = run_experiment(
            ellipse_cfg(method="linear", base_lr=1e-3, iterations=50)
        )
        first, last = record.rows[0]["eta"][0], record.rows[-1]["eta"][0]
        assert last < first
        assert record.summary["loss_calls"]["train"] == 50
        assert record.summary["loss_calls"]["budget_exact"] is True

    def test_grid_method_reports_search(self):
        record = run_experiment(ellipse_cfg(method="grid", iterations=30))
        info = record.summary["grid"]
        assert len(info["grid"]) == 12
        assert info["best_lr"] in info["grid"]
        assert np.isfinite(info["best_loss"])
        # the final training run uses the winner as a constant rate
        assert record.rows[-1]["eta"] == [info["best_lr"], info["best_lr"]]

    def test_explicit_grid_respected(self):
        record = run_experiment(
            ellipse_cfg(method="grid", iterations=30, grid=[1e-3, 5e-3])
        )
        assert record.summary["grid"]["grid"] == [1e-3, 5e-3]

    def test_dataset_run_reports_epochs(self):
        cfg = ExperimentConfig(
            problem="moe",
            method="hidlr",
            seed=3,
            epochs=2,
            batch_size=50,
            problem_params={"n_train": 200, "n_test": 50},
        )
        record = run_experiment(cfg)
        assert record.summary["steps_per_epoch"] == 4
        assert record.summary["total_steps"] == 8
        assert [row["epoch"] for row in record.rows] == [1, 2]
        assert "test_accuracy" in record.rows[-1]


class TestMoePreset:
    def test_gate_probes_alive_at_last_refresh(self, repo_root):
        # AdamW refreshes that overshoot saturate the gate softmax, after
        # which every gate probe returns exactly 0.0 and the gate freezes
        record = run_experiment(parse_config(repo_root / "configs" / "moe.yaml"))
        last_t = record.probes[-1]["t"]
        gate = [
            p["delta_l"]
            for p in record.probes
            if p["kind"] == "probe" and p["t"] == last_t and p["group_name"] == "gate"
        ]
        assert len(gate) == 4
        assert any(dl != 0.0 for dl in gate)
