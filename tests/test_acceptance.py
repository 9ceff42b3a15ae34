"""Acceptance gate: fourteen end-to-end checks, one printed line each.

Every test prints ``[acceptance NN] PASS/FAIL <label>: <measured values>``
directly to the terminal (bypassing capture) before asserting, so a plain
``pytest -v`` run shows the scoreboard even when a criterion fails.
"""

import json
import time
from dataclasses import replace

import numpy as np

from hidlr.controller import (
    HiDlrConfig,
    LrState,
    QuadraticFit,
    build_probe_matrix,
    evaluate_probes,
    fit_diag_quadratic,
    forward_pass_budget,
    gate_and_update,
    hidlr_step,
    initial_lr_state,
    optimal_lr,
)
from hidlr.harness.config import ExperimentConfig, parse_config
from hidlr.harness.diagnostics import pooled_r2_from_rows, taylor_diagnostics
from hidlr.harness.metrics import emit_metrics
from hidlr.harness.runner import _Schedule, run_experiment
from hidlr.linalg import make_rng, spawn_rngs
from hidlr.optim import OptimizerState, apply_update, direction
from hidlr.problems import GroupLayout, build_problem, ellipse_problem

from conftest import REPO_ROOT
from oracle import (
    fd_directional_curvature,
    fd_directional_grad,
    fit_full_quadratic,
    full_hidlr,
    masked_direction,
    quadratic_problem,
)

CONFIGS = REPO_ROOT / "configs"
NAM_MANUAL_RATES = (5e-4, 7e-4, 1e-3, 3e-3, 5e-3, 7e-3, 1e-2)
SEEDS = (0, 1, 2)


def verdict(announce, num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    announce(f"[acceptance {num:02d}] {status} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def record_bytes(record):
    payload = {
        "rows": record.rows,
        "probes": record.probes,
        "summary": record.summary,
    }
    return json.dumps(payload, sort_keys=True).encode()


def preset(name, **changes):
    cfg = parse_config(CONFIGS / f"{name}.yaml")
    if "csv_path" in cfg.problem_params:
        cfg.problem_params["csv_path"] = str(
            REPO_ROOT / cfg.problem_params["csv_path"]
        )
    return replace(cfg, **changes) if changes else cfg


def final_row_value(cfg, key):
    return run_experiment(cfg).rows[-1][key]


def test_criterion_01_newton_on_quadratic(announce):
    t0 = time.perf_counter()
    problem = ellipse_problem()
    layout = problem.default_layout  # x and y are separate groups
    cfg = HiDlrConfig(phi=1, gamma=0.0, eta0=1e-3)
    lr_state = initial_lr_state(cfg, layout.k)
    opt = OptimizerState.create("sgd", problem.dim)
    w = problem.init_params(make_rng(0))
    w_scale = 1.0 + float(np.max(np.abs(w)))

    first = None
    w_after_first = None
    losses = []
    for t in range(3):
        res = hidlr_step(problem, w, lr_state, opt, cfg, layout, None, t)
        w, lr_state = res.w, res.lr_state
        if first is None:
            first, w_after_first = res.refresh, res.w
        losses.append(problem.loss(w))
    elapsed = time.perf_counter() - t0

    eta_ok = first.accepted and np.allclose(
        first.eta_after, [0.5, 0.005], rtol=1e-12, atol=0.0
    )
    w_ok = np.max(np.abs(w_after_first)) <= 1e-12 * w_scale
    loss_ok = min(losses) < 1e-16
    verdict(
        announce,
        1,
        "newton-on-quadratic",
        eta_ok and w_ok and loss_ok and elapsed < 1.0,
        f"first refresh eta=({first.eta_after[0]:.6g}, {first.eta_after[1]:.6g}), "
        f"|w| after 1 iter {np.max(np.abs(w_after_first)):.2e} "
        f"(scale {w_scale:g}), loss {losses[0]:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_ellipse_beats_grid_by_1e6(announce):
    t0 = time.perf_counter()
    hid = final_row_value(preset("ellipse"), "train_loss_last")
    grid = run_experiment(preset("ellipse", method="grid")).summary["grid"]
    best_lr, best_loss = grid["best_lr"], grid["best_loss"]
    elapsed = time.perf_counter() - t0
    verdict(
        announce,
        2,
        "ellipse-vs-grid",
        hid <= 1e-6 * best_loss and elapsed < 10.0,
        f"hidlr {hid:.3e} vs best grid {best_loss:.4g} (lr {best_lr:.3g}); "
        f"ratio bound 1e-6, {elapsed:.2f}s",
    )


def test_criterion_03_beale_rosenbrock_ordering(announce):
    t0 = time.perf_counter()
    hid = final_row_value(preset("beale-rosenbrock"), "train_loss_last")
    hiu = final_row_value(
        preset("beale-rosenbrock", method="hiulr"), "train_loss_last"
    )
    grid = run_experiment(preset("beale-rosenbrock", method="grid")).summary["grid"]
    best_lr, grid_loss = grid["best_lr"], grid["best_loss"]
    elapsed = time.perf_counter() - t0
    verdict(
        announce,
        3,
        "beale-rosenbrock-ordering",
        hid < grid_loss and hid < hiu and elapsed < 10.0,
        f"hidlr {hid:.3e} < hiulr {hiu:.3e} and < grid {grid_loss:.3e} "
        f"(lr {best_lr:.3g}), {elapsed:.2f}s",
    )


def test_criterion_04_fit_matches_closed_form(announce):
    rng = make_rng(4)
    worst_a = worst_b = worst_r2 = worst_ratio = 0.0
    for _ in range(100):
        k = int(rng.choice([1, 2, 5]))
        sizes = [int(s) for s in rng.integers(1, 4, k)]
        layout = GroupLayout.from_sizes(
            [(f"g{i}", s) for i, s in enumerate(sizes)]
        )
        q = rng.uniform(0.5, 5.0, layout.dim)
        w = rng.uniform(0.5, 2.0, layout.dim) * rng.choice([-1.0, 1.0], layout.dim)
        problem = quadratic_problem(np.diag(q), w, layout)
        d = problem.grad(w)  # q * w
        probe = build_probe_matrix(np.full(k, 1e-2))
        deltas = evaluate_probes(
            problem, w, d, layout, probe, None, problem.loss(w)
        )
        fit = fit_diag_quadratic(probe, deltas)

        slices = [layout.slice(i) for i in range(k)]
        a_true = np.array([np.sum(q[s] * d[s] ** 2) for s in slices])
        b_true = np.array([np.sum((q * w)[s] * d[s]) for s in slices])
        worst_a = max(worst_a, np.max(np.abs(fit.a - a_true) / np.abs(a_true)))
        worst_b = max(worst_b, np.max(np.abs(fit.b - b_true) / np.abs(b_true)))
        worst_r2 = max(worst_r2, abs(fit.r2_pooled - 1.0))
        ratio = np.max(np.abs(optimal_lr(fit) - fit.b / fit.a))
        worst_ratio = max(worst_ratio, ratio)
    verdict(
        announce,
        4,
        "fit-oracle-equivalence",
        worst_a <= 1e-8 and worst_b <= 1e-8 and worst_r2 <= 1e-10
        and worst_ratio == 0.0,
        f"worst rel err a {worst_a:.2e}, b {worst_b:.2e}, |R2-1| {worst_r2:.2e} "
        f"over 100 random diagonal quadratics",
    )


def test_criterion_05_fd_agreement_on_nam(announce):
    t0 = time.perf_counter()
    problem = build_problem("nam-synthetic", make_rng(3))
    layout = problem.default_layout
    rng = make_rng(11)
    batch = rng.choice(problem.train.n, 256, replace=False)
    init = problem.init_params(make_rng(12))
    eta = 3e-6

    worst_a = worst_b = 0.0
    for _ in range(20):
        w = init + 0.02 * rng.standard_normal(problem.dim)
        g = problem.grad(w, batch)
        d = np.zeros_like(g)
        for i in range(layout.k):
            s = layout.slice(i)
            d[s] = g[s] / np.linalg.norm(g[s])
        probe = build_probe_matrix(np.full(layout.k, eta))
        deltas = evaluate_probes(
            problem, w, d, layout, probe, batch, problem.loss(w, batch)
        )
        fit = fit_diag_quadratic(probe, deltas)
        for i in range(layout.k):
            md = masked_direction(d, layout, i)
            b_fd = fd_directional_grad(problem, w, md, batch, eps=eta)
            a_fd = fd_directional_curvature(problem, w, md, batch, eps=eta)
            worst_b = max(worst_b, abs(fit.b[i] - b_fd) / abs(b_fd))
            worst_a = max(worst_a, abs(fit.a[i] - a_fd) / abs(a_fd))
    elapsed = time.perf_counter() - t0
    verdict(
        announce,
        5,
        "fd-agreement-on-nam",
        worst_b <= 0.01 and worst_a <= 0.05 and elapsed < 30.0,
        f"worst rel err b {worst_b:.2e} (tol 1%), a {worst_a:.2e} (tol 5%) "
        f"over 20 points x 11 groups, {elapsed:.1f}s",
    )


def test_criterion_06_diagonal_matches_full(announce):
    rng = make_rng(6)
    layout = GroupLayout.from_sizes([("g1", 3), ("g2", 4)])
    worst = 0.0
    for _ in range(10):
        r1 = rng.standard_normal((3, 3))
        r2 = rng.standard_normal((4, 4))
        q = np.zeros((7, 7))
        q[:3, :3] = r1 @ r1.T + 3.0 * np.eye(3)
        q[3:, 3:] = r2 @ r2.T + 4.0 * np.eye(4)
        w = rng.standard_normal(7)
        problem = quadratic_problem(q, w, layout)
        d = problem.grad(w)
        l0 = problem.loss(w)

        probe = build_probe_matrix(np.full(2, 1e-3))
        deltas = evaluate_probes(problem, w, d, layout, probe, None, l0)
        eta_diag = optimal_lr(fit_diag_quadratic(probe, deltas))

        rates = [rng.uniform(-2e-3, 2e-3, 2) for _ in range(12)]
        responses = np.array(
            [problem.loss(apply_update(w, layout, xi, d)) - l0 for xi in rates]
        )
        eta_full = full_hidlr(fit_full_quadratic(rates, responses))
        worst = max(worst, np.max(np.abs(eta_diag - eta_full) / np.abs(eta_full)))
    verdict(
        announce,
        6,
        "diagonal-vs-full",
        worst <= 1e-8,
        f"worst rel gap {worst:.2e} over 10 separable 2-group quadratics",
    )


def test_criterion_07_budget_exactness(announce):
    runs = [
        (
            ExperimentConfig(
                problem="ellipse",
                method="hidlr",
                seed=0,
                iterations=100,
                hidlr=HiDlrConfig(phi=10),
            ),
            100, 2, 10, 180,
        ),
        (
            ExperimentConfig(
                problem="ellipse",
                method="hiulr",
                seed=0,
                iterations=100,
                hidlr=HiDlrConfig(phi=1),
            ),
            100, 1, 1, 500,
        ),
        (
            ExperimentConfig(
                problem="multitask",
                method="hidlr",
                seed=0,
                iterations=7,
                batch_size=256,
                problem_params={"n_tasks": 3},
                hidlr=HiDlrConfig(phi=10),
            ),
            7, 3, 10, 19,
        ),
    ]
    measured = []
    ok = True
    for cfg, t, k, phi, expected in runs:
        calls = run_experiment(cfg).summary["loss_calls"]
        measured.append(calls["train"])
        ok = ok and calls["train"] == expected and calls["budget_exact"] is True
        ok = ok and forward_pass_budget(t, k, phi) == expected
    verdict(
        announce,
        7,
        "budget-exactness",
        ok,
        f"(T,K,phi)->(counted, expected): (100,2,10)->({measured[0]}, 180), "
        f"(100,1,1)->({measured[1]}, 500), (7,3,10)->({measured[2]}, 19)",
    )


def test_criterion_08_gate_rejections_bitwise(announce):
    eta = np.array([0.0123456789, 9.87654321e-4])
    cfg = HiDlrConfig(gamma=0.9, r2_threshold=0.95)

    def fit_with(a, b, r2):
        filler = np.zeros(8)
        return QuadraticFit(
            a=np.array(a),
            b=np.array(b),
            r2_group=np.full(2, r2),
            r2_pooled=r2,
            xi=filler,
            delta_l=filler,
            predicted=filler,
        )

    cases = [
        ("a<=0", fit_with([-1.0, 2.0], [1.0, 1.0], 1.0)),
        ("b<=0", fit_with([2.0, 2.0], [1.0, -1.0], 1.0)),
        ("R2<=0.95", fit_with([2.0, 2.0], [1.0, 1.0], 0.95)),
    ]
    ok = True
    for _, fit in cases:
        out = gate_and_update(LrState(eta=eta), fit, optimal_lr(fit), cfg)
        ok = ok and out.accepted is False and out.eta.tobytes() == eta.tobytes()
    good = fit_with([2.0, 2.0], [1.0, 1.0], 1.0)
    control = gate_and_update(LrState(eta=eta), good, optimal_lr(good), cfg)
    ok = ok and control.accepted and control.eta.tobytes() != eta.tobytes()
    verdict(
        announce,
        8,
        "gate-rejection-bitwise",
        ok,
        "eta bytes unchanged for a<=0, b<=0, R2<=0.95; control refresh moves",
    )


def test_criterion_09_hiulr_reduction(announce):
    results = []
    for name in ("ellipse", "nam-synthetic"):
        single = run_experiment(preset(name, grouping="single"))
        alias = run_experiment(preset(name, method="hiulr"))
        results.append(record_bytes(single) == record_bytes(alias))
    verdict(
        announce,
        9,
        "hiulr-reduction",
        all(results),
        f"bit-identical records: ellipse={results[0]}, nam-synthetic={results[1]}",
    )


def test_criterion_10_nam_beats_manual_rates(announce):
    t0 = time.perf_counter()
    hid = np.median(
        [final_row_value(preset("nam-synthetic", seed=s), "test_loss") for s in SEEDS]
    )
    hiu = np.median(
        [
            final_row_value(
                preset("nam-synthetic", method="hiulr", seed=s), "test_loss"
            )
            for s in SEEDS
        ]
    )
    manual = {}
    for lr in NAM_MANUAL_RATES:
        manual[lr] = np.median(
            [
                final_row_value(
                    preset("nam-synthetic", method="constant", base_lr=lr, seed=s),
                    "test_loss",
                )
                for s in SEEDS
            ]
        )
    best_lr = min(manual, key=manual.get)
    elapsed = time.perf_counter() - t0
    verdict(
        announce,
        10,
        "nam-vs-manual-rates",
        hid < hiu and hid < manual[best_lr] and elapsed < 120.0,
        f"median test MSE: hidlr {hid:.4f} < hiulr {hiu:.4f}, "
        f"< best manual {manual[best_lr]:.4f} (lr {best_lr:g}), {elapsed:.0f}s",
    )


def _static_dlr_moe_accuracy(cfg, seed):
    """The fixed (gate 1e-3, experts 5e-3) baseline, same data pipeline."""
    data_rng, init_rng, shuffle_rng = spawn_rngs(seed, 3)
    problem = build_problem("moe", data_rng, cfg.problem_params)
    layout = problem.default_layout
    w = problem.init_params(init_rng)
    schedule = _Schedule(problem, cfg, shuffle_rng)
    opt = OptimizerState.create(cfg.optimizer, problem.dim, **cfg.optimizer_params)
    rates = np.array([1e-3, 5e-3])  # gate, experts
    for t in range(schedule.total_steps):
        batch = schedule.batch(t)
        d = direction(opt, problem.grad(w, batch), w)
        w = apply_update(w, layout, rates, d)
    return problem.test_metrics(w)["test_accuracy"]


def test_criterion_11_moe_accuracy(announce):
    t0 = time.perf_counter()
    cfg = preset("moe")
    hid = np.median(
        [final_row_value(replace(cfg, seed=s), "test_accuracy") for s in SEEDS]
    )
    ulr = np.median(
        [
            final_row_value(
                replace(cfg, method="constant", base_lr=1e-3, seed=s),
                "test_accuracy",
            )
            for s in SEEDS
        ]
    )
    dlr = np.median([_static_dlr_moe_accuracy(cfg, s) for s in SEEDS])
    bar = max(ulr, dlr) - 0.005
    elapsed = time.perf_counter() - t0
    verdict(
        announce,
        11,
        "moe-accuracy",
        hid >= bar and elapsed < 120.0,
        f"median test acc: hidlr {hid:.3f} vs ULR {ulr:.3f}, "
        f"static DLR {dlr:.3f} (bar {bar:.3f}), {elapsed:.0f}s",
    )


def test_criterion_12_gradient_suite(announce):
    zoo = [
        ("ellipse", {}, 0.5),
        ("beale-rosenbrock", {}, 0.2),
        ("nam-synthetic", {}, 0.02),
        (
            "california-housing",
            {"csv_path": str(REPO_ROOT / "data" / "california_stand_in.csv")},
            0.02,
        ),
        ("lora-synthetic", {}, 0.02),
        ("moe", {}, 0.02),
        ("multitask", {"n_tasks": 4}, 0.05),
    ]
    worst = 0.0
    worst_name = ""
    for idx, (name, params, scale) in enumerate(zoo):
        problem = build_problem(name, make_rng(1200 + idx), params)
        rng = make_rng(1300 + idx)
        batch = (
            np.arange(min(64, problem.train.n))
            if problem.train is not None
            else None
        )
        base = problem.init_params(make_rng(1400 + idx))
        for _ in range(20):
            w = base + scale * rng.standard_normal(problem.dim)
            g = problem.grad(w, batch)
            g_scale = max(float(np.max(np.abs(g))), 1e-12)
            n_coords = min(5, problem.dim)
            for i in rng.choice(problem.dim, n_coords, replace=False):
                h = 1e-5 * (1.0 + abs(w[i]))
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (problem.loss(wp, batch) - problem.loss(wm, batch)) / (2 * h)
                err = abs(g[i] - fd) / g_scale
                if err > worst:
                    worst, worst_name = err, name
    verdict(
        announce,
        12,
        "gradient-suite",
        worst < 1e-5,
        f"worst rel err {worst:.2e} ({worst_name}) over 7 problems x 20 points",
    )


def test_criterion_13_taylor_diagnostic_at_200(announce):
    cfg = preset("nam-synthetic", epochs=None, iterations=200)
    hcfg = cfg.hidlr
    data_rng, init_rng, shuffle_rng = spawn_rngs(cfg.seed, 3)
    problem = build_problem(cfg.problem, data_rng, cfg.problem_params)
    layout = problem.default_layout
    w = problem.init_params(init_rng)
    schedule = _Schedule(problem, cfg, shuffle_rng)
    lr_state = initial_lr_state(hcfg, layout.k)
    opt = OptimizerState.create(cfg.optimizer, problem.dim, **cfg.optimizer_params)
    for t in range(200):
        batch = schedule.batch(t)
        pb = schedule.fresh_batch() if hcfg.fresh_probe_batch and t % hcfg.phi == 0 else None
        res = hidlr_step(problem, w, lr_state, opt, hcfg, layout, batch, t, pb)
        w, lr_state = res.w, res.lr_state

    batch = schedule.batch(200)
    d = direction(opt, problem.grad(w, batch), w)
    eta_bar = float(np.max(lr_state.eta))
    grid = [v * eta_bar for v in (-2.0, -1.0, 1.0, 2.0)]
    rows = taylor_diagnostics(problem, w, d, layout, grid, batch)
    r2 = pooled_r2_from_rows(rows)
    verdict(
        announce,
        13,
        "taylor-diagnostic",
        r2 > 0.95,
        f"pooled R2 {r2:.6f} at probe scale {eta_bar:.3g} after 200 steps",
    )


def test_criterion_14_preset_determinism(announce, tmp_path):
    presets = sorted(CONFIGS.glob("*.yaml"))
    outcomes = {}
    for path in presets:
        cfg = preset(path.stem)
        first = emit_metrics(run_experiment(cfg), tmp_path / path.stem / "a")
        second = emit_metrics(run_experiment(cfg), tmp_path / path.stem / "b")
        outcomes[path.stem] = all(
            first[key].read_bytes() == second[key].read_bytes() for key in first
        )
    verdict(
        announce,
        14,
        "preset-determinism",
        len(outcomes) == 7 and all(outcomes.values()),
        "byte-identical twice: "
        + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())),
    )
