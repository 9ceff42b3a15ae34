"""Closed-loop training workloads: set-up, timed runs, tracing and checks.

A workload is one committed preset with a run length chosen here. A run of
the benchmark sets up a panel of training runs, each with its own config
seed derived from the workload seed, then trains the panel in whole rounds,
one run after another in this process, for about ``seconds`` seconds. Every
training run is followed by the checks in ``checks.py``; a run that raises
or fails a check counts as failed.

Set-up (config parse, data generation and problem build) is timed apart
from the runs: the problems built in set-up are handed to the runner in
place of a second build, so a run's time starts at the end of set-up.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from hidlr.controller import build_probe_matrix, evaluate_probes
from hidlr.harness import runner
from hidlr.harness.config import parse_config
from hidlr.harness.metrics import emit_metrics
from hidlr.linalg import spawn_rngs
from hidlr.optim import OptimizerState, direction
from hidlr.problems import build_problem

import checks
import selftest
import tracing

OUT_DIR = ".perfbench_out"  # record files, under the checkout; removed at exit
# Config seed of panel member j for workload seed s: s * SEED_STRIDE + j.
SEED_STRIDE = 1000
MIN_SETUPS = 16  # set-ups timed per benchmark run, for the median
TRACED_MEMBERS = 4  # with --trace 1, a round runs these members untraced, then traced
MICRO_REPS = {"loss": 31, "grad": 31, "probe_set": 9}
FD_STEP = 1e-6  # central-difference step along a unit direction
FD_RTOL = 1e-6  # |fd - g.v| allowed, as a share of |g|
# Refresh-target decay when the preset leaves it at the optimizer's default.
DEFAULT_PERSISTENCE = {"sgd": 0.0, "adamw": 0.9, "momentum": 0.9}


@dataclass(frozen=True)
class Workload:
    preset: str  # configs/<preset>.yaml
    changes: dict  # fields replaced in the parsed preset: run length, method
    panel: int  # training runs per round, each with its own config seed


# Panels are sized so that the median final test loss over a panel moves
# little between workload seeds: a single NAM seed's test loss spreads by
# 20-30% (interquartile range over median) from one seed to the next. NAM
# runs 10 epochs because hidlr's train loss still spikes 3-50x within an
# epoch until about the eighth (see README.md).
WORKLOADS = {
    "nam-hidlr": Workload("nam-synthetic", {"epochs": 10}, 32),
    "nam-constant": Workload(
        "nam-synthetic", {"epochs": 10, "method": "constant", "base_lr": 3e-3}, 48
    ),
    "multitask-hidlr": Workload("multitask", {"epochs": 5}, 8),
    "lora-hidlr": Workload("lora-synthetic", {"iterations": 1000}, 8),
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_mem_mb": "MB", "final_test_loss": "loss"}


@dataclass
class Member:
    """One training run of the panel: its config, problem and checks."""

    cfg: object
    problem: object
    spec: checks.RunSpec
    out_dir: Path
    files: Optional[dict] = None  # records of its first run, for the repeat check
    digest: Optional[str] = None
    test_loss: Optional[float] = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


class Prebuilt:
    """Stands in for the runner's ``build_problem``: returns set-up's problem.

    Keyed by problem, parameters and the data generator's state, so a run
    gets exactly the problem its own build would make; any other call is
    passed to the real ``build_problem`` and counted in ``misses``.
    """

    def __init__(self):
        self.problems = {}
        self.misses = 0

    @staticmethod
    def key(name, rng, params):
        return (name, json.dumps(params or {}, sort_keys=True), repr(rng.bit_generator.state))

    def add(self, name, rng, params, problem):
        self.problems[self.key(name, rng, params)] = problem

    def __call__(self, name, rng, params=None):
        problem = self.problems.get(self.key(name, rng, params))
        if problem is None:
            self.misses += 1
            return build_problem(name, rng, params)
        return problem


@contextmanager
def patched(module, attr, value):
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


def run_spec(cfg, problem) -> checks.RunSpec:
    if cfg.grouping != "default" or cfg.hidlr.gating != "global":
        raise ValueError("the checks model default grouping with global gating")
    n = problem.train.n
    steps = cfg.iterations if cfg.iterations is not None else cfg.epochs * (n // (cfg.batch_size or n))
    h = cfg.hidlr
    opt = cfg.optimizer_params
    persistence = {"adamw": opt.get("beta1"), "momentum": opt.get("mu")}.get(cfg.optimizer)
    if persistence is None:
        persistence = DEFAULT_PERSISTENCE[cfg.optimizer]
    return checks.RunSpec(
        method=cfg.method,
        steps=steps,
        k=problem.default_layout.k,
        phi=h.phi,
        fresh_probe_batch=bool(h.fresh_probe_batch),
        persistence=float(persistence),
        gamma=h.gamma,
        r2_threshold=h.r2_threshold,
        eta0=tuple(float(e) for e in np.atleast_1d(h.eta0)),
        eta_min=h.eta_min,
        eta_max=h.eta_max,
        probe_floor=h.probe_floor,
        base_lr=cfg.base_lr,
    )


def set_up(root: Path, workload: Workload, config_seed: int):
    """(cfg, problem, parse seconds, build seconds) for one training run."""
    start = time.perf_counter()
    cfg = replace(parse_config(root / "configs" / f"{workload.preset}.yaml"), seed=config_seed, **workload.changes)
    parsed = time.perf_counter()
    problem = build_problem(cfg.problem, spawn_rngs(config_seed, 3)[0], cfg.problem_params)
    built = time.perf_counter()
    return cfg, problem, parsed - start, built - parsed


def train_once(member: Member, emit=emit_metrics):
    """One training run to its three record files: (seconds, file bytes)."""
    start = time.perf_counter()
    record = runner.run_experiment(member.cfg)
    paths = emit(record, member.out_dir)
    seconds = time.perf_counter() - start
    return seconds, {name: Path(paths[name]).read_bytes() for name in checks.RECORD_FILES}


def attempt(label: str, member: Member, tally: Tally, run=train_once):
    """Run and check once; (seconds, files, records), or None if it failed."""
    tally.attempted += 1
    try:
        seconds, files = run(member)
        rec = checks.check_records(files, member.spec)
        if member.digest is None:
            member.files, member.digest = files, checks.digest(files)
            member.test_loss = rec["metrics"][-1]["test_loss"]
        else:
            checks.check_repeat(member.digest, files)
    except Exception:  # one failed run is counted and the loop goes on
        tally.failed += 1
        print(f"{label} config seed {member.cfg.seed}: run failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None
    return seconds, files, rec


def peak_memory_run(member: Member, marks: dict):
    """Run once under tracemalloc, the real build included: (seconds, files).

    ``marks["mb"]`` gets the peak in MB above what is held once the problem
    is built.
    """

    def build_then_mark(name, rng, params=None):
        problem = build_problem(name, rng, params)
        tracemalloc.reset_peak()
        marks["base"] = tracemalloc.get_traced_memory()[0]
        return problem

    with patched(runner, "build_problem", build_then_mark):
        tracemalloc.start()
        try:
            seconds, files = train_once(member)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    marks["mb"] = (peak - marks.get("base", 0)) / 1e6
    return seconds, files


def micro(member: Member, timed: bool) -> dict:
    """One loss, grad and probe set on the problem, checked against own loops.

    Returns per-call times in microseconds (median of a few calls) when
    ``timed``; raises CheckFailed when a check rejects.
    """
    cfg, problem = member.cfg, member.problem
    layout = problem.default_layout
    w = problem.init_params(spawn_rngs(cfg.seed, 3)[1])
    rng = np.random.default_rng(cfg.seed)
    n = problem.train.n
    batch = rng.choice(n, size=cfg.batch_size or n, replace=False)
    g = problem.grad(w, batch)
    d = direction(OptimizerState.create(cfg.optimizer, problem.dim, **cfg.optimizer_params), g, w)
    rates = checks.initial_rates(member.spec)
    probe = build_probe_matrix(np.array(rates), cfg.hidlr.probe_floor)
    l0 = problem.loss(w, batch)
    deltas = evaluate_probes(problem, w, d, layout, probe, batch, l0)

    for g_k, part in enumerate(layout.slices()):
        scale = checks.probe_scale(rates[g_k], member.spec)
        for i, v in enumerate(checks.PROBE_MULTIPLIERS):
            j = 4 * g_k + i
            moved = w.copy()
            moved[part] -= v * scale * d[part]
            lj = problem.loss(moved, batch)
            if abs(deltas[j] - (lj - l0)) > checks.PROBE_RTOL * max(abs(l0), abs(lj)):
                raise checks.CheckFailed(
                    "probe-set", f"probe {j} (group {g_k}) gives {deltas[j]!r}, own loop {lj - l0!r}"
                )
    v = rng.standard_normal(problem.dim)
    v /= np.linalg.norm(v)
    fd = (problem.loss(w + FD_STEP * v, batch) - problem.loss(w - FD_STEP * v, batch)) / (2 * FD_STEP)
    if abs(fd - g @ v) > FD_RTOL * np.linalg.norm(g):
        raise checks.CheckFailed("grad", f"g.v = {g @ v!r}, central difference {fd!r}")
    if not timed:
        return {}

    def per_call_us(fn, reps):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e6

    return {
        "problems.loss_us": per_call_us(lambda: problem.loss(w, batch), MICRO_REPS["loss"]),
        "problems.grad_us": per_call_us(lambda: problem.grad(w, batch), MICRO_REPS["grad"]),
        "controller.probe_set_us": per_call_us(
            lambda: evaluate_probes(problem, w, d, layout, probe, batch, l0), MICRO_REPS["probe_set"]
        ),
    }


def layer_metrics(tracer: tracing.Tracer, seconds: float, rec: dict, nbytes: int) -> dict:
    busy, calls = tracer.busy, tracer.calls
    refreshes = [r for r in rec["probes"] if r["kind"] == "refresh"]
    return {
        "problems.loss_calls": calls["problems.loss"],
        "problems.loss_s": busy["problems.loss"],
        "problems.grad_calls": calls["problems.grad"],
        "problems.grad_s": busy["problems.grad"],
        "problems.eval_s": busy["problems.eval"],
        "controller.probe_s": busy["controller.probe"],
        "controller.probe_self_s": busy["controller.probe"]
        - tracer.child[("controller.probe", "problems.loss")],
        "controller.fit_s": busy["controller.fit"],
        "controller.optimal_lr_s": busy["controller.optimal_lr"],
        "controller.gate_s": busy["controller.gate"],
        "controller.refreshes": len(refreshes),
        "controller.accepted_refreshes": sum(1 for r in refreshes if r["accepted"]),
        "optim.direction_s": busy["optim.direction"],
        "optim.apply_update_s": busy["optim.apply_update"],
        "harness.runner.refresh_rows_s": busy["harness.runner.refresh_rows"],
        "harness.runner.self_s": seconds - tracer.outermost,
        "harness.metrics.emit_s": busy["harness.metrics.emit"],
        "harness.metrics.bytes": nbytes,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    out_root = root / OUT_DIR / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        return _run(workload, name, root, out_root, seed, seconds, trace)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            (root / OUT_DIR).rmdir()
        except OSError:  # not empty: another run is using it
            pass


def _run(workload, name, root, out_root, seed, seconds, trace) -> int:
    prebuilt = Prebuilt()
    members, parse_s, build_s, setup_s = [], [], [], []
    for i in range(max(workload.panel, MIN_SETUPS)):
        j = i % workload.panel
        cfg, problem, p_s, b_s = set_up(root, workload, seed * SEED_STRIDE + j)
        parse_s.append(p_s)
        build_s.append(b_s)
        setup_s.append(p_s + b_s)
        if i < workload.panel:
            # the data generator in the state the runner's build will see
            prebuilt.add(cfg.problem, spawn_rngs(cfg.seed, 3)[0], cfg.problem_params, problem)
            members.append(Member(cfg, problem, run_spec(cfg, problem), out_root / str(j)))

    correct = True
    try:
        micro_us = micro(members[0], timed=trace)
    except checks.CheckFailed as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        correct, micro_us = False, {}

    tally = Tally()
    metrics = {}
    if not trace:
        marks = {}
        if attempt(name, members[0], tally, run=lambda m: peak_memory_run(m, marks)):
            metrics["peak_mem_mb"] = marks["mb"]

    tracer = tracing.Tracer()
    traced_emit = tracer.wrap("harness.metrics.emit", emit_metrics)
    round_members = members[:TRACED_MEMBERS] if trace else members
    run_times, overheads, layers = [], [], []
    rounds = 0
    with patched(runner, "build_problem", prebuilt):
        window_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for member in round_members:
                plain = attempt(name, member, tally)
                if plain is not None:
                    run_times.append(plain[0])
                if not trace:
                    continue
                tracer.reset()
                with tracing.traced(tracer, member.problem):
                    traced = attempt(name, member, tally, run=lambda m: train_once(m, traced_emit))
                if traced is not None:
                    traced_s, files, rec = traced
                    layers.append(layer_metrics(tracer, traced_s, rec, sum(map(len, files.values()))))
                    if plain is not None:
                        overheads.append(traced_s - plain[0])
            rounds += 1
            now = time.perf_counter()
            if (now - window_start) + (now - round_start) > seconds:
                break

    failures = []
    sample = next((m for m in members if m.digest is not None), None)
    if sample is not None:
        failures = selftest.failures(sample.files, sample.spec)
    for missed in failures:
        print(f"{name}: self-test: {missed}", file=sys.stderr)
    correct = correct and not failures and sample is not None
    if prebuilt.misses:
        print(f"{name}: {prebuilt.misses} runs built their own problem", file=sys.stderr)

    if trace:
        for key in layers[0] if layers else ():
            metrics[key] = statistics.median(layer[key] for layer in layers)
        metrics["harness.config.parse_s"] = statistics.median(parse_s)
        metrics["problems.build_s"] = statistics.median(build_s)
        metrics.update(micro_us)
        if overheads:
            metrics["trace.overhead_s"] = statistics.median(overheads)
    else:
        if run_times:
            metrics["run_s"] = statistics.median(run_times)
        metrics["setup_s"] = statistics.median(setup_s)
        losses = [m.test_loss for m in members if m.test_loss is not None]
        if losses:
            metrics["final_test_loss"] = statistics.median(losses)

    print(
        f"{name} seed {seed}: {rounds} rounds of {len(round_members)} training runs"
        f"{' (untraced, then traced)' if trace else ''}, "
        f"{tally.attempted} attempted, {tally.failed} failed"
    )
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {unit_of(key)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0 if run_times else 1
