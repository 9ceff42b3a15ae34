"""Checks of the checks: tamper with genuine records and expect each rejected.

Each case changes a record the way one check guards against and names that
check. ``failures`` returns the cases that were not rejected by the check
named, so an empty list means every check still bites.
"""

from __future__ import annotations

import copy
import json

import checks


def _dump(rec: dict) -> dict:
    """Records back to file bytes (NaN and Infinity written as bare tokens)."""
    return {
        "metrics": "".join(json.dumps(r) + "\n" for r in rec["metrics"]).encode(),
        "probes": "".join(json.dumps(r) + "\n" for r in rec["probes"]).encode(),
        "summary": json.dumps(rec["summary"]).encode(),
    }


def _first(rows, pred):
    return next((r for r in rows if pred(r)), None)


def _cases(rec: dict, spec: checks.RunSpec) -> list:
    """[(name, check expected to reject, mutate(rec) -> bool applied)]."""

    def nan_in_metrics(r):
        r["metrics"][0]["train_loss"] = float("nan")
        return True

    def infinity_in_summary(r):
        r["summary"]["final"]["train_loss"] = float("inf")
        return True

    def null_test_loss(r):
        r["metrics"][-1]["test_loss"] = None
        return True

    def loss_calls_off_by_one(r):
        r["summary"]["loss_calls"]["train"] += 1
        return True

    def train_loss_rose(r):
        r["metrics"][-1]["train_loss"] = 2.0 * abs(r["metrics"][0]["train_loss"]) + 1.0
        return True

    cases = [
        ("NaN in metrics.jsonl", "strict-json", nan_in_metrics),
        ("Infinity in summary.json", "strict-json", infinity_in_summary),
        ("null test loss", "finite", null_test_loss),
        ("loss calls off by one", "budget", loss_calls_off_by_one),
        ("final train loss above the first", "progress", train_loss_rose),
    ]
    if spec.method != "hidlr":

        def constant_rate_changed(r):
            r["metrics"][-1]["eta"][0] *= 1.01
            return True

        return cases + [("constant rate changed", "gate", constant_rate_changed)]

    def probe(r):
        return _first(r["probes"], lambda p: p["kind"] == "probe")

    def refresh(r, accepted):
        return _first(r["probes"], lambda p: p["kind"] == "refresh" and p["accepted"] is accepted)

    def delta_l_changed(r):
        p = probe(r)
        p["delta_l"] = p["delta_l"] * 1.01 if p["delta_l"] else 1e-3
        return True

    def infinity_in_probes(r):
        probe(r)["delta_l"] = float("inf")
        return True

    def probe_dropped(r):
        r["probes"].remove(probe(r))
        return True

    def decision_flipped(r):
        row = _first(r["probes"], lambda p: p["kind"] == "refresh")
        row["accepted"] = not row["accepted"]
        return True

    def rejected_refresh_moved_rates(r):
        row = refresh(r, False)
        if row is None:
            return False
        row["eta_after"][0] *= 1.5
        return True

    def ema_off(r):
        row = refresh(r, True)
        if row is None:
            return False
        row["eta_after"][0] *= 1.0 + 1e-9
        return True

    def eval_row_rates_changed(r):
        r["metrics"][-1]["eta"][0] *= 1.01
        return True

    return cases + [
        ("Infinity in probes.jsonl", "strict-json", infinity_in_probes),
        ("one delta_l changed", "fit", delta_l_changed),
        ("one probe row dropped", "budget", probe_dropped),
        ("gate decision flipped", "gate", decision_flipped),
        ("rejected refresh changed the rates", "gate", rejected_refresh_moved_rates),
        ("accepted refresh off the EMA", "gate", ema_off),
        ("eval row rates differ from the refresh", "gate", eval_row_rates_changed),
    ]


def failures(files: dict, spec: checks.RunSpec) -> list:
    """Names of tamperings not rejected by the check meant to catch them."""
    genuine = checks.check_records(files, spec)
    missed = []
    for name, expected, mutate in _cases(genuine, spec):
        rec = copy.deepcopy(genuine)
        if not mutate(rec):
            missed.append(f"{name} (the record has nothing to tamper with)")
            continue
        try:
            checks.check_records(_dump(rec), spec)
        except checks.CheckFailed as exc:
            if exc.check != expected:
                missed.append(f"{name} (rejected by {exc.check}, not {expected})")
        else:
            missed.append(f"{name} (accepted)")
    altered = dict(files, summary=files["summary"] + b" ")
    try:
        checks.check_repeat(checks.digest(files), altered)
    except checks.CheckFailed:
        pass
    else:
        missed.append("one byte added to summary.json (accepted as a repeat)")
    return missed
