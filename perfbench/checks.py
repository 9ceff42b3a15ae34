"""Checks of one training run's record files, computed apart from the program.

Every check here recomputes what the records should hold from the run's
configuration (a ``RunSpec``) and from properties the method must have; none
compares against a stored copy of earlier output. A check that rejects a
record raises ``CheckFailed`` naming itself, so the self-test can confirm that
each tampering is caught by the check meant to catch it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

PROBE_MULTIPLIERS = (-2.0, -1.0, 1.0, 2.0)
# Sums over the four multipliers u of the fit's two orthogonal columns:
# sum (u^2 / 2)^2 = 8.5 and sum u^2 = 10.
_SUM_HALF_U2_SQ = 8.5
_SUM_U_SQ = 10.0
# The controller counts a curvature as positive only above this share of |b|.
CURVATURE_REL_FLOOR = 1e-12
FIT_RTOL = 1e-9  # a, b against the closed-form solve
R2_ATOL = 1e-9  # pooled R^2 recomputed from the closed-form fit
RATE_RTOL = 1e-12  # eta_star and eta_after against the EMA rule
PROBE_RTOL = 1e-10  # one probe set against the benchmark's own loop
RECORD_FILES = ("metrics", "probes", "summary")


class CheckFailed(Exception):
    """A record failed a check; ``check`` names the check that rejected it."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


@dataclass(frozen=True)
class RunSpec:
    """What the benchmark configured for one training run."""

    method: str  # "hidlr" or "constant"
    steps: int  # T, computed by the benchmark from epochs and the train size
    k: int
    phi: int
    fresh_probe_batch: bool
    persistence: float  # beta of the (1 - beta) * b/a refresh target
    gamma: float
    r2_threshold: float
    eta0: tuple
    eta_min: float
    eta_max: float
    probe_floor: float
    base_lr: float

    @property
    def refreshes(self) -> int:
        return -(-self.steps // self.phi) if self.method == "hidlr" else 0

    def expected_train_loss_calls(self) -> int:
        """T + (4K + f) * ceil(T / phi), f = 1 for a fresh probe batch; T without probes."""
        f = 1 if self.fresh_probe_batch else 0
        return self.steps + (4 * self.k + f) * self.refreshes


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


# -- strict parsing ---------------------------------------------------------


def _reject_constant(token):
    raise CheckFailed("strict-json", f"non-finite token {token}")


def _strict_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed("strict-json", f"number {text} overflows to {value}")
    return value


def _loads(text: str):
    try:
        return json.loads(
            text, parse_constant=_reject_constant, parse_float=_strict_float
        )
    except json.JSONDecodeError as exc:
        raise CheckFailed("strict-json", str(exc)) from None


def parse_records(files: dict) -> dict:
    """Parse the three record files (bytes), rejecting NaN and Infinity."""
    out = {}
    for name in ("metrics", "probes"):
        text = files[name].decode("utf-8")
        out[name] = [_loads(line) for line in text.splitlines() if line.strip()]
    out["summary"] = _loads(files["summary"].decode("utf-8"))
    return out


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in RECORD_FILES:
        h.update(name.encode())
        h.update(hashlib.sha256(files[name]).digest())
    return h.hexdigest()


# -- record checks ----------------------------------------------------------


def check_finite(rec: dict, spec: RunSpec) -> None:
    """Every logged loss is a finite number; the program writes NaN as null."""
    for row in rec["metrics"]:
        for key in ("train_loss", "train_loss_last", "test_loss"):
            if not _finite_number(row.get(key)):
                raise CheckFailed(
                    "finite", f"iteration {row.get('iteration')} {key} = {row.get(key)!r}"
                )
    for row in rec["probes"]:
        if row.get("kind") == "probe" and not _finite_number(row.get("delta_l")):
            raise CheckFailed("finite", f"probe at t={row.get('t')} delta_l = {row.get('delta_l')!r}")
    final = rec["summary"].get("final", {})
    if not _finite_number(final.get("test_loss")):
        raise CheckFailed("finite", f"summary final test_loss = {final.get('test_loss')!r}")


def split_refreshes(probes: list) -> list:
    """[(probe rows, refresh row)] in file order."""
    out, pending = [], []
    for row in probes:
        if row.get("kind") == "probe":
            pending.append(row)
        elif row.get("kind") == "refresh":
            out.append((pending, row))
            pending = []
        else:
            raise CheckFailed("budget", f"probe row of unknown kind {row.get('kind')!r}")
    if pending:
        raise CheckFailed("budget", f"{len(pending)} probe rows after the last refresh")
    return out


def check_budget(rec: dict, spec: RunSpec) -> None:
    """Loss calls equal the benchmark's own count; refreshes fall every phi steps."""
    expected = spec.expected_train_loss_calls()
    actual = rec["summary"].get("loss_calls", {}).get("train")
    if actual != expected:
        raise CheckFailed("budget", f"summary has {actual} train loss calls, expected {expected}")
    last = rec["metrics"][-1]
    if last.get("iteration") != spec.steps or last.get("loss_calls") != expected:
        raise CheckFailed(
            "budget",
            f"last row at iteration {last.get('iteration')} with {last.get('loss_calls')} "
            f"loss calls, expected {spec.steps} and {expected}",
        )
    if rec["summary"].get("total_steps") != spec.steps:
        raise CheckFailed("budget", f"total_steps {rec['summary'].get('total_steps')} != {spec.steps}")
    refreshes = split_refreshes(rec["probes"])
    if len(refreshes) != spec.refreshes:
        raise CheckFailed("budget", f"{len(refreshes)} refreshes, expected {spec.refreshes}")
    for i, (rows, refresh) in enumerate(refreshes):
        t = i * spec.phi
        if refresh.get("t") != t or len(rows) != 4 * spec.k:
            raise CheckFailed(
                "budget",
                f"refresh {i} at t={refresh.get('t')} with {len(rows)} probes, "
                f"expected t={t} with {4 * spec.k}",
            )
        for j, row in enumerate(rows):
            if row.get("t") != t or row.get("group") != j // 4:
                raise CheckFailed("budget", f"probe {j} of refresh t={t} is out of order")


def probe_scale(eta_before: float, spec: RunSpec) -> float:
    """The rate a group's probes are scaled by: its rate, raised to the probe floor."""
    return spec.probe_floor if eta_before < spec.probe_floor else eta_before


def closed_form_fit(xi: list, delta_l: list, eta: float) -> tuple:
    """(a, b, a_scale, b_scale) of dL = a xi^2 / 2 - b xi over four probes.

    With u = xi / eta in (-2, -1, 1, 2) the two columns u^2 / 2 and -u are
    orthogonal, so each coefficient is one projection. The scales are the
    same projections of |dL|, the size rounding is relative to.
    """
    s_a = s_b = m_a = m_b = 0.0
    for x, dl in zip(xi, delta_l):
        u = x / eta
        s_a += 0.5 * u * u * dl
        s_b += -u * dl
        m_a += abs(0.5 * u * u * dl)
        m_b += abs(u * dl)
    a = s_a / _SUM_HALF_U2_SQ / (eta * eta)
    b = s_b / _SUM_U_SQ / eta
    return a, b, m_a / _SUM_HALF_U2_SQ / (eta * eta), m_b / _SUM_U_SQ / eta


def _pooled_r2(delta_l: list, predicted: list) -> float:
    mean = sum(delta_l) / len(delta_l)
    ss_tot = sum((y - mean) ** 2 for y in delta_l)
    ss_res = sum((y - p) ** 2 for y, p in zip(delta_l, predicted))
    return 0.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot


def check_fit(rec: dict, spec: RunSpec) -> None:
    """Each refresh's a, b (and pooled R^2) match the closed-form solve of its probes."""
    for rows, refresh in split_refreshes(rec["probes"]):
        t = refresh["t"]
        a_log, b_log = refresh.get("a"), refresh.get("b")
        if a_log is None or b_log is None:
            raise CheckFailed("fit", f"refresh t={t} has no fit ({refresh.get('reason')})")
        all_dl, all_pred = [], []
        for g in range(spec.k):
            group = rows[4 * g : 4 * g + 4]
            eta = probe_scale(refresh["eta_before"][g], spec)
            xi = [row["xi"] for row in group]
            if xi != [v * eta for v in PROBE_MULTIPLIERS]:
                raise CheckFailed("fit", f"refresh t={t} group {g} probed at {xi}, scale {eta}")
            dl = [row["delta_l"] for row in group]
            a, b, a_scale, b_scale = closed_form_fit(xi, dl, eta)
            if abs(a_log[g] - a) > FIT_RTOL * a_scale or abs(b_log[g] - b) > FIT_RTOL * b_scale:
                raise CheckFailed(
                    "fit",
                    f"refresh t={t} group {g}: logged (a, b) = ({a_log[g]!r}, {b_log[g]!r}), "
                    f"closed form ({a!r}, {b!r})",
                )
            all_dl += dl
            all_pred += [0.5 * a * x * x - b * x for x in xi]
        r2 = _pooled_r2(all_dl, all_pred)
        if abs(refresh["r2_pooled"] - r2) > R2_ATOL:
            raise CheckFailed(
                "fit", f"refresh t={t}: pooled R2 {refresh['r2_pooled']!r}, recomputed {r2!r}"
            )


def _clip(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def initial_rates(spec: RunSpec) -> list:
    eta0 = list(spec.eta0) if len(spec.eta0) == spec.k else [spec.eta0[0]] * spec.k
    return [_clip(e, spec.eta_min, spec.eta_max) for e in eta0]


def check_gate(rec: dict, spec: RunSpec) -> None:
    """Gate decisions and rates follow the global-gating rule and the EMA.

    A refresh is accepted iff every a_k and b_k is positive and the pooled R^2
    exceeds the threshold. Then eta_k moves to
    clip(gamma * eta_k + (1 - gamma) * (1 - beta) * b_k / a_k); otherwise the
    rates stay bit-identical. The rates logged at each eval row are the ones
    the latest refresh left.
    """
    if spec.method != "hidlr":
        for row in rec["metrics"]:
            if row["eta"] != [spec.base_lr] * spec.k:
                raise CheckFailed(
                    "gate", f"iteration {row['iteration']} rates {row['eta']} != {spec.base_lr}"
                )
        return
    eta = initial_rates(spec)
    after = {}  # refresh step -> rates it left
    for _, refresh in split_refreshes(rec["probes"]):
        t = refresh["t"]
        if refresh["eta_before"] != eta:
            raise CheckFailed("gate", f"refresh t={t} starts from {refresh['eta_before']}, not {eta}")
        a, b = refresh["a"], refresh["b"]
        valid = [a_k > max(0.0, CURVATURE_REL_FLOOR * abs(b_k)) for a_k, b_k in zip(a, b)]
        star = [
            (1.0 - spec.persistence) * (b_k / a_k) if ok else None
            for a_k, b_k, ok in zip(a, b, valid)
        ]
        logged = refresh["eta_star"]
        for g, (s, s_log) in enumerate(zip(star, logged)):
            if (s is None) != (s_log is None) or (s is not None and not _close(s, s_log, RATE_RTOL)):
                raise CheckFailed("gate", f"refresh t={t} group {g} eta_star {s_log!r}, expected {s!r}")
        accept = all(valid) and all(b_k > 0.0 for b_k in b) and refresh["r2_pooled"] > spec.r2_threshold
        if refresh["accepted"] is not accept:
            raise CheckFailed("gate", f"refresh t={t} accepted={refresh['accepted']}, rule says {accept}")
        if accept:
            expected = [
                _clip(spec.gamma * e + (1.0 - spec.gamma) * s, spec.eta_min, spec.eta_max)
                for e, s in zip(eta, star)
            ]
            if not all(_close(x, y, RATE_RTOL) for x, y in zip(refresh["eta_after"], expected)):
                raise CheckFailed(
                    "gate", f"refresh t={t} eta_after {refresh['eta_after']}, EMA gives {expected}"
                )
        elif refresh["eta_after"] != eta:
            raise CheckFailed("gate", f"rejected refresh t={t} changed the rates to {refresh['eta_after']}")
        eta = refresh["eta_after"]
        after[t] = eta
    for row in rec["metrics"]:
        last_step = row["iteration"] - 1
        t = last_step - last_step % spec.phi
        if row["eta"] != after.get(t):
            raise CheckFailed(
                "gate", f"iteration {row['iteration']} logs rates {row['eta']}, refresh t={t} left {after.get(t)}"
            )


def check_progress(rec: dict, spec: RunSpec) -> None:
    """Training made progress: the final train loss is below the first eval row's."""
    first, last = rec["metrics"][0]["train_loss"], rec["metrics"][-1]["train_loss"]
    if not last < first:
        raise CheckFailed("progress", f"final train loss {last!r} is not below the first {first!r}")


CHECKS = (check_finite, check_budget, check_fit, check_gate, check_progress)


def check_records(files: dict, spec: RunSpec) -> dict:
    """Parse strictly and run every check; returns the parsed records."""
    rec = parse_records(files)
    for check in CHECKS:
        check(rec, spec)
    return rec


def check_repeat(reference: str, files: dict) -> None:
    """A run of a seed gives byte-identical records to an earlier run of it."""
    if digest(files) != reference:
        raise CheckFailed("repeat", "records differ from an earlier run of the same seed")
