"""Serialization of run records: line-delimited metrics, probes, summary.

Output is byte-deterministic for a fixed record: keys are sorted, floats
use Python's shortest-roundtrip repr, and line endings are fixed to \\n.
This module owns the ``probes.jsonl`` format: a run keeps its refreshes as
the columns of a ``RefreshLog``, and the probe lines are written straight
from them. A run keeps its metric rows as their ``dump_line`` lines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .. import controller

METRICS_FILE = "metrics.jsonl"
PROBES_FILE = "probes.jsonl"
SUMMARY_FILE = "summary.json"

# One probe of probes.jsonl: keys sorted as in a dumped line; the %s fields
# are delta_l, the JSON group name, predicted and xi, the %d fields group and t.
PROBE_LINE = (
    '{"delta_l":%s,"group":%d,"group_name":%s,"kind":"probe",'
    '"predicted":%s,"t":%d,"xi":%s}\n'
)


def clean(value):
    """Make numpy values JSON-friendly; NaN becomes None."""
    if isinstance(value, np.ndarray):
        return [clean(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [clean(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def dump_line(obj) -> str:
    """One JSONL line: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _number(value: float) -> str:
    """A Python float as the JSON token ``dump_line`` writes for ``clean(value)``."""
    return repr(value) if math.isfinite(value) else "null"


class RefreshLog:
    """Every refresh of one run as preallocated columns, one row per refresh.

    Row i holds refresh i: its nK probes (``xi``, ``delta_l``,
    ``predicted``, group-major, n = ``len(controller.PROBE_MULTIPLIERS)``),
    its per-group fit and rates, and ``t``, ``accepted``, ``reason`` and
    ``r2_pooled``. A refresh whose probe set failed has no fit: ``fitted``
    is False and its fit columns stay NaN.
    """

    def __init__(self, capacity: int, group_names: Sequence[str]):
        k = len(group_names)
        width = len(controller.PROBE_MULTIPLIERS) * k
        self.group_names = tuple(group_names)
        self.n = 0
        self.t = np.zeros(capacity, dtype=np.int64)
        self.accepted = np.zeros(capacity, dtype=bool)
        self.fitted = np.zeros(capacity, dtype=bool)
        self.reason = [""] * capacity
        self.r2_pooled = np.full(capacity, np.nan)
        self.xi = np.full((capacity, width), np.nan)
        self.delta_l = np.full((capacity, width), np.nan)
        self.predicted = np.full((capacity, width), np.nan)
        self.a = np.full((capacity, k), np.nan)
        self.b = np.full((capacity, k), np.nan)
        self.r2_group = np.full((capacity, k), np.nan)
        self.eta_star = np.full((capacity, k), np.nan)
        self.eta_before = np.full((capacity, k), np.nan)
        self.eta_after = np.full((capacity, k), np.nan)
        self.floored = np.zeros((capacity, k), dtype=bool)

    def append(self, refresh) -> None:
        """Copy one ``RefreshRecord`` into the next row."""
        i = self.n
        self.t[i] = refresh.t
        self.accepted[i] = refresh.accepted
        self.reason[i] = refresh.reason
        self.eta_star[i] = refresh.eta_star
        self.eta_before[i] = refresh.eta_before
        self.eta_after[i] = refresh.eta_after
        self.floored[i] = refresh.floored
        fit = refresh.fit
        if fit is not None:
            self.fitted[i] = True
            self.r2_pooled[i] = fit.r2_pooled
            self.xi[i] = fit.xi
            self.delta_l[i] = fit.delta_l
            self.predicted[i] = fit.predicted
            self.a[i] = fit.a
            self.b[i] = fit.b
            self.r2_group[i] = fit.r2_group
        self.n = i + 1

    def lines(self) -> Iterator[str]:
        """The ``probes.jsonl`` lines: each refresh's probes, then its decision."""
        names = [json.dumps(name) for name in self.group_names]
        n = self.xi.shape[1] // len(names)  # probes per group
        for i in range(self.n):
            t = int(self.t[i])
            fitted = bool(self.fitted[i])
            if fitted:
                columns = zip(
                    self.xi[i].tolist(),
                    self.delta_l[i].tolist(),
                    self.predicted[i].tolist(),
                )
                for j, (xi, delta_l, predicted) in enumerate(columns):
                    g = j // n
                    yield PROBE_LINE % (
                        _number(delta_l), g, names[g], _number(predicted), t, _number(xi)
                    )
            yield dump_line(
                {
                    "kind": "refresh",
                    "t": t,
                    "accepted": bool(self.accepted[i]),
                    "reason": self.reason[i],
                    "a": clean(self.a[i]) if fitted else None,
                    "b": clean(self.b[i]) if fitted else None,
                    "r2_group": clean(self.r2_group[i]) if fitted else None,
                    "r2_pooled": clean(self.r2_pooled[i]) if fitted else None,
                    "eta_star": clean(self.eta_star[i]),
                    "eta_before": clean(self.eta_before[i]),
                    "eta_after": clean(self.eta_after[i]),
                    "floored": clean(self.floored[i]),
                }
            )


def write_lines(path, lines: Iterable[str]) -> None:
    """Write text lines to ``path`` as UTF-8 with \\n endings."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def write_jsonl(path, rows: Iterable) -> None:
    """Write one ``dump_line`` per row to ``path``."""
    write_lines(path, map(dump_line, rows))


def emit_metrics(record, out_dir) -> dict:
    """Write a ``RunRecord``'s metrics.jsonl, probes.jsonl and summary.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out / METRICS_FILE,
        "probes": out / PROBES_FILE,
        "summary": out / SUMMARY_FILE,
    }
    write_lines(paths["metrics"], record.metric_lines)
    write_lines(paths["probes"], record.probe_lines())
    write_lines(paths["summary"], [json.dumps(record.summary, sort_keys=True, indent=2) + "\n"])
    return paths

