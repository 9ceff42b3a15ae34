"""Spans around calls into hidlr's public functions, recorded from outside.

The tracer wraps module attributes and problem methods for the length of a
``traced`` block and restores them afterwards; nothing inside the package
changes. Each span adds its duration to its layer, and to its parent's
child time for that layer, so self times are parent minus children. Spans
are kept as running sums in memory. A binding the package no longer has is
skipped, so its layer reads 0 and its time counts as the runner's self time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import hidlr.controller as controller
import hidlr.harness.runner as runner

# (layer, module, attribute). The controller module binds the optim
# functions under its own names, and the runner does for the baseline loop,
# so both bindings are wrapped.
MODULE_TARGETS = (
    ("controller.probe", controller, "evaluate_probes"),
    ("controller.fit", controller, "fit_diag_quadratic"),
    ("controller.optimal_lr", controller, "optimal_lr"),
    ("controller.gate", controller, "gate_and_update"),
    ("optim.direction", controller, "direction"),
    ("optim.apply_update", controller, "apply_update"),
    ("optim.direction", runner, "direction"),
    ("optim.apply_update", runner, "apply_update"),
    ("harness.runner.refresh_rows", runner, "refresh_rows"),
)
# (layer, method) of the zoo problem instance.
PROBLEM_TARGETS = (
    ("problems.loss", "loss"),
    ("problems.grad", "grad"),
    ("problems.eval", "test_metrics"),
)


class Tracer:
    """Per-layer call counts, busy time, and time spent in child layers."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.child = defaultdict(float)  # (parent layer, child layer) -> s
        self.outermost = 0.0  # time covered by spans with no traced parent
        self._stack = []

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            self._stack.append(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[layer] += 1
                self.busy[layer] += elapsed
                if self._stack:
                    self.child[(self._stack[-1], layer)] += elapsed
                else:
                    self.outermost += elapsed

        return traced


@contextmanager
def traced(tracer: Tracer, problem):
    """Wrap the package's layer functions and ``problem``'s methods."""
    saved = []
    try:
        for layer, module, attr in MODULE_TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:  # a binding the package no longer has: its time stays in self time
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(layer, fn))
        for layer, method in PROBLEM_TARGETS:
            # an instance attribute shadows the class method
            setattr(problem, method, tracer.wrap(layer, getattr(problem, method)))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
        for _, method in PROBLEM_TARGETS:
            problem.__dict__.pop(method, None)
