"""Deterministic 2-D test functions with analytic gradients (no dataset)."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .base import GroupLayout, LossProblem


class FunctionProblem(LossProblem):
    """Wraps a plain f: R^D -> R and its gradient as a LossProblem.

    The batch argument is ignored; these functions carry no data.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        grad_fn: Callable[[np.ndarray], np.ndarray],
        init: Sequence[float],
        layout: Optional[GroupLayout] = None,
        name: str = "function",
    ):
        self._fn = fn
        self._grad_fn = grad_fn
        self._init = np.asarray(init, dtype=np.float64)
        self.dim = self._init.size
        if layout is None:
            layout = GroupLayout.from_sizes([(f"x{i}", 1) for i in range(self.dim)])
        self.default_layout = layout
        self.name = name

    def init_params(self, rng=None) -> np.ndarray:
        return self._init.copy()

    def loss(self, w, batch=None) -> float:
        w = self.check_w(w)
        return float(self._fn(w))

    def loss_and_grad(self, w, batch=None):
        w = self.check_w(w)
        return float(self._fn(w)), np.asarray(self._grad_fn(w), dtype=np.float64)


def beale(x: float, y: float) -> float:
    """Beale function; minimum 0 at (3, 0.5)."""
    return (
        (1.5 - x + x * y) ** 2
        + (2.25 - x + x * y**2) ** 2
        + (2.625 - x + x * y**3) ** 2
    )


def beale_grad(x: float, y: float) -> tuple[float, float]:
    t1 = 1.5 - x + x * y
    t2 = 2.25 - x + x * y**2
    t3 = 2.625 - x + x * y**3
    gx = 2 * t1 * (y - 1) + 2 * t2 * (y**2 - 1) + 2 * t3 * (y**3 - 1)
    gy = 2 * t1 * x + 2 * t2 * 2 * x * y + 2 * t3 * 3 * x * y**2
    return gx, gy


def rosenbrock(x: float, y: float) -> float:
    """Rosenbrock function; minimum 0 at (1, 1)."""
    return 100.0 * (y - x**2) ** 2 + (1.0 - x) ** 2


def rosenbrock_grad(x: float, y: float) -> tuple[float, float]:
    gx = -400.0 * x * (y - x**2) - 2.0 * (1.0 - x)
    gy = 200.0 * (y - x**2)
    return gx, gy


def ellipse_problem() -> FunctionProblem:
    """L(x, y) = x^2 + 100 y^2, started from (50, 1); minimum at the origin.

    The two coordinates differ 100x in curvature, which is what makes a single
    shared learning rate slow here.
    """
    return FunctionProblem(
        fn=lambda w: w[0] ** 2 + 100.0 * w[1] ** 2,
        grad_fn=lambda w: np.array([2.0 * w[0], 200.0 * w[1]]),
        init=(50.0, 1.0),
        layout=GroupLayout.from_sizes([("x", 1), ("y", 1)]),
        name="ellipse",
    )


def beale_rosenbrock_problem() -> FunctionProblem:
    """L(x, y) = Beale(x, 0.5) + Rosenbrock(1, y), started from (4, 3).

    Each summand depends on one coordinate only, so the minimiser is (3, 1)
    and the Hessian is diagonal.
    """

    def fn(w):
        return beale(w[0], 0.5) + rosenbrock(1.0, w[1])

    def grad_fn(w):
        gx, _ = beale_grad(w[0], 0.5)
        _, gy = rosenbrock_grad(1.0, w[1])
        return np.array([gx, gy])

    return FunctionProblem(
        fn=fn,
        grad_fn=grad_fn,
        init=(4.0, 3.0),
        layout=GroupLayout.from_sizes([("x", 1), ("y", 1)]),
        name="beale-rosenbrock",
    )

