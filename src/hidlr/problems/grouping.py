"""Parameter-grouping strategies on top of a problem's default layout."""

from __future__ import annotations

from typing import Sequence

from ..errors import UnknownStrategy
from .base import GroupLayout, LossProblem

STRATEGIES = ("default", "single", "per-coordinate", "named-split")


def group_params(
    problem: LossProblem,
    strategy: str,
    names: Sequence[str] = (),
) -> GroupLayout:
    """Build a GroupLayout for ``problem`` according to ``strategy``.

    - default: the problem's own grouping.
    - single: everything merged into one group (uniform-learning-rate mode).
    - per-coordinate: one singleton group per parameter (2-D toys).
    - named-split: keep the groups listed in ``names``; merge each maximal run
      of adjacent remaining groups into one ``rest*`` segment.
    """
    base = problem.default_layout
    if strategy == "default":
        return base
    if strategy == "single":
        return GroupLayout.from_sizes([("all", base.dim)])
    if strategy == "per-coordinate":
        return GroupLayout.from_sizes([(f"w{i}", 1) for i in range(base.dim)])
    if strategy == "named-split":
        if not names:
            raise UnknownStrategy("named-split requires at least one group name")
        unknown = [n for n in names if n not in base.names]
        if unknown:
            raise UnknownStrategy(f"unknown group names {unknown}; have {list(base.names)}")
        keep = set(names)
        sizes: list[tuple[str, int]] = []
        rest_len = 0
        rest_idx = 0
        for name, length in zip(base.names, base.lengths):
            if name in keep:
                if rest_len:
                    sizes.append((f"rest{rest_idx}", rest_len))
                    rest_idx += 1
                    rest_len = 0
                sizes.append((name, length))
            else:
                rest_len += length
        if rest_len:
            sizes.append((f"rest{rest_idx}", rest_len))
        return GroupLayout.from_sizes(sizes)
    raise UnknownStrategy(f"strategy {strategy!r}; expected one of {STRATEGIES}")
