"""Core data model for loss problems: parameter grouping, datasets, contract.

A problem owns a flat float64 parameter vector of dimension D partitioned
into K named, contiguous, disjoint groups. ``loss`` and ``loss_and_grad``
are pure functions of (w, batch); batches index into the training split,
``None`` means full batch (and is the only mode for the 2-D toy functions,
which have no dataset at all). ``loss_and_grad`` is the one gradient a
problem defines; it and ``probe_losses`` give all of their results from one
forward where a problem can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from ..errors import LengthMismatch


@dataclass(frozen=True)
class GroupLayout:
    """Partition of a D-dimensional parameter vector into K named segments.

    Segment i holds ``lengths[i]`` coordinates and starts where segment i - 1
    ends, so the segments are contiguous, disjoint, in order and cover [0, D).
    The offsets follow from the lengths; a layout is checked when it is made.
    """

    names: tuple[str, ...]
    lengths: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.validate()
        object.__setattr__(self, "offsets", tuple(accumulate(self.lengths[:-1], initial=0)))

    @staticmethod
    def from_sizes(named_sizes: Sequence[tuple[str, int]]) -> "GroupLayout":
        return GroupLayout(tuple(n for n, _ in named_sizes), tuple(int(s) for _, s in named_sizes))

    @property
    def k(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return sum(self.lengths)

    def slice(self, group: int) -> slice:
        return slice(self.offsets[group], self.offsets[group] + self.lengths[group])

    def slices(self) -> list[slice]:
        return [self.slice(i) for i in range(self.k)]

    def validate(self) -> None:
        """Check the partition invariants; raises LengthMismatch otherwise."""
        if self.k < 1:
            raise LengthMismatch("layout needs at least one group")
        if len(self.names) != len(self.lengths):
            raise LengthMismatch(f"{len(self.names)} names but {len(self.lengths)} lengths")
        for name, length in zip(self.names, self.lengths):
            if length < 1:
                raise LengthMismatch(f"group {name!r} has length {length} < 1")
        if len(set(self.names)) != self.k:
            raise LengthMismatch("group names must be unique")

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Broadcast one value per group to a length-D per-coordinate vector."""
        per_group = np.asarray(per_group, dtype=np.float64)
        if per_group.shape != (self.k,):
            raise LengthMismatch(f"expected {self.k} per-group values, got {per_group.shape}")
        return np.repeat(per_group, self.lengths)


@dataclass
class Dataset:
    """Feature/target matrices for one split."""

    features: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,) or (n, m)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.shape[0] != self.targets.shape[0]:
            raise LengthMismatch(
                f"{self.features.shape[0]} feature rows vs {self.targets.shape[0]} target rows"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]


def take(data: np.ndarray, batch: Optional[np.ndarray]) -> np.ndarray:
    """The rows of ``data`` in ``batch``; ``data`` itself, uncopied, for None (all rows)."""
    return data if batch is None else data[batch]


class Carving:
    """Consecutive pieces of a block's last axis, piece i reshaped to ``shapes[i]``.

    A problem makes one carving per layout when it is built, so the offsets
    and sizes are worked out once and a call only slices. A block is
    (..., n); piece i has shape (..., *shapes[i]). Splitting a contiguous
    last axis is always a view, so a write through a piece lands in the
    block. A call raises LengthMismatch unless the pieces fill n exactly.
    """

    def __init__(self, shapes: Sequence[tuple[int, ...]]):
        self.shapes = [tuple(shape) for shape in shapes]
        self.size = sum(map(math.prod, self.shapes))
        self._plan, start = [], 0
        for shape in self.shapes:
            stop = start + math.prod(shape)
            # a one-axis piece is already shaped by its slice
            self._plan.append(((..., slice(start, stop)), None if len(shape) == 1 else shape))
            start = stop

    def __call__(self, block: np.ndarray) -> list[np.ndarray]:
        if block.shape[-1] != self.size:
            raise LengthMismatch(
                f"shapes {self.shapes} hold {self.size} entries, not {block.shape[-1]}"
            )
        lead = block.shape[:-1]
        return [
            block[i] if shape is None else block[i].reshape(lead + shape) for i, shape in self._plan
        ]


def row_chunks(n: int, rows: int, least: int = 2) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of ``rows``-row chunks covering [0, n).

    A last chunk under ``least`` rows joins the chunk before it. The
    default merges a one-row chunk, which numpy multiplies by gemv, whose
    bits differ from gemm's.
    """
    bounds = [*range(0, n, rows), n]
    if len(bounds) > 2 and n - bounds[-2] < least:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def split_dataset(ds: Dataset, train_fraction: float = 0.8) -> tuple[Dataset, Dataset]:
    """Deterministic head/tail split (rows assumed already in random order)."""
    n_train = int(round(ds.n * train_fraction))
    tr = Dataset(ds.features[:n_train], ds.targets[:n_train])
    te = Dataset(ds.features[n_train:], ds.targets[n_train:])
    return tr, te


class LossProblem:
    """Contract every problem in the zoo implements.

    Subclasses set ``dim``, ``default_layout``, ``train``/``test`` (None for
    pure functions) and implement ``init_params``, ``loss`` and
    ``loss_and_grad``; ``grad`` is the latter's gradient.
    """

    dim: int
    default_layout: GroupLayout
    train: Optional[Dataset] = None
    test: Optional[Dataset] = None
    name: str = "problem"

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def loss(self, w: np.ndarray, batch: Optional[np.ndarray] = None) -> float:
        raise NotImplementedError

    def grad(self, w: np.ndarray, batch: Optional[np.ndarray] = None) -> np.ndarray:
        """The gradient half of ``loss_and_grad``."""
        return self.loss_and_grad(w, batch)[1]

    def loss_and_grad(
        self, w: np.ndarray, batch: Optional[np.ndarray] = None
    ) -> tuple[float, np.ndarray]:
        """``(loss(w, batch), gradient)`` from one forward: the one gradient a problem defines.

        The loss must equal ``loss(w, batch)`` bit for bit.
        """
        raise NotImplementedError(f"{type(self).__name__} has no grad or loss_and_grad")

    def test_metrics(self, w: np.ndarray) -> Optional[dict]:
        """Loss (and accuracy, where classification) on the test split."""
        return None

    def probe_losses(
        self,
        w: np.ndarray,
        d: np.ndarray,
        layout: GroupLayout,
        xi: np.ndarray,
        batch: Optional[np.ndarray] = None,
        l0: Optional[float] = None,
    ) -> tuple[float, np.ndarray]:
        """``(anchor, (K, n) table)`` of training losses around ``w``.

        Table entry [k, i] is the loss at w - xi[k, i] * d on group k alone;
        the controller probes with n = len(PROBE_MULTIPLIERS). The anchor is
        ``l0`` when given; otherwise it is ``loss(w, batch)``, bit for bit in
        every problem, and counts as one more training-loss evaluation. Each
        table entry counts as one evaluation, and every entry is computed,
        finite or not. This default evaluates them one by one in group-major
        order on one reused copy of ``w``. An override's table equals it bit
        for bit, except multitask's, whose sums run in another order, so it
        agrees to rounding; an override takes this default for other layouts.
        """
        if l0 is None:
            l0 = self.loss(w, batch)
        out = np.empty(xi.shape)
        moved = np.array(w, dtype=np.float64)
        for k, part in enumerate(layout.slices()):
            for i, scale in enumerate(xi[k]):
                moved[part] = w[part] - scale * d[part]
                out[k, i] = self.loss(moved, batch)
            moved[part] = w[part]
        return l0, out

    def check_w(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.dim,):
            raise LengthMismatch(f"parameter shape {w.shape} != ({self.dim},)")
        return w

    def check_batch(self, batch: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """A batch of train indices as an array, or None (all rows); never empty."""
        if self.train is None:
            raise LengthMismatch(f"problem {self.name!r} has no dataset")
        if batch is None:
            return None
        batch = np.asarray(batch)
        if batch.size == 0:
            raise LengthMismatch("batch must be nonempty")
        return batch

    def resolve_batch(self, batch: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Feature/target rows for a batch of train indices (None = all)."""
        batch = self.check_batch(batch)
        return take(self.train.features, batch), take(self.train.targets, batch)


def bce_with_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy, numerically stable in the logit."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def bce_into(z: np.ndarray, y: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit-exact bce_with_logits(z, y) into ``out`` (may be z); returns exp(-|z|), scratch."""
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    scratch = np.multiply(z, y)
    np.subtract(np.maximum(z, 0.0, out=out), scratch, out=out)
    out += np.log1p(e, out=scratch)
    return e, scratch


def bce_loss_and_grad(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """``(float(mean(bce_with_logits(z, y))), (sigmoid(z) - y) / z.size)``, bit for bit.

    Overwrites ``z`` with its BCE, so a caller passes logits it is done with.
    One exp(-|z|), in z and two more z-sized buffers: for every non-NaN z it
    equals the ``exp`` that ``sigmoid`` in ``tests/oracle.py`` takes, -0.0 included.
    """
    pos = z >= 0  # sigmoid's numerator is 1 here, else e: taken before z is overwritten
    e, scratch = bce_into(z, y, z)
    loss = float(np.mean(z))
    np.add(e, 1.0, out=scratch)
    np.copyto(e, 1.0, where=pos)
    e /= scratch
    e -= y
    e /= z.size
    return loss, e
