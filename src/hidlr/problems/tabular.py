"""CSV loading for tabular regression datasets (e.g. California housing).

The loader takes any numeric CSV with a header row, shuffles rows with a
seeded generator, splits 80/20 into train/test, and z-scores features and
target using statistics computed on the train split only.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import MissingColumn, ParseError
from ..linalg import make_rng
from .base import Dataset


def _parse_csv(path) -> tuple[list[str], np.ndarray]:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue  # blank line
            if len(cells) != len(header):
                raise ParseError(
                    f"{path}: row {lineno} has {len(cells)} cells, "
                    f"header has {len(header)}"
                )
            parsed = []
            for col, cell in zip(header, cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col!r}: "
                        f"not a number: {cell.strip()!r}"
                    ) from None
                if not np.isfinite(value):
                    raise ParseError(
                        f"{path}: row {lineno}, column {col!r}: non-finite value"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def zscore(values: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Standardize with given statistics; constant columns map to zero."""
    scale = np.where(sd < 1e-12, 1.0, sd)
    return (values - mean) / scale


def load_csv_tabular(
    path,
    target_column: str,
    seed: int = 0,
    train_fraction: float = 0.8,
) -> tuple[Dataset, Dataset]:
    """Load, shuffle, split, and standardize a numeric CSV.

    Returns (train, test) datasets. Standardization statistics come from
    the train split alone and are applied to both splits, target included.
    """
    header, table = _parse_csv(path)
    if target_column not in header:
        raise MissingColumn(
            f"{path}: no column {target_column!r}; have {header}"
        )
    tcol = header.index(target_column)
    y = table[:, tcol]
    x = np.delete(table, tcol, axis=1)

    perm = make_rng(seed).permutation(table.shape[0])
    x, y = x[perm], y[perm]
    n_train = int(round(table.shape[0] * train_fraction))

    xm, xs = x[:n_train].mean(axis=0), x[:n_train].std(axis=0)
    ym, ys = y[:n_train].mean(), y[:n_train].std()
    x = zscore(x, xm, xs)
    y = zscore(y, ym, ys)
    train = Dataset(x[:n_train], y[:n_train])
    test = Dataset(x[n_train:], y[n_train:])
    return train, test
