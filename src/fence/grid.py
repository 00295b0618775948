"""Grid and mask containers, training windows, and CSV round-trips.

A grid is an N-nodes by T-steps matrix of finite float64 readings. Missing
entries never live inside a grid as sentinels; they are carried by a
companion mask (1 = observed, 0 = missing). The CSV loaders validate a file
and return plain float64 arrays; all containers are immutable after
construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidInputError

__all__ = [
    "TrafficGrid",
    "MaskMatrix",
    "DatasetSplit",
    "observed_stats",
    "sliding_windows",
    "chronological_split",
    "save_grid_csv",
    "load_grid_csv",
    "save_mask_csv",
    "load_mask_csv",
]


def _frozen_matrix(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"{what} must be a nonempty 2-D matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _binary_matrix(entries) -> np.ndarray:
    arr = _frozen_matrix(entries, "mask")
    if not ((arr == 0.0) | (arr == 1.0)).all():
        raise DataError("mask entries must be exactly 0 or 1")
    return arr


@dataclass(frozen=True)
class TrafficGrid:
    """N x T matrix of readings, raw flow units or normalized z-scores.

    Attributes
    ----------
    values : np.ndarray
        Finite float64 matrix, one row per node, one column per time slice.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_matrix(self.values, "grid")
        if not np.isfinite(arr).all():
            raise DataError("grid contains non-finite entries")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class MaskMatrix:
    """N x T observation mask; entry 1 marks an observed cell, 0 a missing one."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _binary_matrix(self.entries))


@dataclass(frozen=True)
class DatasetSplit:
    """Chronological train/validation windows plus the train normalization.

    Each split is a (values, masks) pair of read-only (W, N, T) arrays, one
    row per window, ordered in time and non-interleaved: every training
    window precedes every validation window.
    """

    train: tuple[np.ndarray, np.ndarray]
    validation: tuple[np.ndarray, np.ndarray]
    normalization: tuple[float, float]  # (mean, std)

    def __post_init__(self):
        mean, std = self.normalization
        if not (std > 0):
            raise InvalidInputError(f"normalization std must be > 0, got {std}")
        for name in ("train", "validation"):
            values, masks = (np.asarray(a, dtype=np.float64) for a in getattr(self, name))
            if values.ndim != 3 or values.shape != masks.shape:
                raise DataError(f"{name} windows {values.shape} and masks {masks.shape}"
                                " must be matching (W, N, T) stacks")
            if not np.isfinite(values).all():
                raise DataError(f"{name} windows contain non-finite entries")
            values.setflags(write=False)
            masks.setflags(write=False)
            object.__setattr__(self, name, (values, masks))
        object.__setattr__(self, "normalization", (float(mean), float(std)))


def observed_stats(values: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """Global mean and standard deviation over the observed entries (mask == 1)."""
    arr = np.asarray(values, dtype=np.float64)
    sel = arr[np.asarray(mask) == 1]
    if sel.size == 0:
        raise DataError("no observed entries to compute statistics from")
    # equal entries can leave a rounding-error std: 1.4e-17 for 72 copies of 0.1
    std = float(sel.std())
    if sel.min() == sel.max() or not std > 0:
        raise DataError(f"the {sel.size} observed entries have no spread (standard"
                        f" deviation {std!r}): nothing to normalize by")
    return float(sel.mean()), std


def sliding_windows(series: np.ndarray, window: int, stride: int = 1) -> np.ndarray:
    """The floor((L-window)/stride)+1 overlapping windows of an N x L series,
    as one read-only (W, N, window) strided view of it."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"series must be 2-D, got shape {arr.shape}")
    if window < 1 or stride < 1:
        raise InvalidInputError("window and stride must be >= 1")
    length = arr.shape[1]
    if length < window:
        raise InvalidInputError(f"series length {length} shorter than window {window}")
    views = np.lib.stride_tricks.sliding_window_view(arr, window, axis=1)  # (N, L-w+1, w)
    return views[:, ::stride].transpose(1, 0, 2)


# the shares of a series' columns that chronological_split gives to training
# and to validation; the test segment takes the rest
SPLIT_SHARES = (0.6, 0.2)


def chronological_split(series: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split columns into train/validation/test by floor; remainder goes to test."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"series must be 2-D, got shape {arr.shape}")
    length = arr.shape[1]
    n_train = int(math.floor(SPLIT_SHARES[0] * length))
    n_val = int(math.floor(SPLIT_SHARES[1] * length))
    if n_train < 1 or n_val < 1 or n_train + n_val >= length:
        raise InvalidInputError(f"series length {length} too short for a {SPLIT_SHARES} split")
    return (
        arr[:, :n_train],
        arr[:, n_train : n_train + n_val],
        arr[:, n_train + n_val :],
    )


# CSV formats. Grid: header t0,t1,..., one row per node, empty cell or a
# "nan" token marks raw-missing, any other cell is a finite number. Mask:
# same header and shape, 0/1 entries. UTF-8, comma-separated, LF line endings.


def _header(n_steps: int) -> list[str]:
    return [f"t{j}" for j in range(n_steps)]


def _write_table(path, table: np.ndarray, cell) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(table.shape[1]))
        for row in table.tolist():
            writer.writerow(cell(v) for v in row)


def _read_table(path, cell) -> np.ndarray:
    """The node rows under a t0,t1,... header, each token parsed by ``cell``;
    DataError, naming the file, on anything else."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    n_steps = len(header)
    if not header or header != _header(n_steps):
        raise DataError(f"{path}: header must be t0,t1,..., got {header[:4]}...")
    if not body:
        raise DataError(f"{path}: no node rows")
    table = np.empty((len(body), n_steps))
    for i, row in enumerate(body):
        if len(row) != n_steps:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {n_steps}")
        for j, token in enumerate(row):
            try:
                table[i, j] = cell(token.strip())
            except ValueError as exc:
                raise DataError(f"{path}: {exc} at row {i}, col {j}") from None
    return table


def _grid_cell(token: str) -> float:
    if token == "" or token.lower() == "nan":
        return math.nan
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"bad value {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _mask_cell(token: str) -> float:
    if token not in ("0", "1"):
        raise ValueError(f"mask cell must be 0 or 1, got {token!r}")
    return float(token)


def save_grid_csv(path, values: np.ndarray) -> None:
    """Write a grid; NaN cells are written as "nan", which reads back as missing."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"grid must be 2-D, got shape {arr.shape}")
    _write_table(path, arr, repr)


def load_grid_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a grid CSV; returns (values with NaN at raw-missing cells, raw mask)."""
    values = _read_table(path, _grid_cell)
    return values, np.isfinite(values).astype(np.float64)


def save_mask_csv(path, mask: np.ndarray) -> None:
    """Write a nonempty 2-D array of 0/1 entries; DataError on anything else."""
    _write_table(path, _binary_matrix(mask), int)


def load_mask_csv(path) -> np.ndarray:
    return _read_table(path, _mask_cell)
