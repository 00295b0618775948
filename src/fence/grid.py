"""Core grid, mask, graph, and dataset containers plus CSV round-trips.

A grid is an N-nodes by T-steps matrix of finite float64 readings. Missing
entries never live inside a grid as sentinels; they are carried by a
companion mask (1 = observed, 0 = missing). All containers are immutable
after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidInputError

__all__ = [
    "TrafficGrid",
    "MaskMatrix",
    "GraphSpec",
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

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MaskMatrix:
    """N x T observation mask; entry 1 marks an observed cell, 0 a missing one."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_matrix(self.entries, "mask")
        bad = ~((arr == 0.0) | (arr == 1.0))
        if bad.any():
            raise DataError("mask entries must be exactly 0 or 1")
        object.__setattr__(self, "entries", arr)

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]

    @property
    def n_steps(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class GraphSpec:
    """Sensor graph: nonnegative weighted adjacency, optional node communities."""

    adjacency: np.ndarray
    node_communities: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        adj = _frozen_matrix(self.adjacency, "adjacency")
        if adj.shape[0] != adj.shape[1]:
            raise DataError(f"adjacency must be square, got {adj.shape}")
        if not np.isfinite(adj).all() or (adj < 0).any():
            raise DataError("adjacency must be finite and nonnegative")
        object.__setattr__(self, "adjacency", adj)
        if self.node_communities is not None:
            comms = tuple(tuple(int(i) for i in group) for group in self.node_communities)
            flat = sorted(i for group in comms for i in group)
            if flat != list(range(self.n_nodes)):
                raise DataError("communities must be disjoint and cover every node")
            object.__setattr__(self, "node_communities", comms)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


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
    return float(sel.mean()), float(sel.std())


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


def chronological_split(
    series: np.ndarray, fractions: tuple[float, float] = (0.6, 0.2)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split columns into train/validation/test by floor; remainder goes to test."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"series must be 2-D, got shape {arr.shape}")
    length = arr.shape[1]
    n_train = int(math.floor(fractions[0] * length))
    n_val = int(math.floor(fractions[1] * length))
    if n_train < 1 or n_val < 1 or n_train + n_val >= length:
        raise InvalidInputError(f"series length {length} too short for a {fractions} split")
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


def _checked_header(path: Path, header: list[str]) -> int:
    """The column count of a t0,t1,... header row; DataError otherwise."""
    if not header or header != _header(len(header)):
        raise DataError(f"{path}: header must be t0,t1,..., got {header[:4]}...")
    return len(header)


def _open_writer(path):
    return open(path, "w", encoding="utf-8", newline="")


def save_grid_csv(path, values: np.ndarray) -> None:
    """Write a grid; NaN cells are written as "nan", which reads back as missing."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"grid must be 2-D, got shape {arr.shape}")
    with _open_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(arr.shape[1]))
        for row in arr.tolist():
            writer.writerow(repr(v) for v in row)


def _read_rows(path: Path) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 CSV file: {exc}") from exc


def load_grid_csv(path) -> tuple[np.ndarray, MaskMatrix]:
    """Read a grid CSV; returns (values with NaN at raw-missing cells, raw mask)."""
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty grid file")
    n_steps = _checked_header(path, rows[0])
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no node rows")
    values = np.empty((len(body), n_steps))
    mask = np.ones((len(body), n_steps))
    for i, row in enumerate(body):
        if len(row) != n_steps:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {n_steps}")
        for j, cell in enumerate(row):
            token = cell.strip()
            if token == "" or token.lower() == "nan":
                values[i, j] = np.nan
                mask[i, j] = 0.0
                continue
            try:
                values[i, j] = float(token)
            except ValueError as exc:
                raise DataError(f"{path}: bad value {token!r} at row {i}, col {j}") from exc
            if not math.isfinite(values[i, j]):
                raise DataError(f"{path}: non-finite value {token!r} at row {i}, col {j}")
    return values, MaskMatrix(mask)


def save_mask_csv(path, mask: MaskMatrix) -> None:
    with _open_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(mask.n_steps))
        for i in range(mask.n_nodes):
            writer.writerow(str(int(v)) for v in mask.entries[i])


def load_mask_csv(path) -> MaskMatrix:
    path = Path(path)
    rows = _read_rows(path)
    if len(rows) < 2:
        raise DataError(f"{path}: empty mask file")
    n_steps = _checked_header(path, rows[0])
    entries = np.empty((len(rows) - 1, n_steps))
    for i, row in enumerate(rows[1:]):
        if len(row) != n_steps:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {n_steps}")
        for j, cell in enumerate(row):
            token = cell.strip()
            if token not in ("0", "1"):
                raise DataError(f"{path}: mask cell must be 0 or 1, got {token!r}")
            entries[i, j] = float(token)
    return MaskMatrix(entries)
