"""Point metrics on masked entries and CRPS over sample ensembles.

All reductions run in a fixed left-to-right order so repeated runs produce
identical bytes in reports.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["point_metrics", "crps_masked", "MAPE_TRUTH_FLOOR", "QUANTILE_LEVELS"]

# entries with |truth| below this (denormalized flow units) are excluded
# from MAPE; percentage error at zero flow is undefined
MAPE_TRUTH_FLOOR = 1.0

QUANTILE_LEVELS = tuple(0.05 * i for i in range(1, 20))


def point_metrics(pred, truth, eval_mask) -> tuple[float, float, float]:
    """(MAE, RMSE, MAPE) over entries where eval_mask == 1.

    MAPE averages |pred-truth|/|truth| over evaluated entries with
    |truth| >= MAPE_TRUTH_FLOOR and is NaN when none qualify.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    m = np.asarray(eval_mask)
    if p.shape != t.shape or p.shape != m.shape:
        raise InvalidInputError(
            f"pred {p.shape}, truth {t.shape}, eval_mask {m.shape} must match"
        )
    sel = m == 1
    count = int(sel.sum())
    if count == 0:
        raise InvalidInputError("eval_mask selects no entries")
    err = p[sel] - t[sel]
    mae = float(np.abs(err).sum() / count)
    rmse = float(np.sqrt((err * err).sum() / count))
    nonzero = np.abs(t[sel]) >= MAPE_TRUTH_FLOOR
    if nonzero.any():
        mape = float((np.abs(err[nonzero]) / np.abs(t[sel][nonzero])).sum()
                     / int(nonzero.sum()))
    else:
        mape = float("nan")
    return mae, rmse, mape


def _crps_cells(stack: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """CRPS of each column of an (S, C) ensemble table against truth (C,).

    One quantile call serves every cell; each cell still sums its levels
    left to right, as a per-cell loop would.
    """
    if len(stack) < 2:
        raise InvalidInputError(f"CRPS needs at least 2 samples, got {len(stack)}")
    quantiles = np.quantile(stack, QUANTILE_LEVELS, axis=0)  # (levels, C)
    total = np.zeros(truth.shape)
    for level, q in zip(QUANTILE_LEVELS, quantiles):
        indicator = (truth < q).astype(np.float64)
        total += 2.0 * (level - indicator) * (truth - q)
    return total / len(QUANTILE_LEVELS)


def crps_masked(sample_stack, truth, eval_mask) -> float:
    """Mean CRPS over entries where eval_mask == 1.

    sample_stack has shape (S, N, T): one generated grid per ensemble member.
    A cell's CRPS is (1/19) sum_i 2 L_{0.05i}, L_a(q, x) = (a - 1{x < q}) (x - q),
    at the linear-interpolation empirical quantiles q of its samples.
    """
    stack = np.asarray(sample_stack, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    m = np.asarray(eval_mask)
    if stack.ndim != 3 or stack.shape[1:] != t.shape or t.shape != m.shape:
        raise InvalidInputError(
            f"sample stack {stack.shape}, truth {t.shape}, mask {m.shape} must align"
        )
    rows, cols = np.nonzero(m == 1)
    if rows.size == 0:
        raise InvalidInputError("eval_mask selects no entries")
    total = 0.0
    for value in _crps_cells(stack[:, rows, cols], t[rows, cols]).tolist():
        total += value  # one cell at a time, row-major: np.sum would regroup the additions
    return total / rows.size
