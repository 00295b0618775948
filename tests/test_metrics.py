import math

import numpy as np
import pytest

from fence import InvalidInputError, crps_masked, point_metrics
from fence.metrics import MAPE_TRUTH_FLOOR, QUANTILE_LEVELS


def test_perfect_prediction_is_zero():
    pred = np.array([[1.0, 2.0]])
    mask = np.array([[1, 1]])
    assert point_metrics(pred, pred, mask) == (0.0, 0.0, 0.0)


def test_single_entry_example():
    pred = np.array([[110.0]])
    truth = np.array([[100.0]])
    mae, rmse, mape = point_metrics(pred, truth, np.array([[1]]))
    assert (mae, rmse) == (10.0, 10.0)
    assert mape == pytest.approx(0.1, abs=1e-15)


def test_two_point_hand_example():
    pred = np.array([[1.0, 4.0]])
    truth = np.array([[2.0, 2.0]])
    mae, rmse, mape = point_metrics(pred, truth, np.array([[1, 1]]))
    assert abs(mae - 1.5) <= 1e-12
    assert abs(rmse - math.sqrt(2.5)) <= 1e-12
    assert abs(mape - 0.75) <= 1e-12


def test_metrics_are_mask_local():
    rng = np.random.default_rng(50)
    pred = rng.standard_normal((3, 4))
    truth = rng.standard_normal((3, 4)) + 2.0
    mask = np.zeros((3, 4)); mask[1, :] = 1
    base = point_metrics(pred, truth, mask)
    noisy_pred = pred.copy(); noisy_pred[0, :] = 999.0
    noisy_truth = truth.copy(); noisy_truth[2, :] = -999.0
    assert point_metrics(noisy_pred, noisy_truth, mask) == base


def test_mape_floor_exclusion_and_nan():
    pred = np.array([[1.0, 2.0]])
    truth = np.array([[0.5, 4.0]])  # |0.5| < floor, excluded
    assert MAPE_TRUTH_FLOOR == 1.0
    _, _, mape = point_metrics(pred, truth, np.array([[1, 1]]))
    assert mape == pytest.approx(0.5, abs=1e-15)
    _, _, all_small = point_metrics(np.array([[1.0]]), np.array([[0.2]]),
                                    np.array([[1]]))
    assert math.isnan(all_small)


def test_zero_evaluated_entries_rejected():
    with pytest.raises(InvalidInputError):
        point_metrics(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        point_metrics(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)))


def test_mae_never_exceeds_rmse():
    rng = np.random.default_rng(51)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 6))
        pred = rng.standard_normal((n, t)) * rng.uniform(0.1, 10)
        truth = rng.standard_normal((n, t)) * rng.uniform(0.1, 10)
        mae, rmse, _ = point_metrics(pred, truth, np.ones((n, t)))
        assert mae <= rmse + 1e-12


def crps(samples, truth):
    """CRPS of one cell: crps_masked on an (S, 1, 1) stack."""
    return crps_masked(np.reshape(samples, (-1, 1, 1)), np.full((1, 1), truth), np.ones((1, 1)))


def test_crps_zero_at_degenerate_truth():
    assert crps(np.full(10, 3.0), 3.0) == 0.0


def test_crps_brute_force_reference():
    rng = np.random.default_rng(52)
    for _ in range(50):
        s = rng.standard_normal(int(rng.integers(2, 40))) * rng.uniform(0.5, 3)
        x = float(rng.standard_normal())
        total = 0.0
        for i in range(1, 20):
            a = 0.05 * i
            q = float(np.quantile(s, a))
            total += 2.0 * (a - (1.0 if x < q else 0.0)) * (x - q)
        assert crps(s, x) == pytest.approx(total / 19.0, abs=1e-9)


def test_crps_nonnegative_and_translation_equivariant():
    rng = np.random.default_rng(53)
    for _ in range(50):
        s = rng.standard_normal(30)
        x = float(rng.standard_normal())
        v = crps(s, x)
        assert v >= 0.0
        assert crps(s + 7.5, x + 7.5) == pytest.approx(v, abs=1e-10)


def test_crps_needs_two_samples():
    with pytest.raises(InvalidInputError):
        crps(np.array([1.0]), 0.0)


def test_crps_quantile_grid():
    assert len(QUANTILE_LEVELS) == 19
    assert QUANTILE_LEVELS[0] == pytest.approx(0.05)
    assert QUANTILE_LEVELS[-1] == pytest.approx(0.95)


def test_crps_masked_averages_selected_cells():
    rng = np.random.default_rng(54)
    stack = rng.standard_normal((20, 2, 3))
    truth = rng.standard_normal((2, 3))
    mask = np.array([[1, 0, 1], [0, 0, 1]])
    got = crps_masked(stack, truth, mask)
    cells = [(0, 0), (0, 2), (1, 2)]
    expect = sum(crps(stack[:, i, j], truth[i, j]) for i, j in cells) / 3
    assert got == pytest.approx(expect, abs=1e-12)
    with pytest.raises(InvalidInputError):
        crps_masked(stack, truth, np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        crps_masked(stack[0], truth, mask)


def _crps_loop(samples, truth):
    # the former per-cell, per-level loop
    s = np.asarray(samples, dtype=np.float64).reshape(-1)
    x = float(truth)
    total = 0.0
    for level in QUANTILE_LEVELS:
        q = float(np.quantile(s, level))
        indicator = 1.0 if x < q else 0.0
        total += 2.0 * (level - indicator) * (x - q)
    return total / len(QUANTILE_LEVELS)


def _crps_masked_loop(stack, truth, mask):
    rows, cols = np.nonzero(mask == 1)
    total = 0.0
    for i, j in zip(rows, cols):
        total += _crps_loop(stack[:, i, j], truth[i, j])
    return total / rows.size


@pytest.mark.parametrize("draw", range(20))
def test_crps_matches_the_per_cell_loop_bit_for_bit(draw):
    rng = np.random.default_rng(700 + draw)
    s = int(rng.integers(2, 121))
    stack = rng.standard_normal((s, 4, 5))
    if draw % 3 == 0:
        stack = np.round(stack, 1)  # ties inside the ensemble and with the truth
    truth = np.round(rng.standard_normal((4, 5)), 1)
    mask = (rng.random((4, 5)) < 0.6).astype(np.int64)
    mask[0, 0] = 1
    assert crps_masked(stack, truth, mask) == _crps_masked_loop(stack, truth, mask)
    assert crps(stack[:, 0, 0], truth[0, 0]) == _crps_loop(stack[:, 0, 0], truth[0, 0])
