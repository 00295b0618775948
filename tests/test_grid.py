import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fence import (
    DataError,
    DatasetSplit,
    InvalidInputError,
    MaskMatrix,
    TrafficGrid,
    chronological_split,
    load_grid_csv,
    load_mask_csv,
    observed_stats,
    save_grid_csv,
    save_mask_csv,
    sliding_windows,
)


def test_grid_is_immutable_float64():
    g = TrafficGrid([[1, 2], [3, 4]])
    assert g.values.dtype == np.float64
    assert g.values.shape == (2, 2)
    with pytest.raises(ValueError):
        g.values[0, 0] = 9.0


def test_grid_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(DataError):
        TrafficGrid(np.zeros(3))
    with pytest.raises(DataError):
        TrafficGrid(np.zeros((0, 4)))
    with pytest.raises(DataError):
        TrafficGrid([[1.0, np.nan]])
    with pytest.raises(DataError):
        TrafficGrid([[np.inf, 1.0]])


def test_mask_entries_must_be_binary():
    MaskMatrix([[0, 1], [1, 0]])
    with pytest.raises(DataError):
        MaskMatrix([[0, 2]])
    with pytest.raises(DataError):
        MaskMatrix([[0.5, 1]])


def test_observed_stats():
    mask = np.array([[1, 0], [0, 1]])
    mean, std = observed_stats(np.array([[2.0, 99.0], [99.0, 4.0]]), mask)
    assert mean == 3.0 and std == 1.0
    with pytest.raises(DataError):
        observed_stats(np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("value", [5.0, 0.1])  # numpy gives 71 copies of 0.1 a std of 4e-17
def test_observed_stats_rejects_observations_with_no_spread(value):
    values = np.full((3, 24), value)
    values[0, 0] = 99.0  # hidden
    mask = np.ones((3, 24))
    mask[0, 0] = 0
    with pytest.raises(DataError, match="no spread"):
        observed_stats(values, mask)


def test_sliding_windows_count_and_content():
    series = np.arange(20, dtype=float).reshape(2, 10)
    wins = sliding_windows(series, window=4, stride=2)
    assert wins.shape == (4, 2, 4)
    for i, win in enumerate(wins):
        np.testing.assert_array_equal(win, series[:, 2 * i:2 * i + 4])
    # a view of the series, not a copy per window
    assert np.shares_memory(wins, series) and not wins.flags.writeable
    assert sliding_windows(series, window=10).shape == (1, 2, 10)
    with pytest.raises(InvalidInputError):
        sliding_windows(series, window=11)
    with pytest.raises(InvalidInputError):
        sliding_windows(series, window=0)
    with pytest.raises(InvalidInputError, match="2-D"):
        sliding_windows(series[0], window=2)


def test_chronological_split_fractions_and_remainder():
    series = np.arange(2 * 10, dtype=float).reshape(2, 10)
    train, val, test = chronological_split(series)
    assert train.shape[1] == 6 and val.shape[1] == 2 and test.shape[1] == 2
    np.testing.assert_array_equal(np.hstack([train, val, test]), series)
    # floor puts the remainder into the test segment
    train, val, test = chronological_split(np.zeros((1, 7)))
    assert (train.shape[1], val.shape[1], test.shape[1]) == (4, 1, 2)
    with pytest.raises(InvalidInputError):
        chronological_split(np.zeros((1, 2)))
    with pytest.raises(InvalidInputError, match="2-D"):
        chronological_split(np.zeros(10))


def test_dataset_split_validation():
    g, m = np.zeros((1, 2, 3)), np.ones((1, 2, 3))
    none = (np.empty((0, 2, 3)),) * 2
    split = DatasetSplit(train=(g, m), validation=none, normalization=(0.0, 1.0))
    assert split.normalization == (0.0, 1.0)
    assert not split.train[0].flags.writeable
    with pytest.raises(InvalidInputError):
        DatasetSplit(train=none, validation=none, normalization=(0.0, 0.0))
    for values, masks in [(g, np.ones((1, 3, 3))), (g[0], m[0]),
                          (np.full((1, 2, 3), np.inf), m)]:
        with pytest.raises(DataError):
            DatasetSplit(train=(values, masks), validation=none, normalization=(0.0, 1.0))


def test_grid_csv_round_trip_with_missing(tmp_path):
    values = np.array([[1.5, np.nan], [-3.0, 0.0]])
    path = tmp_path / "g.csv"
    save_grid_csv(path, values)
    assert path.read_text().splitlines()[1] == "1.5,nan"
    got, got_mask = load_grid_csv(path)
    assert got_mask.dtype == np.float64
    np.testing.assert_array_equal(got_mask, [[1, 0], [1, 1]])
    np.testing.assert_array_equal(got, values)


def test_grid_csv_exact_float_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((3, 5))
    path = tmp_path / "g.csv"
    save_grid_csv(path, values)
    got, _ = load_grid_csv(path)
    # repr round-trips float64 bit-exactly
    np.testing.assert_array_equal(got, values)


SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, SHAPES, elements=st.floats(allow_infinity=False)),
       arrays(np.int64, SHAPES, elements=st.integers(0, 1)))
def test_grids_with_holes_and_masks_load_back_bit_exactly(tmp_path_factory, values, mask):
    root = tmp_path_factory.mktemp("csv")
    save_grid_csv(root / "g.csv", values)
    save_mask_csv(root / "m.csv", mask)
    got, got_mask = load_grid_csv(root / "g.csv")
    holes = np.isnan(values)
    np.testing.assert_array_equal(np.isnan(got), holes)
    np.testing.assert_array_equal(got_mask, ~holes)
    # bit patterns, so -0.0 and subnormals count too
    np.testing.assert_array_equal(got[~holes].view(np.int64), values[~holes].view(np.int64))
    got = load_mask_csv(root / "m.csv")
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, mask)


def test_grid_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        load_grid_csv(path)
    path.write_text("t0,t1\n1\n")
    with pytest.raises(DataError):
        load_grid_csv(path)
    path.write_text("t0,t1\n1,zzz\n")
    with pytest.raises(DataError):
        load_grid_csv(path)
    path.write_text("t0,t1\n")
    with pytest.raises(DataError):
        load_grid_csv(path)
    with pytest.raises(DataError, match="2-D"):
        save_grid_csv(path, np.zeros(3))


def test_mask_csv_round_trip(tmp_path):
    mask = np.array([[1, 0, 1], [0, 0, 1]])
    path = tmp_path / "m.csv"
    save_mask_csv(path, mask)
    assert path.read_text() == "t0,t1,t2\n1,0,1\n0,0,1\n"
    got = load_mask_csv(path)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, mask)
    path.write_text("t0\n2\n")
    with pytest.raises(DataError, match="m.csv: mask cell must be 0 or 1, got '2' at row 0"):
        load_mask_csv(path)


@pytest.mark.parametrize("mask", [[[0, 2]], [[0.5, 1.0]], [[np.nan, 1.0]], [1, 0, 1],
                                  np.zeros((0, 3)), [[[1]]]])
def test_save_mask_csv_rejects_all_but_a_2d_binary_array(tmp_path, mask):
    path = tmp_path / "m.csv"
    with pytest.raises(DataError):
        save_mask_csv(path, np.asarray(mask))
    assert not path.exists()


def test_mask_csv_header_is_checked(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,y\n1,0\n")
    with pytest.raises(DataError, match="m.csv: header must be t0,t1"):
        load_mask_csv(path)
    # without a header the first row would be read as one and lost
    path.write_text("1,0\n0,1\n")
    with pytest.raises(DataError, match="m.csv: header must be t0,t1"):
        load_mask_csv(path)


# header cells: the valid names, near misses, and any text a CSV cell can hold
HEADER_TOKENS = st.sampled_from(["t0", "t1", "t2", "T0", " t0", "t00", "x", "1", ""]) | \
    st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)))


@settings(max_examples=150, deadline=None)
@given(st.lists(HEADER_TOKENS, min_size=1, max_size=3))
def test_mask_csv_loads_only_under_a_t_header(tmp_path_factory, header):
    path = tmp_path_factory.mktemp("mask") / "m.csv"
    path.write_text(",".join(header) + "\n" + ",".join(["1"] * len(header)) + "\n",
                    encoding="utf-8")
    if header == [f"t{j}" for j in range(len(header))]:
        assert load_mask_csv(path).shape == (1, len(header))
    else:
        with pytest.raises(DataError, match="header"):
            load_mask_csv(path)
