"""tools/ab.py summarizes alternating perfbench pairs as a BENCH file."""

import argparse
import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab  # noqa: E402

# two perfbench --trace 0 records of one seed, trimmed to the keys the
# summary reads (the per-operation times and error list are dropped)
BASE_RECORD = json.loads("""{
 "workload": "neural-staged", "seed": 8901, "trace": 0, "attempted": 12, "failed": 0,
 "repeats_identical": true,
 "provenance": {"cpu_count": 2, "cpus_usable": 2, "python": "3.11.7", "numpy": "2.4.6",
                "scipy": "1.17.1", "blas": "OpenBLAS", "blas_threads": 1,
                "thread_env": {"OPENBLAS_NUM_THREADS": "1"}},
 "mae": 4.5468, "mae_exact": 0.4213, "mae_zero_fill": 0.5841,
 "digests": {"run/report.csv": "9f1c", "run/trace.csv": "0b7e"},
 "metrics": {"setup_s": {"value": 0.221, "unit": "s"},
             "op_s": {"value": 2.37, "unit": "s"},
             "peak_rss_mb": {"value": 49.96, "unit": "MiB"}}
}""")
CHANGE_RECORD = json.loads("""{
 "workload": "neural-staged", "seed": 8901, "trace": 0, "attempted": 14, "failed": 0,
 "repeats_identical": true,
 "provenance": {"cpu_count": 2, "cpus_usable": 2, "python": "3.11.7", "numpy": "2.4.6",
                "scipy": "1.17.1", "blas": "OpenBLAS", "blas_threads": 1,
                "thread_env": {"OPENBLAS_NUM_THREADS": "1"}},
 "mae": 4.5468, "mae_exact": 0.4213, "mae_zero_fill": 0.5841,
 "digests": {"run/report.csv": "9f1c", "run/trace.csv": "0b7e"},
 "metrics": {"setup_s": {"value": 0.230, "unit": "s"},
             "op_s": {"value": 1.84, "unit": "s"},
             "peak_rss_mb": {"value": 49.96, "unit": "MiB"}}
}""")
BOUNDS = {"setup_s": 0.25, "op_s": 0.25, "peak_rss_mb": 0.1}
BASE = {"commit": "a" * 40, "src_tree": "b" * 40}
CHANGE = {"commit": "c" * 40, "src_tree": "d" * 40, "dirty": False}


def _pair(seed, first="base", **change_metrics):
    change = copy.deepcopy(CHANGE_RECORD)
    for name, value in change_metrics.items():
        change["metrics"][name]["value"] = value
    return {"seed": seed, "first": first, "base": copy.deepcopy(BASE_RECORD),
            "change": change}


def test_one_pair_of_records():
    bench = ab.summarize("neural-staged", [_pair(8901)], BASE, CHANGE, BOUNDS)
    assert bench["base"] == BASE and bench["change"] == CHANGE
    row, = bench["pairs"]
    assert row == {"seed": 8901, "first": "base", "digests_equal": True,
                   "base": {"setup_s": 0.221, "op_s": 2.37, "peak_rss_mb": 49.96,
                            "attempted": 12, "failed": 0, "repeats_identical": True,
                            "mae": 4.5468, "mae_exact": 0.4213, "mae_zero_fill": 0.5841},
                   "change": {"setup_s": 0.230, "op_s": 1.84, "peak_rss_mb": 49.96,
                              "attempted": 14, "failed": 0, "repeats_identical": True,
                              "mae": 4.5468, "mae_exact": 0.4213, "mae_zero_fill": 0.5841}}
    op, setup, rss = (bench["summary"][m] for m in ("op_s", "setup_s", "peak_rss_mb"))
    assert op["base"] == {"q1": 2.37, "median": 2.37, "q3": 2.37}
    assert (op["change_wins"], op["base_wins"], op["gain"]) == (1, 0, True)
    assert op["median_change"] == pytest.approx(1.84 / 2.37 - 1)
    assert (setup["change_wins"], setup["base_wins"], setup["gain"]) == (0, 1, False)
    assert setup["within_bound"] and setup["bound"] == 0.25
    # equal values are a tie: neither side wins
    assert (rss["change_wins"], rss["base_wins"]) == (0, 0)
    assert bench["failed"] == {"base": 0, "change": 0}
    assert bench["digests_equal_on_every_seed"]
    assert bench["repeats_identical"] == {"base": True, "change": True}
    assert bench["provenance"] == {"cpu_count": 2, "cpus_usable": 2, "python": "3.11.7",
                                   "numpy": "2.4.6", "blas": "OpenBLAS", "blas_threads": 1}
    json.dumps(bench)  # the file is plain JSON


def test_a_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_base_spread():
    # base op_s is 2.37 on every pair: a spread of 0
    faster = [_pair(s, op_s=2.0) for s in range(10)]
    assert ab.summarize("w", faster, BASE, CHANGE, BOUNDS)["summary"]["op_s"]["gain"]
    faster[0] = _pair(0, op_s=2.5)
    faster[1] = _pair(1, "change", op_s=2.5)
    op = ab.summarize("w", faster, BASE, CHANGE, BOUNDS)["summary"]["op_s"]
    assert (op["change_wins"], op["base_wins"], op["gain"]) == (8, 2, False)
    # 4 of 4 wins, but the gap (0.01) lies inside the base's quartile spread
    spread = []
    for seed, value in enumerate((2.30, 2.37, 2.37, 2.44)):
        spread.append(_pair(seed, op_s=value - 0.01))
        spread[-1]["base"]["metrics"]["op_s"]["value"] = value
    op = ab.summarize("w", spread, BASE, CHANGE, BOUNDS)["summary"]["op_s"]
    assert op["change_wins"] == 4 and not op["gain"]
    # 10 of 10 wins, but the change fails a larger share of its operations
    failing = [_pair(s, op_s=2.0) for s in range(10)]
    failing[3]["change"]["failed"] = 1
    bench = ab.summarize("w", failing, BASE, CHANGE, BOUNDS)
    assert bench["failed"] == {"base": 0, "change": 1}
    assert not bench["summary"]["op_s"]["gain"]
    # one failure on each side: 1 of 140 operations is no larger a share than 1 of 120
    failing[5]["base"]["failed"] = 1
    assert ab.summarize("w", failing, BASE, CHANGE, BOUNDS)["summary"]["op_s"]["gain"]


def test_a_slower_change_outside_the_bound_and_a_digest_difference_show():
    slow = _pair(8902, peak_rss_mb=49.96 * 1.5)
    slow["change"]["digests"]["run/trace.csv"] = "ffff"
    bench = ab.summarize("w", [_pair(8901), slow], BASE, CHANGE, BOUNDS)
    assert not bench["summary"]["peak_rss_mb"]["within_bound"]
    assert [row["digests_equal"] for row in bench["pairs"]] == [True, False]
    assert not bench["digests_equal_on_every_seed"]
    # a run whose repeated operations wrote other bytes shows on its side
    slow["change"]["repeats_identical"] = False
    bench = ab.summarize("w", [_pair(8901), slow], BASE, CHANGE, BOUNDS)
    assert bench["repeats_identical"] == {"base": True, "change": False}


# oracle-ensemble's MAE and CRPS as perfbench recorded them on seeds 9301-9304
# for a change that draws new noise: (base, change) per seed
RECORDED_QUALITY = {
    9301: {"mae": (0.4850291594458148, 0.43245102524207774),
           "crps": (0.37144362119551216, 0.35693264962443744)},
    9302: {"mae": (0.4216288519408204, 0.4882319396659816),
           "crps": (0.33693091048874646, 0.3369609687155398)},
    9303: {"mae": (0.32844995961499557, 0.3395955989389641),
           "crps": (0.24397829672216176, 0.23961566064303505)},
    9304: {"mae": (0.39312286843327104, 0.4199296656294571),
           "crps": (0.287624706559264, 0.2882278315279043)},
}


def test_quality_pairs_mae_and_crps_by_seed():
    pairs = []
    for seed, numbers in RECORDED_QUALITY.items():
        pairs.append(_pair(seed))
        pairs[-1]["change"]["digests"]["run/trace.csv"] = "ffff"
        for name, (base, change) in numbers.items():
            pairs[-1]["base"][name], pairs[-1]["change"][name] = base, change
    bench = ab.summarize("oracle-ensemble", pairs, BASE, CHANGE, BOUNDS)
    assert not bench["digests_equal_on_every_seed"]
    mae, crps = bench["quality"]["mae"], bench["quality"]["crps"]
    assert set(bench["quality"]) == {"mae", "crps"}
    assert mae["pairs"] == crps["pairs"] == 4
    # seed 9301 alone has the lower MAE under the change
    assert (mae["change_lower"], mae["base_lower"]) == (1, 3)
    assert mae["base_median"] == pytest.approx((0.39312286843327104 + 0.4216288519408204) / 2)
    assert mae["change_median"] == pytest.approx((0.4199296656294571 + 0.43245102524207774) / 2)
    # the paired differences are -0.0526, +0.0666, +0.0112 and +0.0268
    assert mae["median_paired_change"] == pytest.approx(
        ((0.3395955989389641 - 0.32844995961499557)
         + (0.4199296656294571 - 0.39312286843327104)) / 2)
    assert (crps["change_lower"], crps["base_lower"]) == (2, 2)
    # a record without CRPS (oracle-windows) is summarized for its MAE only,
    # and equal numbers are ties
    for pair in pairs:
        del pair["base"]["crps"]
        pair["change"]["mae"] = pair["base"]["mae"]
    quality = ab.summarize("oracle-windows", pairs, BASE, CHANGE, BOUNDS)["quality"]
    assert list(quality) == ["mae"]
    assert quality["mae"]["median_paired_change"] == 0.0
    assert (quality["mae"]["change_lower"], quality["mae"]["base_lower"]) == (0, 0)


def test_seed_ranges():
    assert ab._seed_range("7601-7603") == [7601, 7602, 7603]
    assert ab._seed_range("9001") == [9001]
    with pytest.raises(argparse.ArgumentTypeError, match="empty"):
        ab._seed_range("5-4")
