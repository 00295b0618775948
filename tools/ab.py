"""A/B benchmark of this checkout against another revision, as BENCH_<workload>.json.

    python tools/ab.py --base <rev> --workload neural-staged --seeds 7601-7610

``<rev>`` is extracted with ``git archive`` into a temporary directory (set
TMPDIR to choose where), which is removed afterwards. There is one pair per
seed of the range, and pair i runs

    python3 perfbench/run.py --workload <w> --seed <seed i> --seconds <s> --trace 0

once from the root of each tree, with ``<s>`` the ``run_seconds`` of
BENCHMARK.json. Even pairs run the base first and odd pairs this checkout,
so a drift in machine speed does not favour one side. Each run's record is
read from that tree's ``perfbench/out/<w>-trace0.json``.

The file written at the root of this checkout (``BENCH_<w>.json``) holds
both revisions, every pair's end-to-end metrics, quality numbers and
output-digest comparison, and the summary of ``summarize``, a pure function
of the records: per metric each side's quartiles, the pairs each side won
(lower wins, ties count for neither), the median change against the
parent's and the benchmark's bound for it, and whether a gain can be
claimed (the change wins at least 9 of 10 pairs, its median lies below
the base's by more than the base's interquartile range, and it fails no
larger share of its operations than the base). A speed claim cites this
file.

Standard library plus numpy. At the 32-second run length a pair takes
about 80 seconds on two cores, so ten pairs take about a quarter hour.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "op_s", "peak_rss_mb")
QUALITY = ("mae", "crps", "mae_exact", "mae_zero_fill")
PROVENANCE = ("cpu_count", "cpus_usable", "python", "numpy", "blas", "blas_threads")
WIN_SHARE = 0.9  # share of pairs the change must win before it claims a gain


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def revision(rev: str) -> dict:
    """The commit ``rev`` names and the git tree of its src/."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"commit": commit, "src_tree": _git("rev-parse", f"{commit}:src")}


def this_checkout() -> dict:
    """HEAD, the tree of its src/, and whether src/ or perfbench/ differ from it."""
    head = revision("HEAD")
    head["dirty"] = bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    return head


def side(record: dict) -> dict:
    """What a pair keeps of one perfbench record."""
    out = {name: record["metrics"][name]["value"] for name in METRICS}
    out.update({key: record[key] for key in ("attempted", "failed")})
    out.update({key: record[key] for key in QUALITY if key in record})
    return out


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(workload: str, pairs: list[dict], base: dict, change: dict,
              bounds: dict) -> dict:
    """The BENCH record of ``pairs``: dicts of ``seed``, ``first`` (the side that
    ran first) and the two perfbench records ``base`` and ``change``. ``base``
    and ``change`` describe the revisions, and ``bounds`` maps each end-to-end
    metric to the relative worsening BENCHMARK.json allows."""
    rows = [{"seed": p["seed"], "first": p["first"], "base": side(p["base"]),
             "change": side(p["change"]),
             "digests_equal": p["base"]["digests"] == p["change"]["digests"]}
            for p in pairs]
    failed, attempted = ({key: sum(row[key][count] for row in rows) for key in ("base", "change")}
                         for count in ("failed", "attempted"))
    # failed / attempted of the change <= that of the base, without dividing by 0
    fails_no_more = failed["change"] * attempted["base"] <= failed["base"] * attempted["change"]
    summary = {}
    for name in METRICS:
        b = [row["base"][name] for row in rows]
        c = [row["change"][name] for row in rows]
        sb, sc = _stats(b), _stats(c)
        change_wins = sum(x < y for x, y in zip(c, b))
        summary[name] = {
            "base": sb, "change": sc,
            "change_wins": change_wins, "base_wins": sum(y < x for x, y in zip(c, b)),
            "median_change": sc["median"] / sb["median"] - 1.0,
            "bound": bounds[name],
            "within_bound": sc["median"] <= sb["median"] * (1.0 + bounds[name]),
            "gain": (change_wins >= WIN_SHARE * len(rows) and fails_no_more
                     and sb["median"] - sc["median"] > sb["q3"] - sb["q1"]),
        }
    provenance = pairs[0]["change"]["provenance"]
    return {
        "workload": workload,
        "base": base,
        "change": change,
        "pairs": rows,
        "summary": summary,
        "failed": failed,
        "digests_equal_on_every_seed": all(row["digests_equal"] for row in rows),
        "provenance": {key: provenance.get(key) for key in PROVENANCE},
    }


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The record of one ``perfbench/run.py --trace 0`` run from the root of ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads((tree / "perfbench" / "out" / f"{workload}-trace0.json").read_text(
        encoding="utf-8"))


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="oracle-windows | oracle-ensemble | neural-staged")
    parser.add_argument("--seeds", required=True, type=_seed_range,
                        help="first-last: one pair per seed")
    args = parser.parse_args(argv)
    pairs = len(args.seeds)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    base, change = revision(args.base), this_checkout()

    records = []
    with tempfile.TemporaryDirectory(prefix="fence-ab-") as tmp:
        base_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", base["commit"]], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            trees = {"base": base_tree, "change": ROOT}
            pair = {"seed": seed, "first": order[0]}
            for name in order:
                pair[name] = run_perfbench(trees[name], args.workload, seed,
                                           benchmark["run_seconds"])
            records.append(pair)
            print(f"pair {i + 1}/{pairs} seed {seed}: op_s base"
                  f" {pair['base']['metrics']['op_s']['value']:.4g} change"
                  f" {pair['change']['metrics']['op_s']['value']:.4g}", file=sys.stderr)

    bench = summarize(args.workload, records, base, change, bounds)
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for name, s in bench["summary"].items():
        print(f"{name:12s} median {s['base']['median']:.4g} -> {s['change']['median']:.4g}"
              f" ({s['median_change']:+.1%}), change won {s['change_wins']}/{pairs},"
              f" gain {s['gain']}, within bound {s['within_bound']}")
    print(f"digests equal on every seed: {bench['digests_equal_on_every_seed']}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
