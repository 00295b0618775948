"""Benchmark of the ``fence`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload oracle-windows --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Each workload generates its inputs from ``--seed`` (see ``workloads.py``),
measures set-up in separate probe processes, and runs its operations in one
worker process as a closed loop: a single caller, each ``fence`` command
starting when the previous one has returned. Every operation's outputs are
checked; a failed command or check counts the operation as failed and the
run goes on.

``--trace 0`` reports the end-to-end metrics, measured with the program
unmodified. ``--trace 1`` runs the workload's first round three times, each
in a fresh process: unmodified, with span wrappers installed (see
``spans.py``), and unmodified again. It reports the per-layer metrics of the
traced process and the tracing overhead against the two untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record, with the
workload-specific timings, quality references, provenance and output
digests, is printed before it and written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
PROBES = 3              # set-up probes per run, besides the worker itself
RUN_LIMIT_S = 170.0     # every run ends well within three minutes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The gated end-to-end metrics. Quality (mae, crps) is reported beside them
# with its references but not gated: on neural-staged its spread across
# seeds is far wider than any bound (see README.md), and on the oracle
# workloads the output check already bounds it against the exact mean.
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}
# The workload-specific names each operation's phases are reported under.
PHASE_METRICS = {
    "oracle-windows": {"window": "window_s"},
    "oracle-ensemble": {"run": "run_s"},
    "neural-staged": {"train": "train_s", "impute": "impute_s"},
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the time limit") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc


def worker_env(checkout: Path) -> dict:
    """Environment of every worker: the checkout's program first on the
    path, and one BLAS thread. On two shared cores a second BLAS thread made
    the oracle windows slower and less steady from run to run (see
    README.md): each BLAS call then waits for whichever core a neighbour is
    using."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


def _warmup(root: Path) -> dict:
    """A 2x4 oracle imputation: loads every module the workloads use."""
    root.mkdir(parents=True)
    world = {"nodes": 2, "steps": 4, "rho_s": 0.5, "rho_t": 0.5, "mean": 0.0}
    mask = np.array([[1, 1, 0, 1], [1, 0, 1, 1]])
    workloads.write_grid_csv(root / "grid.csv", np.linspace(-1, 1, 8).reshape(2, 4), mask)
    workloads.write_mask_csv(root / "mask.csv", mask)
    workloads.write_spec(root / "world.spec", world, 0)
    argv = ["impute", "--grid", str(root / "grid.csv"), "--mask", str(root / "mask.csv"),
            "--oracle", str(root / "world.spec"), "--out", str(root / "out.csv"),
            "--samples", "1", "--steps", "4", "--clusters", "1"]
    return {"argv": argv}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, checkout: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = HERE / "work" / f"{workload}-{os.getpid()}"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = worker_env(checkout)
    try:
        plan = workloads.build(workload, seed, work / "inputs")
        plan["warmup"] = _warmup(work / "warmup")
        plan["span_file"] = str(out_dir / f"spans-{workload}.npz")
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        (work / "warmup.json").write_text(json.dumps(plan["warmup"]), encoding="utf-8")

        def worker_run(traced: bool, which: str) -> dict:
            result_path = work / "result.json"
            spawned = time.time()
            _worker(["run", str(work / "plan.json"), str(result_path), str(seconds),
                     str(int(traced)), which], env, deadline)
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result["setup_s"] = result["ready"] - spawned
            return result

        if trace:
            # untraced runs on both sides of the traced one, so a drift in
            # machine speed does not pass for tracing overhead
            return summarize(workload, seed, plan, [worker_run(False, "trace"),
                                                    worker_run(True, "trace"),
                                                    worker_run(False, "trace")])
        setups = []
        for _ in range(PROBES):
            spawned = time.time()
            proc = _worker(["probe", str(work / "warmup.json")], env, deadline)
            setups.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - spawned)
        result = worker_run(False, "all")
        return summarize(workload, seed, plan, [result], setups + [result["setup_s"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(workload: str, seed: int, plan: dict, results: list[dict],
              setups: list[float] | None = None) -> dict:
    """The record of one run from its worker results: one untraced result
    and the set-up samples, or the untraced, traced and again untraced
    results of the first round."""
    ops = [op for r in results for op in r["ops"]]
    failed = sum(op["error"] is not None for op in ops)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(setups is None),
        "attempted": len(ops),
        "failed": failed,
        "failed_share": {"value": failed / len(ops), "unit": "fraction"},
        "errors": sorted({f"{op['id']}: {op['error']}" for op in ops if op["error"]}),
        "provenance": results[0]["provenance"],
        "op_seconds": [round(op["seconds"], 6) for op in ops],
    }
    record.update(_quality(ops, plan))
    if setups is None:
        before, traced, after = results
        layers = dict(traced["layers"])
        base = sum(op["seconds"] for op in before["ops"] + after["ops"]) / 2
        layers["trace.overhead_share"] = (
            sum(op["seconds"] for op in traced["ops"]) - base) / base
        record["untraceable"] = traced["untraceable"]
        record["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit, _ in spans.LAYER_METRICS}
        return record

    good = [op for op in ops if op["error"] is None] or ops
    record["setup_samples"] = len(setups)
    record["op_samples"] = len(good)
    for phase, name in PHASE_METRICS[workload].items():
        times = [op["phases"].get(phase, 0.0) for op in good]
        record[name] = {"value": statistics.median(times), "unit": "s", "samples": len(times)}
    values = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median([op["seconds"] for op in good]),
        "peak_rss_mb": results[0]["peak_rss_mib"],
    }
    record["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return record


def _quality(ops: list[dict], plan: dict) -> dict:
    """Quality of the first cycle, its references and output digests, and
    whether repeated operations wrote the same bytes."""
    checks = {op["id"]: op["check"] for rnd in plan["rounds"] for op in rnd}
    first = {}
    repeats_identical = True
    for op in ops:
        if op["error"] is not None:
            continue
        if op["id"] not in first:
            first[op["id"]] = op
        elif op["digests"] != first[op["id"]]["digests"]:
            repeats_identical = False
    out: dict = {"digests": {}, "repeats_identical": repeats_identical}
    for key in ("mae", "crps"):
        values = [op["quality"][key] for op in first.values() if key in op["quality"]]
        if values:
            out[key] = statistics.fmean(values)
    out.setdefault("mae", 0.0)
    for key in ("mae_exact", "mae_zero_fill"):
        out[key] = statistics.fmean(checks[i][key] for i in first) if first else 0.0
    for op in first.values():
        out["digests"].update({f"{op['id']}:{k}": v for k, v in op["digests"].items()})
    return out


def _print_result(record: dict) -> None:
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="oracle-windows | oracle-ensemble | neural-staged | all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "fence" / "__init__.py").is_file():
        print("error: run from the root of a fence checkout (src/fence not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    import fence

    if Path(fence.__file__).resolve().parent != (checkout / "src" / "fence").resolve():
        print(f"error: imported fence from {fence.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), checkout)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        out = HERE / "out" / f"{name}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        records.append(record)
    for record in records:
        print(json.dumps({k: v for k, v in record.items() if k != "digests"}, indent=1))
    if len(records) > 1:
        _print_table(records)
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": v for r in records
                        for k, v in r["metrics"].items()}}))
    else:
        _print_result(records[0])
    return 0


def _print_table(records: list[dict]) -> None:
    """Every metric of every workload, by name and unit."""
    print(f"{'workload':16} {'metric':40} {'value':>14}  unit")
    for r in records:
        rows = dict(r["metrics"])
        for key in ("window_s", "run_s", "train_s", "impute_s", "failed_share"):
            if key in r:
                rows[key] = r[key]
        for key, unit in (("mae", "norm"), ("crps", "norm"), ("mae_exact", "norm"),
                          ("mae_zero_fill", "norm")):
            if key in r:
                rows[key] = {"value": r[key], "unit": unit}
        for key, m in rows.items():
            print(f"{r['workload']:16} {key:40} {m['value']:14.6g}  {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
