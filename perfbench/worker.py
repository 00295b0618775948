"""One benchmark process: import fence, warm up, run operations, report.

    python3 worker.py probe <warmup.json>
    python3 worker.py run <plan.json> <result.json> <seconds> <traced 0|1> <all|trace>

``probe`` only measures set-up: it imports the program, makes one tiny
warm-up call and prints the wall-clock time at which it was ready.

``run`` executes a plan from ``workloads.build`` as a closed loop: one
caller, each ``fence`` command starting when the previous one returns,
all in this process through ``fence.cli.main``. With ``all`` it completes
the first cycle of rounds and then keeps going round by round while the
next round is expected to end within ``seconds``; with ``trace`` it runs
the plan's first round once. With ``traced`` set it first installs the span
wrappers from ``spans``; otherwise the program runs unmodified.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

MAX_ROUNDS = 1000


def _ready_after_warmup(warmup: dict) -> float:
    if call_cli(warmup["argv"]) != 0:
        raise SystemExit("warm-up call failed")
    return time.time()


def call_cli(argv: list[str]) -> int:
    """Exit code of one ``fence`` command; a traceback counts as code 1."""
    import fence.cli

    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = fence.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 -- a crashed command is a failed operation
        traceback.print_exc()
        return 1
    return 0 if code is None else int(code)


def run_op(op: dict) -> dict:
    shutil.rmtree(op["out"], ignore_errors=True)
    Path(op["out"]).mkdir()
    phases: dict[str, float] = {}
    error = None
    for phase, argv in op["steps"]:
        t0 = time.perf_counter()
        code = call_cli(argv)
        phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - t0
        if code != 0:
            error = f"fence {argv[0]} exited with code {code}"
            break
    record = {"id": op["id"], "phases": phases, "seconds": sum(phases.values())}
    if error is None:
        try:
            quality = workloads.check_op(op["check"])
        except workloads.CheckFailed as exc:
            error = f"output check: {exc}"
        else:
            record["digests"] = workloads.digests(quality.pop("outputs"))
            record["quality"] = quality
    record["error"] = error
    return record


def run_plan(plan: dict, seconds: float, trace_only: bool, recorder=None) -> list[dict]:
    rounds = plan["rounds"][:1] if trace_only else plan["rounds"]
    records: list[dict] = []
    round_times: list[float] = []
    start = time.perf_counter()
    for r in range(MAX_ROUNDS):
        if r >= len(rounds):  # the first cycle is done; the rest is budgeted
            if trace_only or (time.perf_counter() - start
                              + statistics.fmean(round_times) > seconds):
                break
        t0 = time.perf_counter()
        for op in rounds[r % len(rounds)]:
            if recorder is not None:
                recorder.op = len(records)
            rec = run_op(op)
            rec["cycle"] = r // len(rounds)
            records.append(rec)
        round_times.append(time.perf_counter() - t0)
    return records


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when the library
    is loaded; None where it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "probe":
        ready = _ready_after_warmup(json.loads(Path(argv[2]).read_text(encoding="utf-8")))
        print(json.dumps({"ready": ready}))
        return 0

    plan_path, result_path, seconds, traced, which = argv[2:7]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    ready = _ready_after_warmup(plan["warmup"])
    recorder = missing = None
    if traced == "1":
        recorder = spans.Recorder()
        missing = spans.install(recorder)
    records = run_plan(plan, float(seconds), which == "trace", recorder)
    result = {
        "ready": ready,
        "ops": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if recorder is not None:
        result["layers"] = recorder.metrics()
        result["untraceable"] = missing + sorted(recorder.lost)
        recorder.dump(Path(plan["span_file"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
