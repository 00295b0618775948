"""The workloads at reduced sizes: failure accounting and the layers each
workload is predicted to use or leave idle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads

from conftest import BENCH, SRC


@pytest.fixture
def small(monkeypatch):
    """Same structure as the benchmark, a fraction of the work."""
    # weaker correlations than the benchmark's, so a 20-step chain with a
    # handful of samples still passes the output check against the exact mean
    monkeypatch.setattr(workloads, "ORACLE_WORLD", {**workloads.NEURAL_WORLD})
    monkeypatch.setattr(workloads, "DIFFUSION_STEPS", 20)
    monkeypatch.setattr(workloads, "ORACLE_SAMPLES", 4)
    monkeypatch.setattr(workloads, "CRPS_SAMPLES", 6)
    monkeypatch.setattr(workloads, "WINDOW_PATCH", 4)
    monkeypatch.setattr(workloads, "WINDOW_ROUNDS", 1)
    monkeypatch.setattr(workloads, "NEURAL_LENGTH", 72)
    monkeypatch.setattr(workloads, "NEURAL_EPOCHS", (1, 1))
    monkeypatch.setattr(workloads, "NEURAL_SAMPLES", 2)


def _summary(plan, records):
    result = {"ops": records, "provenance": {}, "peak_rss_mib": 1.0}
    return run.summarize("oracle-windows", 5, plan, [result], [0.5])


def test_truncated_mask_is_a_failed_operation_not_a_failed_run(small, tmp_path):
    plan = workloads.build("oracle-windows", 5, tmp_path)
    mask = Path(plan["rounds"][0][1]["check"]["dir"]) / "mask.csv"
    text = mask.read_text(encoding="utf-8")
    mask.write_text(text[: len(text) // 2], encoding="utf-8")

    records = worker.run_plan(plan, seconds=0.0, trace_only=False)

    assert [r["error"] is None for r in records] == [True, False, True, True]
    assert "exited with code 3" in records[1]["error"]
    record = _summary(plan, records)
    assert record["failed"] == 1
    assert record["failed_share"]["value"] == 0.25
    assert record["mae"] > 0


def test_failed_output_check_is_counted(small, tmp_path, monkeypatch):
    plan = workloads.build("oracle-windows", 5, tmp_path)
    monkeypatch.setattr(workloads, "MAE_FACTOR", 0.0)

    records = worker.run_plan(plan, seconds=0.0, trace_only=False)

    assert len(records) == 4
    assert all(r["error"].startswith("output check: MAE") for r in records)
    assert _summary(plan, records)["failed_share"]["value"] == 1.0


def _traced_layers(workload: str, tmp_path: Path) -> dict:
    plan = workloads.build(workload, 5, tmp_path / "inputs")
    plan["warmup"] = run._warmup(tmp_path / "warmup")
    plan["span_file"] = str(tmp_path / "spans.npz")
    (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "run",
                    str(tmp_path / "plan.json"), str(tmp_path / "result.json"), "0", "1",
                    "trace"], env=env, check=True, timeout=300)
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert [op["error"] for op in result["ops"]] == [None] * len(result["ops"])
    assert result["untraceable"] == []
    return result["layers"]


def _counts(layers: dict, *prefixes: str) -> dict:
    return {k: v for k, v in layers.items()
            if k.startswith(prefixes) and not k.endswith("_share")}


@pytest.mark.parametrize("workload", ["oracle-windows", "oracle-ensemble"])
def test_oracle_workloads_leave_the_neural_layers_idle(small, tmp_path, workload):
    layers = _traced_layers(workload, tmp_path)

    idle = _counts(layers, "neural.", "autodiff.", "training.", "checkpoint.")
    assert idle and all(v == 0 for v in idle.values()), idle
    for busy in ("world.factor.calls", "world.solve.calls", "clustering.kmeans.calls",
                 "backends.predict_cond.calls", "sampler.impute.calls"):
        assert layers[busy] > 0, busy
    if workload == "oracle-windows":
        assert layers["sampler.emit_trace.calls"] == 0
        assert layers["sampler.trajectories_per_needed"] == 1.0
    else:
        # the point-metric ensemble is computed again inside the CRPS ensemble
        s, c = workloads.ORACLE_SAMPLES, workloads.CRPS_SAMPLES
        assert layers["sampler.trajectories_per_needed"] == pytest.approx((s + c) / c)
        assert layers["sampler.trace_rows"] == (s + c) * workloads.DIFFUSION_STEPS * 6


def test_neural_workload_leaves_the_oracle_layers_idle(small, tmp_path):
    layers = _traced_layers("neural-staged", tmp_path)

    idle = _counts(layers, "world.", "backends.", "clustering.kmeans.", "config.")
    assert idle and all(v == 0 for v in idle.values()), idle
    for busy in ("neural.forward.calls", "autodiff.matmul.calls", "autodiff.backward.calls",
                 "training.adam_step.calls", "checkpoint.save.calls",
                 "checkpoint.load.calls", "masking.mask.calls", "sampler.emit_trace.calls"):
        assert layers[busy] > 0, busy
    assert layers["sampler.trajectories_per_needed"] == 1.0
