import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fence import (GuidanceConfig, ImputationResult, InvalidInputError, NetConfig,
                   NeuralDenoiser, OracleBackend, TrainConfig, load_checkpoint,
                   load_grid_csv, load_mask_csv, make_gaussian_world,
                   quadratic_schedule, save_checkpoint, save_grid_csv, save_mask_csv)
from fence.cli import (_IMPUTE_FLAGS, _cfg_from, _impute_in_data_units,
                       _keep_freed_memory, build_parser, main)
from fence.config import (SCHEMA, format_resolved, guidance_from, parse_config_file,
                          resolve_config, schedule_from, world_from)
from fence.masking import MaskPatternConfig, mask_sr_tc
from fence.sampler import impute, scale_law
from fence.training import train_unconditional

TINY_CONFIG = """\
[experiment]
backend = oracle
seed = 7

[world]
nodes = 3
steps = 4
rho_s = 0.5
rho_t = 0.6
seed = 3

[mask]
alpha = 0.5
patch = 2
seed = 2

[schedule]
steps = 8

[sampler]
samples = 2
crps_samples = 2
"""

WORLD_SPEC = """\
nodes = 3
steps = 4
rho_s = 0.5
rho_t = 0.6
mean = 1.0
seed = 11
"""


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[guidance]\nbogus = 1\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    cfg.write_text("[nonsense]\nx = 1\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_unknown_preset_exits_2(tmp_path):
    assert main(["run", "--preset", "wo-X", "--out-dir", str(tmp_path / "o")]) == 2


def test_missing_files_exit_3(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg"),
                 "--out-dir", str(tmp_path / "o")]) == 3
    out = tmp_path / "m.csv"
    assert main(["evaluate", "--pred", str(tmp_path / "nope.csv"),
                 "--truth", str(tmp_path / "nope.csv"),
                 "--eval-mask", str(tmp_path / "nope.csv"),
                 "--out", str(out)]) == 3
    assert main(["synth", "--spec", str(tmp_path / "missing.spec"), "--length", "4",
                 "--out", str(out)]) == 3


def test_run_pipeline_outputs_and_reproducibility(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out_a = tmp_path / "a"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    for name in ("config.resolved", "report.csv", "trace.csv", "trace_sample_0.csv"):
        assert (out_a / name).exists()
    lines = (out_a / "report.csv").read_text().splitlines()
    assert lines[0] == "mae,rmse,mape,crps"
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 4 and all(math.isfinite(v) for v in values)

    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
    assert (out_b / "report.csv").read_bytes() == (out_a / "report.csv").read_bytes()
    assert (out_b / "trace.csv").read_bytes() == (out_a / "trace.csv").read_bytes()

    # the resolved config is itself a valid config reproducing the run
    out_c = tmp_path / "c"
    assert main(["run", "--config", str(out_a / "config.resolved"),
                 "--out-dir", str(out_c)]) == 0
    assert (out_c / "config.resolved").read_bytes() == \
        (out_a / "config.resolved").read_bytes()
    assert (out_c / "report.csv").read_bytes() == (out_a / "report.csv").read_bytes()


def test_preset_overrides_config_file(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG + "\n[guidance]\nmode = fence\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--preset", "wo-F",
                 "--out-dir", str(out)]) == 0
    resolved = (out / "config.resolved").read_text()
    assert "mode = cfg:1" in resolved


def test_synth_is_deterministic(tmp_path):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--spec", str(spec), "--length", "6", "--out", str(a)]) == 0
    assert main(["synth", "--spec", str(spec), "--length", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    values, mask = load_grid_csv(a)
    assert values.shape == (3, 6)
    assert (mask == 1).all()


def test_mask_seed_controls_output(tmp_path):
    base = ["mask", "--alpha", "0.5", "--patch", "3", "--nodes", "5",
            "--length", "12"]
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(base + ["--seed", "4", "--out", str(a)]) == 0
    assert main(base + ["--seed", "4", "--out", str(b)]) == 0
    assert main(base + ["--seed", "5", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    mask = load_mask_csv(a)
    assert mask.shape == (5, 12)
    assert set(np.unique(mask)) <= {0, 1}


# sha256 of `fence mask --pattern SC-TC` on 9 nodes by community count, with
# the communities as contiguous arcs of the ring
SC_TC_DIGESTS = {
    1: "64905e110699dc3296549f3928b15771e261695703da9b1e7e83d0659cb6b7c4",
    2: "3880808f72e85027823cb9fa0cb91eeadd6939b1ceeae5ecbaa1d58a2c024606",
    3: "6206ddb266569059b930aed6425a164869327b9af8063c717485a62dbb382e1a",
}


@pytest.mark.parametrize("communities", sorted(SC_TC_DIGESTS))
def test_sc_tc_mask_file_is_pinned(tmp_path, communities):
    out = tmp_path / "m.csv"
    assert main(["mask", "--pattern", "SC-TC", "--alpha", "0.5", "--patch", "2",
                 "--communities", str(communities), "--nodes", "9", "--length", "10",
                 "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SC_TC_DIGESTS[communities]


@pytest.mark.parametrize("pattern", ["SR-TC", "SC-TC"])
@pytest.mark.parametrize("nodes", ["-1", "0"])
def test_mask_with_no_nodes_exits_2_naming_the_node_count(tmp_path, capsys, pattern, nodes):
    out = tmp_path / "m.csv"
    assert main(["mask", "--pattern", pattern, "--communities", "1", "--nodes", nodes,
                 "--length", "4", "--patch", "2", "--out", str(out)]) == 2
    assert f"node count must be >= 1, got {nodes}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    ({"patch": "0"}, "patch must be >= 1, got 0"),
    ({"alpha": "1.5"}, "alpha must lie in [0, 1], got 1.5"),
    ({"pattern": "SC-TC"}, "communities must lie in [1, 3] for SC-TC on 3 nodes, got 0"),
    ({"pattern": "SC-TC", "communities": "5"},
     "communities must lie in [1, 3] for SC-TC on 3 nodes, got 5"),
    ({"communities": "-1"}, "communities must be >= 0, got -1"),
])
def test_mask_setting_errors_name_the_flag_or_key(tmp_path, capsys, settings, message):
    # `fence mask` names the flag and `fence run` the [mask] key the user set
    out = tmp_path / "m.csv"
    flags = [arg for key, value in settings.items() for arg in (f"--{key}", value)]
    assert main(["mask", "--nodes", "3", "--length", "4", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: --{message}\n"
    assert not out.exists()
    cfg = tmp_path / "tiny.cfg"
    keys = {"alpha": "0.5", "patch": "2", **settings}
    cfg.write_text(TINY_CONFIG.replace(
        "alpha = 0.5\npatch = 2\n", "".join(f"{k} = {v}\n" for k, v in keys.items())))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: [mask] {message}\n"


@pytest.mark.parametrize("settings, flags, keys", [
    ({"guidance": "clusters = 0"}, "--clusters must lie in [1, 3], got 0",
     "[guidance] clusters must lie in [1, 3], got 0"),
    ({"schedule": "steps = 1"}, "--steps must be >= 2, got 1",
     "[schedule] steps must be >= 2, got 1"),
    ({"schedule": "beta1 = 0"}, "need 0 < --beta1 <= --beta-k < 1, got 0.0, 0.5",
     "need 0 < [schedule] beta1 <= [schedule] beta_k < 1, got 0.0, 0.5"),
    ({"schedule": "beta1 = 0.2\nbeta_k = 0.1"},
     "need 0 < --beta1 <= --beta-k < 1, got 0.2, 0.1",
     "need 0 < [schedule] beta1 <= [schedule] beta_k < 1, got 0.2, 0.1"),
    ({"sampler": "samples = 0"}, "--samples must be >= 1, got 0",
     "[sampler] samples must be >= 1, got 0"),
    ({"guidance": "pi = 0"}, "--pi must lie in (0, 1], got 0.0",
     "[guidance] pi must lie in (0, 1], got 0.0"),
    ({"guidance": "lambda_ref = 1"}, "--lambda-ref must be finite and > 1, got 1.0",
     "[guidance] lambda_ref must be finite and > 1, got 1.0"),
    ({"guidance": "lambda_max = 0.5"}, "--lambda-max must be finite and >= 1, got 0.5",
     "[guidance] lambda_max must be finite and >= 1, got 0.5"),
    ({"guidance": "t0 = 1"}, "--t0 must lie in (0, 1), got 1.0",
     "[guidance] t0 must lie in (0, 1), got 1.0"),
    ({"guidance": "t1 = 0"}, "--t1 must lie in (0, 1), got 0.0",
     "[guidance] t1 must lie in (0, 1), got 0.0"),
    ({"guidance": "alpha_scale = 0"}, "--alpha-scale must be finite and > 0, got 0.0",
     "[guidance] alpha_scale must be finite and > 0, got 0.0"),
    ({"guidance": "mode = cfg:inf"}, "the scale of --mode must be finite, got inf",
     "the scale of [guidance] mode must be finite, got inf"),
    ({"guidance": "mode = guided"},
     "--mode must be fence, none, or cfg:<lambda>, got 'guided'",
     "[guidance] mode must be fence, none, or cfg:<lambda>, got 'guided'"),
])
def test_sampling_setting_errors_name_the_flag_or_key(tmp_path, capsys, settings, flags,
                                                      keys):
    # `fence impute` names the flag and `fence run` the config key the user set
    argv = _oracle_argv(tmp_path, "impute", 3, 0.5)
    for section, lines in settings.items():
        for line in lines.split("\n"):
            key, value = line.split(" = ")
            argv += [f"--{key.replace('_', '-')}", value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flags}\n"
    assert not (tmp_path / "out.csv").exists()
    cfg = tmp_path / "tiny.cfg"
    text = TINY_CONFIG.replace("\nsteps = 8\n", "\n").replace("\nsamples = 2\n", "\n")
    for section, lines in settings.items():
        header = f"[{section}]\n"
        text = (text.replace(header, header + lines + "\n") if header in text
                else f"{text}\n{header}{lines}\n")
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {keys}\n"


def test_mask_and_run_draw_the_same_mask_from_the_same_settings(tmp_path, monkeypatch):
    # `fence mask` takes its defaults from [mask], as `fence run` does
    drawn = []

    def recording_impute(backend, backend_uncond, observed, mask, *args, **kwargs):
        drawn.append(mask.entries)
        return impute(backend, backend_uncond, observed, mask, *args, **kwargs)

    monkeypatch.setattr("fence.cli.impute", recording_impute)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG.replace("alpha = 0.5\npatch = 2\nseed = 2\n", ""))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    out = tmp_path / "m.csv"
    assert main(["mask", "--nodes", "3", "--length", "4", "--out", str(out)]) == 0
    assert not drawn[0].all()
    np.testing.assert_array_equal(load_mask_csv(out), drawn[0])


def _decimal(lo: float, hi: float):
    """Floats in [lo, hi] as the text a user would type."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)


# valid [schedule] and [guidance] settings; a key left out keeps its default
SAMPLING_VALUES = {
    "schedule": {"steps": st.integers(2, 60).map(str), "beta1": _decimal(1e-5, 0.05),
                 "beta_k": _decimal(0.05, 0.9),
                 "variance_mode": st.sampled_from(["beta", "beta_tilde"])},
    "guidance": {"mode": st.sampled_from(["fence", "none"]) | _decimal(0.0, 8.0).map(
                     lambda lam: f"cfg:{lam}"),
                 "pi": _decimal(0.01, 1.0), "lambda_ref": _decimal(1.01, 5.0),
                 "t0": _decimal(0.01, 0.99), "t1": _decimal(0.01, 0.99),
                 "alpha_scale": _decimal(0.1, 100.0), "lambda_max": _decimal(1.0, 20.0),
                 "scope": st.sampled_from(["cluster", "global", "per_node"])},
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nodes=st.integers(1, 8))
def test_impute_flags_and_run_config_build_the_same_schedule_and_guidance(
        tmp_path_factory, data, nodes):
    # `fence impute` parses its flags and `fence run` its config file; the
    # same settings give the same noise schedule and guidance settings
    chosen = {section: {key: data.draw(value, label=f"[{section}] {key}")
                        for key, value in keys.items() if data.draw(st.booleans())}
              for section, keys in SAMPLING_VALUES.items()}
    chosen["guidance"]["clusters"] = data.draw(
        st.just("auto") | st.integers(1, nodes).map(str), label="[guidance] clusters")
    flags = [arg for keys in chosen.values() for key, value in keys.items()
             for arg in (f"--{key.replace('_', '-')}", value)]
    args = build_parser().parse_args(["impute", "--grid", "g", "--out", "o", *flags])
    from_flags = _cfg_from(args, _IMPUTE_FLAGS)
    cfg = tmp_path_factory.mktemp("sampling") / "run.cfg"
    cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for section, keys in chosen.items()))
    from_file = resolve_config(parse_config_file(cfg))
    sched_flags = schedule_from(from_flags, flags=True)
    sched_file = schedule_from(from_file, flags=False)
    np.testing.assert_array_equal(sched_flags.beta, sched_file.beta)
    np.testing.assert_array_equal(sched_flags.sigma2, sched_file.sigma2)
    gcfg_flags = guidance_from(from_flags, nodes, flags=True)
    assert gcfg_flags == guidance_from(from_file, nodes, flags=False)
    expect = chosen["guidance"]["clusters"]
    assert gcfg_flags.clusters == (None if expect == "auto" else int(expect))


def test_evaluate_hand_example(tmp_path):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    emask = tmp_path / "emask.csv"
    # node 2 has no evaluated cell: it changes no metric and gets no per-node row
    save_grid_csv(pred, np.array([[1.0, 2.0], [3.0, 4.0], [7.0, 8.0]]))
    save_grid_csv(truth, np.array([[2.0, 2.0], [5.0, 4.0], [6.0, 9.0]]))
    save_mask_csv(emask, np.array([[1, 0], [1, 0], [0, 0]]))
    out = tmp_path / "metrics.csv"
    per_node = tmp_path / "per_node.csv"
    assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                 "--eval-mask", str(emask), "--out", str(out),
                 "--per-node-out", str(per_node)]) == 0
    header, line = out.read_text().splitlines()
    assert header == "mae,rmse,mape,crps"
    mae, rmse, mape, crps = line.split(",")
    assert float(mae) == 1.5
    assert float(rmse) == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert float(mape) == pytest.approx(0.45, rel=1e-12)
    assert crps == "nan"
    rows = per_node.read_text().splitlines()
    assert rows[0] == "node,mae,rmse,mape" and len(rows) == 3
    assert rows[1].startswith("0,1.0,") and rows[2].startswith("1,2.0,")


def _evaluate_files(tmp_path, pred_text, emask):
    pred, truth, mask = (tmp_path / n for n in ("pred.csv", "truth.csv", "emask.csv"))
    pred.write_text(pred_text)
    save_grid_csv(truth, np.array([[2.0, 2.0], [5.0, 4.0]]))
    save_mask_csv(mask, np.array(emask))
    return ["evaluate", "--pred", str(pred), "--truth", str(truth),
            "--eval-mask", str(mask), "--out", str(tmp_path / "metrics.csv")]


def test_evaluate_rejects_an_empty_evaluated_cell(tmp_path, capsys):
    # the empty cell used to be scored as a prediction of 0
    argv = _evaluate_files(tmp_path, "t0,t1\n,2.0\n3.0,4.0\n", [[1, 0], [1, 0]])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "pred.csv" in err and "row 0, col 0" in err
    assert not (tmp_path / "metrics.csv").exists()


def test_evaluate_allows_empty_cells_outside_the_eval_mask(tmp_path):
    argv = _evaluate_files(tmp_path, "t0,t1\n1.0,\n3.0,nan\n", [[1, 0], [1, 0]])
    assert main(argv) == 0
    mae = (tmp_path / "metrics.csv").read_text().splitlines()[1].split(",")[0]
    assert float(mae) == 1.5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.sampled_from(["", "nan", "NaN"]))
def test_evaluate_names_any_empty_evaluated_cell(tmp_path_factory, position, token):
    tmp_path = tmp_path_factory.mktemp("evaluate")
    cells = ["1.0", "2.0", "3.0", "4.0"]
    cells[position] = token
    text = f"t0,t1\n{cells[0]},{cells[1]}\n{cells[2]},{cells[3]}\n"
    argv = _evaluate_files(tmp_path, text, [[1, 1], [1, 1]])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 3
    assert f"row {position // 2}, col {position % 2}" in err.getvalue()


def test_evaluate_rejects_an_eval_mask_that_selects_no_cell(tmp_path, capsys):
    # a problem with the mask file's contents, not with a flag
    argv = _evaluate_files(tmp_path, "t0,t1\n1.0,2.0\n3.0,4.0\n", [[0, 0], [0, 0]])
    assert main(argv) == 3
    assert "emask.csv" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_evaluate_rejects_ensemble_members_of_another_shape(tmp_path, capsys):
    argv = _evaluate_files(tmp_path, "t0,t1\n1.0,2.0\n3.0,4.0\n", [[1, 0], [1, 0]])
    save_grid_csv(tmp_path / "ens_sample_0.csv", np.ones((2, 2)))
    save_grid_csv(tmp_path / "ens_sample_1.csv", np.ones((3, 2)))
    assert main(argv + ["--ensemble-prefix", str(tmp_path / "ens")]) == 3
    err = capsys.readouterr().err
    assert "ens_sample_1.csv" in err and "(3, 2)" in err


def test_evaluate_rejects_a_one_member_ensemble(tmp_path, capsys):
    # a one-member ensemble on disk is a data problem: CRPS needs two
    argv = _evaluate_files(tmp_path, "t0,t1,t2\n1.0,2.0,3.0\n4.0,5.0,6.0\n",
                           np.ones((2, 3), dtype=np.int64))
    save_grid_csv(tmp_path / "truth.csv", np.zeros((2, 3)))
    save_grid_csv(tmp_path / "ens_sample_000.csv", np.ones((2, 3)))
    assert main(argv + ["--ensemble-prefix", str(tmp_path / "ens")]) == 3
    err = capsys.readouterr().err
    assert "ens_sample_*.csv" in err and "found 1" in err
    assert not (tmp_path / "metrics.csv").exists()


def test_evaluate_reads_an_ensemble_prefix_with_glob_characters_literally(tmp_path):
    spec, series = tmp_path / "world.spec", tmp_path / "series.csv"
    spec.write_text(WORLD_SPEC)
    assert main(["synth", "--spec", str(spec), "--length", "4", "--out", str(series)]) == 0
    mask = tmp_path / "mask.csv"
    save_mask_csv(mask, np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]))
    (tmp_path / "out[1]").mkdir()
    out, trace = tmp_path / "out[1]" / "imputed.csv", tmp_path / "out[1]" / "tr[a].csv"
    assert main(["impute", "--grid", str(series), "--mask", str(mask), "--oracle", str(spec),
                 "--steps", "8", "--samples", "3", "--out", str(out),
                 "--trace-out", str(trace)]) == 0
    emask = tmp_path / "emask.csv"
    save_mask_csv(emask, 1 - load_mask_csv(mask))
    report = tmp_path / "metrics.csv"
    assert main(["evaluate", "--pred", str(out), "--truth", str(series), "--eval-mask",
                 str(emask), "--ensemble-prefix", str(tmp_path / "out[1]" / "tr[a]"),
                 "--out", str(report)]) == 0
    assert math.isfinite(float(report.read_text().splitlines()[1].split(",")[3]))


def test_impute_needs_exactly_one_backend_source(tmp_path):
    grid = tmp_path / "grid.csv"
    save_grid_csv(grid, np.zeros((3, 4)))
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC)
    ckpt = tmp_path / "model.fence"
    ckpt.write_bytes(b"FNCE" + b"\x00" * 4)
    out = str(tmp_path / "out.csv")
    assert main(["impute", "--grid", str(grid), "--out", out]) == 2
    assert main(["impute", "--grid", str(grid), "--oracle", str(spec),
                 "--checkpoint-cond", str(ckpt), "--checkpoint-uncond",
                 str(ckpt), "--out", out]) == 2


@pytest.mark.parametrize("nodes, steps", [(100000000, 4), (3, 100000000), (17, 241)])
def test_oversized_oracle_world_exits_2(tmp_path, capsys, nodes, steps):
    # 17 x 241 = 4097 cells, one past the bound; nothing of size (NT)^2 is allocated
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC.replace("nodes = 3", f"nodes = {nodes}")
                    .replace("steps = 4", f"steps = {steps}"))
    assert main(["synth", "--spec", str(spec), "--length", "4",
                 "--out", str(tmp_path / "series.csv")]) == 2
    assert "dense hidden block" in capsys.readouterr().err
    cfg = tmp_path / "big.cfg"
    cfg.write_text(TINY_CONFIG.replace("nodes = 3", f"nodes = {nodes}")
                   .replace("steps = 4", f"steps = {steps}"))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "dense hidden block" in capsys.readouterr().err


def test_impute_on_an_oversized_oracle_world_exits_2(tmp_path, capsys):
    # the grid matches the spec's 17 x 241 = 4097 cells, so the size bound stops it
    grid = tmp_path / "grid.csv"
    save_grid_csv(grid, np.zeros((17, 241)))
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC.replace("nodes = 3", "nodes = 17")
                    .replace("steps = 4", "steps = 241"))
    assert main(["impute", "--grid", str(grid), "--oracle", str(spec),
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert "dense hidden block" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["impute", "run"])
def test_non_positive_definite_oracle_world_exits_2(tmp_path, capsys, command):
    # on a 3-node ring, rho_s = -0.9 gives the spatial factor the eigenvalue 1 - 1.8
    if command == "impute":
        grid, spec = tmp_path / "grid.csv", tmp_path / "world.spec"
        save_grid_csv(grid, np.zeros((3, 4)))
        spec.write_text(WORLD_SPEC.replace("rho_s = 0.5", "rho_s = -0.9"))
        argv = ["impute", "--grid", str(grid), "--oracle", str(spec),
                "--out", str(tmp_path / "out.csv")]
    else:
        cfg = tmp_path / "npd.cfg"
        cfg.write_text(TINY_CONFIG.replace("rho_s = 0.5", "rho_s = -0.9"))
        argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "covariance is not positive definite" in capsys.readouterr().err


def _oracle_argv(tmp_path, command, nodes, rho_s):
    """argv of ``command`` on the test world spec (synth, impute --oracle) or
    the tiny run config, with ``nodes`` and ``rho_s`` swapped in."""
    def edit(text):
        return text.replace("nodes = 3", f"nodes = {nodes}").replace(
            "rho_s = 0.5", f"rho_s = {rho_s}")

    spec, cfg, grid = (tmp_path / n for n in ("world.spec", "tiny.cfg", "grid.csv"))
    spec.write_text(edit(WORLD_SPEC))
    cfg.write_text(edit(TINY_CONFIG))
    values = np.zeros((nodes, 4))
    values[1] = np.nan  # node 1 is hidden
    save_grid_csv(grid, values)
    out = str(tmp_path / "out.csv")
    return {"synth": ["synth", "--spec", str(spec), "--length", "4", "--out", out],
            "impute": ["impute", "--grid", str(grid), "--oracle", str(spec),
                       "--steps", "4", "--samples", "2", "--out", out],
            "run": ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]}[command]


@pytest.mark.parametrize("command", ["synth", "impute", "run"])
def test_singular_oracle_world_exits_2_from_every_command(tmp_path, capsys, command):
    # on a 3-node ring, rho_s = -0.5 makes every row of the spatial factor sum
    # to 0; scipy's eigh reported a smallest eigenvalue of +1.1e-15 there
    assert main(_oracle_argv(tmp_path, command, 3, -0.5)) == 2
    assert "spatial factor is not" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["synth", "impute", "run"])
def test_four_node_ring_at_minus_half_still_runs(tmp_path, command):
    # the same rho_s on 4 nodes: the spatial factor's smallest eigenvalue is 0.25
    assert main(_oracle_argv(tmp_path, command, 4, -0.5)) == 0


@pytest.mark.parametrize("nodes", [3, 100000000])
def test_grid_that_does_not_match_the_oracle_spec_exits_2(tmp_path, capsys,
                                                          monkeypatch, nodes):
    monkeypatch.setattr("fence.cli.load_world_spec",
                        lambda path: pytest.fail("the world was built"))
    grid = tmp_path / "grid.csv"
    save_grid_csv(grid, np.zeros((2, 4)))
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC.replace("nodes = 3", f"nodes = {nodes}"))
    assert main(["impute", "--grid", str(grid), "--oracle", str(spec),
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert "(2, 4)" in err and f"({nodes}, 4)" in err
    assert "reverse step" not in err


def test_impute_oracle_end_to_end(tmp_path):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC)
    series = tmp_path / "series.csv"
    assert main(["synth", "--spec", str(spec), "--length", "4",
                 "--out", str(series)]) == 0
    mask_path = tmp_path / "mask.csv"
    entries = np.ones((3, 4), dtype=np.int64)
    entries[1, :] = 0
    save_mask_csv(mask_path, entries)
    out = tmp_path / "imputed.csv"
    trace = tmp_path / "trace.csv"
    assert main(["impute", "--grid", str(series), "--mask", str(mask_path),
                 "--oracle", str(spec), "--steps", "8", "--samples", "1",
                 "--out", str(out), "--trace-out", str(trace)]) == 0
    values, _ = load_grid_csv(out)
    assert values.shape == (3, 4)
    assert np.isfinite(values).all()
    lines = trace.read_text().splitlines()
    assert lines[0] == "traj,k,node,lambda,log_posterior,guidance_norm,cluster_id"
    assert len(lines) == 1 + 1 * 8 * 3  # S * K * N rows
    sample, _ = load_grid_csv(tmp_path / "trace_sample_0.csv")
    np.testing.assert_array_equal(sample, values)


def _save_neural_checkpoint(path, mean, std, seed=0, nodes=3):
    state = NeuralDenoiser(NetConfig(n_nodes=nodes, d_model=8, n_layers=1, n_heads=2),
                           seed=seed).state_dict()
    save_checkpoint(path, {**state, "norm/mean": np.float64(mean),
                           "norm/std": np.float64(std)})


def test_neural_impute_writes_its_samples_in_data_units(tmp_path):
    # the mean imputation is the mean of the sample files, all in data units
    grid, mask = tmp_path / "grid.csv", tmp_path / "mask.csv"
    save_grid_csv(grid, 50.0 + np.arange(12.0).reshape(3, 4))
    save_mask_csv(mask, np.array([[1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 0]]))
    ckpt = tmp_path / "model.fence"
    _save_neural_checkpoint(ckpt, 50.0, 4.0)
    out, trace = tmp_path / "imputed.csv", tmp_path / "trace.csv"
    assert main(["impute", "--grid", str(grid), "--mask", str(mask), "--steps", "6",
                 "--samples", "3", "--checkpoint-uncond", str(ckpt),
                 "--checkpoint-cond", str(ckpt), "--out", str(out),
                 "--trace-out", str(trace)]) == 0
    imputed, _ = load_grid_csv(out)
    samples = np.stack([load_grid_csv(tmp_path / f"trace_sample_{i}.csv")[0]
                        for i in range(3)])
    np.testing.assert_allclose(samples.mean(axis=0), imputed, rtol=0, atol=1e-12)


def test_checkpoint_pair_with_different_normalizations_exits_3(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    save_grid_csv(grid, np.full((3, 4), 50.0))
    uncond, cond = tmp_path / "uncond.fence", tmp_path / "cond.fence"
    _save_neural_checkpoint(uncond, 50.2, 1.0)
    _save_neural_checkpoint(cond, 0.0, 1.0, seed=1)
    out = tmp_path / "out.csv"
    assert main(["impute", "--grid", str(grid), "--steps", "4",
                 "--checkpoint-uncond", str(uncond), "--checkpoint-cond", str(cond),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(uncond) in err and str(cond) in err and "norm/mean" in err
    assert not out.exists()


@pytest.mark.parametrize("uncond_nodes, cond_nodes", [(3, 3), (5, 3)])
def test_checkpoints_for_another_node_count_exit_2_before_sampling(
        tmp_path, capsys, monkeypatch, uncond_nodes, cond_nodes):
    monkeypatch.setattr("fence.cli.impute", lambda *a, **k: pytest.fail("sampling started"))
    grid = tmp_path / "grid.csv"
    save_grid_csv(grid, np.zeros((5, 4)))
    uncond, cond = tmp_path / "uncond.fence", tmp_path / "cond.fence"
    _save_neural_checkpoint(uncond, 0.0, 1.0, nodes=uncond_nodes)
    _save_neural_checkpoint(cond, 0.0, 1.0, seed=1, nodes=cond_nodes)
    out = tmp_path / "out.csv"
    assert main(["impute", "--grid", str(grid), "--steps", "6",
                 "--checkpoint-uncond", str(uncond), "--checkpoint-cond", str(cond),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    named = uncond if uncond_nodes != 5 else cond
    assert f"{named} was built for 3 nodes, the grid has 5" in err
    assert "reverse step" not in err
    assert not out.exists()


def test_impute_oracle_reads_the_spec_once(tmp_path, monkeypatch):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC)
    grid, mask = tmp_path / "grid.csv", tmp_path / "mask.csv"
    save_grid_csv(grid, np.zeros((3, 4)))
    save_mask_csv(mask, np.ones((3, 4), dtype=np.int64))
    reads = []
    read_text = Path.read_text

    def counting_read(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read)
    assert main(["impute", "--grid", str(grid), "--mask", str(mask), "--oracle",
                 str(spec), "--steps", "4", "--samples", "1",
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert reads.count(spec) == 1


def _impute_grid_argv(tmp_path, cells):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC)
    grid = tmp_path / "grid.csv"
    rows = [",".join(cells[i:i + 4]) for i in range(0, 12, 4)]
    grid.write_text("t0,t1,t2,t3\n" + "\n".join(rows) + "\n")
    return ["impute", "--grid", str(grid), "--oracle", str(spec), "--steps", "10",
            "--out", str(tmp_path / "out.csv")]


def test_impute_rejects_an_infinite_grid_cell(tmp_path, capsys):
    # a non-finite observation is bad data, not a divergence of the sampler
    cells = ["1.0"] * 12
    cells[5] = "inf"
    assert main(_impute_grid_argv(tmp_path, cells)) == 3
    err = capsys.readouterr().err
    assert "grid.csv" in err and "row 1, col 1" in err and "diverged" not in err
    assert not (tmp_path / "out.csv").exists()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11),
       st.sampled_from(["inf", "-inf", "+inf", "INF", "Infinity", "-infinity",
                        "1e999", "-1e400", " inf "]))
def test_any_non_finite_grid_token_exits_3_naming_its_cell(tmp_path_factory,
                                                           position, token):
    tmp_path = tmp_path_factory.mktemp("impute")
    cells = [repr(0.1 * i) for i in range(12)]
    cells[position] = token
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(_impute_grid_argv(tmp_path, cells)) == 3
    assert f"row {position // 4}, col {position % 4}" in err.getvalue()


@pytest.mark.parametrize("header", ["x,y,z,w\n", ""])
def test_impute_rejects_a_mask_without_its_header(tmp_path, capsys, header):
    # a wrong header, or none (the first mask row would be taken for it)
    argv = _impute_grid_argv(tmp_path, ["1.0"] * 12)
    mask = tmp_path / "mask.csv"
    mask.write_text(header + "1,0,0,1\n" * 3)
    assert main(argv + ["--mask", str(mask)]) == 3
    err = capsys.readouterr().err
    assert "mask.csv: header must be t0,t1" in err
    assert not (tmp_path / "out.csv").exists()


def _exit_code(argv) -> int:
    """main's exit code, counting argparse's usage errors as the 2 they exit with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_out_of_range_seed_exits_2_naming_its_key(tmp_path, capsys, value):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC.replace("seed = 11", f"seed = {value}"))
    assert main(["synth", "--spec", str(spec), "--length", "4",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "[world] seed" in capsys.readouterr().err
    for section in ("experiment", "world", "mask", "training"):
        cfg = tmp_path / f"{section}.cfg"
        cfg.write_text(f"[{section}]\nseed = {value}\n")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"[{section}] seed" in capsys.readouterr().err
    for argv in (["mask", "--nodes", "3", "--length", "4", "--out", "m"],
                 ["impute", "--grid", "g", "--out", "o"],
                 ["train-uncond", "--data", "d", "--out", "o"],
                 ["finetune-cond", "--data", "d", "--init", "i", "--out", "o"]):
        assert _exit_code(argv + ["--seed", value]) == 2
        assert "argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@settings(max_examples=40, deadline=None)
@given(st.integers(-2**130, 2**130) | st.sampled_from([-1, 0, 2**64 - 1, 2**64]))
@example(seed=17688)  # its 3x4 SR-TC mask hides no cell
def test_any_integer_seed_exits_0_or_2(tmp_path_factory, seed):
    # seeds in [0, 2**64) run; any other integer is a configuration error, and
    # so is a run whose mask draw hides nothing
    tmp_path = tmp_path_factory.mktemp("seed")
    expected = 0 if 0 <= seed < 2**64 else 2
    hides_nothing = expected == 0 and mask_sr_tc(
        3, 4, MaskPatternConfig("SR-TC", 0.5, 2, seed=seed)).entries.all()
    spec, cfg = tmp_path / "world.spec", tmp_path / "tiny.cfg"
    spec.write_text(WORLD_SPEC.replace("seed = 11", f"seed = {seed}"))
    cfg.write_text(re.sub(r"^seed = \d+$", f"seed = {seed}", TINY_CONFIG, flags=re.M))
    grid, ok_spec = tmp_path / "grid.csv", tmp_path / "ok.spec"
    save_grid_csv(grid, np.zeros((3, 4)))
    ok_spec.write_text(WORLD_SPEC)
    runs = [["synth", "--spec", str(spec), "--length", "4", "--out", str(tmp_path / "s")],
            ["mask", "--alpha", "0.5", "--patch", "2", "--nodes", "3", "--length", "4",
             "--seed", str(seed), "--out", str(tmp_path / "m")],
            ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
            ["impute", "--grid", str(grid), "--oracle", str(ok_spec),
             "--steps", "4", "--samples", "2", "--clusters", "2", "--seed", str(seed),
             "--out", str(tmp_path / "i")]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        codes = [_exit_code(argv) for argv in runs]
    assert codes == [expected, expected, 2 if hides_nothing else expected, expected]
    if hides_nothing:
        assert "[mask] seed" in err.getvalue() and "alpha" in err.getvalue()


SCHEDULE_DEFAULTS = {"steps": 50, "beta1": 1e-4, "beta_k": 0.5,
                     "variance_mode": "beta_tilde"}
GUIDANCE_DEFAULTS = {"mode": "fence", "pi": 0.5, "lambda_ref": 1.6, "t0": 0.8,
                     "t1": 0.5, "alpha_scale": 10.0, "lambda_max": 10.0,
                     "scope": "cluster", "clusters": "auto"}
BACKEND_DEFAULTS = {"mask": None, "oracle": None, "checkpoint_cond": None,
                    "checkpoint_uncond": None, "seed": 0, "anchoring": "free"}
NET_DEFAULTS = {"mask": None, "window": 12, "stride": 1, "batch": 8, "d_model": 16,
                "layers": 2, "heads": 2, "seed": 0}

# minimal argv -> every parsed default, as the command line has always had them
CLI_SURFACE = [
    (["synth", "--spec", "s", "--length", "5", "--out", "o"],
     {"spec": "s", "length": 5, "out": "o"}),
    (["mask", "--nodes", "3", "--length", "4", "--out", "o"],
     {"pattern": "SR-TC", "alpha": 0.8, "patch": 12, "communities": 0, "seed": 1,
      "nodes": 3, "length": 4, "out": "o"}),
    (["train-uncond", "--data", "d", "--out", "o"],
     {"data": "d", "out": "o", "epochs": 150, "lr": 2e-3, "patience": 20,
      "weight_decay": 1e-6, **NET_DEFAULTS, **SCHEDULE_DEFAULTS}),
    # the shape flags parse to None, so one that was given can be checked
    # against the --init checkpoint
    (["finetune-cond", "--data", "d", "--init", "i", "--out", "o"],
     {"data": "d", "out": "o", "init": "i", "epochs": 80, "lr": 1e-3, "patience": 10,
      "weight_decay": 1e-5, **NET_DEFAULTS, "d_model": None, "layers": None,
      "heads": None, **SCHEDULE_DEFAULTS}),
    (["impute", "--grid", "g", "--out", "o"],
     {"grid": "g", "out": "o", "trace_out": None, "samples": 10, **BACKEND_DEFAULTS,
      **SCHEDULE_DEFAULTS, **GUIDANCE_DEFAULTS}),
    (["evaluate", "--pred", "p", "--truth", "t", "--eval-mask", "e", "--out", "o"],
     {"pred": "p", "truth": "t", "eval_mask": "e", "ensemble_prefix": None, "out": "o",
      "per_node_out": None}),
    (["run"], {"config": None, "preset": None, "out_dir": "."}),
]


@pytest.mark.parametrize("argv, expected", CLI_SURFACE, ids=[a[0] for a, _ in CLI_SURFACE])
def test_cli_defaults_are_pinned(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func").__name__.startswith("cmd_")
    expected = {"command": argv[0], **expected}
    assert {k: (type(v), v) for k, v in parsed.items()} == \
        {k: (type(v), v) for k, v in expected.items()}


def _overwrite_every_value(args) -> int:
    for key in vars(args):
        setattr(args, key, "leaked")
    return 0


def test_consecutive_main_calls_parse_independently(monkeypatch):
    # main builds its parser once per process; a command that sets its own
    # arguments, or an earlier command's flags, must not reach the next parse
    parsed = []
    real = argparse.ArgumentParser.parse_args

    def parse_only(parser, argv):
        args = real(parser, argv)
        parsed.append((parser, {k: (type(v), v) for k, v in vars(args).items()
                                if k != "func"}))
        args.func = _overwrite_every_value
        return args

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_only)
    others = [["impute", "--grid", "x", "--out", "y", "--seed", "5", "--steps", "7",
               "--t1", "0.3", "--oracle", "w"],
              ["finetune-cond", "--data", "x", "--out", "y", "--d-model", "8",
               "--init", "c", "--epochs", "3"],
              ["mask", "--nodes", "9", "--length", "9", "--out", "y", "--seed", "4"],
              ["run", "--preset", "wo-C", "--out-dir", "z"]]
    for argv, expected in CLI_SURFACE:
        for other in others:
            assert main(other) == 0
        assert main(argv) == 0
        expected = {"command": argv[0], **expected}
        assert parsed[-1][1] == {k: (type(v), v) for k, v in expected.items()}
    assert len({id(parser) for parser, _ in parsed}) == 1


@pytest.mark.parametrize("argv", [
    ["impute", "--grid", "g", "--out", "o", "--threads", "2"],
    ["trace", "--grid", "g", "--trace-out", "t"],
    ["run", "--threads", "2"],
    ["impute", "--grid", "g", "--out", "o", "--scope", "nodes"],
    ["impute", "--grid", "g", "--out", "o", "--variance-mode", "sigma"],
    ["impute", "--grid", "g", "--out", "o", "--anchoring", "pin"],
    ["train-uncond", "--data", "d", "--out", "o", "--variance-mode", "sigma"],
    ["mask", "--nodes", "3", "--length", "4", "--out", "o", "--pattern", "X"],
    ["mask", "--length", "4", "--out", "o"],
])
def test_bad_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_documents_exactly_the_subcommands():
    # every `fence <command>` line of README's command blocks names a
    # subcommand, and every subcommand has one
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    documented = {line.split()[1] for block in blocks for line in block.splitlines()
                  if line.startswith("fence ")}
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)


def test_readme_layout_names_every_module():
    # the Layout table has one row per module of the package, and no other
    root = Path(__file__).resolve().parent.parent
    layout = (root / "README.md").read_text(encoding="utf-8").split("## Layout")[1]
    listed = set(re.findall(r"^\| `(\w+\.py)` \|", layout, flags=re.M))
    modules = {p.name for p in (root / "src" / "fence").glob("*.py")} - {"__init__.py"}
    assert listed == modules


def test_a_bad_cluster_count_is_named_as_the_user_set_it(tmp_path, capsys):
    # argparse parses --clusters, so it names the flag; a config file names the key
    with pytest.raises(SystemExit) as exited:
        main(_oracle_argv(tmp_path, "impute", 3, 0.5) + ["--clusters", "x"])
    assert exited.value.code == 2
    assert "argument --clusters: invalid _clusters value: 'x'" in capsys.readouterr().err
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG + "\n[guidance]\nclusters = x\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for [guidance] clusters: 'x' (expected an integer or auto)\n")


@pytest.mark.parametrize("section, line", [
    ("sampler", "threads = 2"),
    ("guidance", "scope = nodes"),
    ("sampler", "anchoring = pin"),
    ("experiment", "backend = orcale"),
    ("guidance", "lambda_max = inf"),
    ("guidance", "lambda_ref = inf"),
    ("world", "mean = nan"),
    ("guidance", "mode = cfg"),
    ("guidance", "clusters = x"),
    ("DEFAULT", "seed = 7"),
    ("experiment", "backend: oracle"),
    ("experiment", "; note"),
])
def test_bad_config_values_exit_2(tmp_path, section, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{line}\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("alpha_scale", ["1e-320", "1e-310", "inf"])
def test_unusable_alpha_scale_exits_2_without_a_warning(tmp_path, capsys, alpha_scale):
    # 1e-320 is finite, but the update temperature 2 sigma^2 delta / alpha_scale
    # is not; at 1e-310 tau is finite, but tau / sigma_k^2 is not
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG + f"\n[guidance]\nmode = fence\nalpha_scale = {alpha_scale}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []
    assert "[guidance] alpha_scale" in capsys.readouterr().err


def test_small_alpha_scale_still_runs(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG + "\n[guidance]\nmode = fence\nalpha_scale = 1e-3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["impute", "run"])
def test_fence_mode_on_two_diffusion_steps_exits_2_naming_what_works(tmp_path, capsys,
                                                                    command):
    # t1 = 0.5 of K = 2 steps is step 1, where the beta_tilde reverse variance is 0
    def code(steps, variance_mode="beta_tilde"):
        argv = _oracle_argv(tmp_path, command, 3, 0.5)
        if command == "impute":
            argv += ["--steps", steps, "--variance-mode", variance_mode]
        else:
            (tmp_path / "tiny.cfg").write_text(TINY_CONFIG.replace(
                "steps = 8", f"steps = {steps}\nvariance_mode = {variance_mode}"))
        return main(argv)

    assert code("2") == 2
    err = capsys.readouterr().err
    t1 = "--t1" if command == "impute" else "[guidance] t1"
    for part in (f"{t1} = 0.5 falls on step 1 of K = 2", "beta_tilde", "K >= 3",
                 "variance_mode = beta"):
        assert part in err
    assert code("3") == 0
    assert code("2", "beta") == 0


@pytest.mark.parametrize("section, line", [
    ("data", "length = 0"),
    ("data", "length = -3"),
    ("training", "lr_uncond = inf"),
    ("training", "weight_decay_cond = nan"),
    ("training", "weight_decay_uncond = -1"),
    ("world", "mean = nan"),
    ("sampler", "samples = 0"),
    ("sampler", "crps_samples = 1"),
    ("schedule", "steps = 2"),
    ("guidance", "alpha_scale = 1e-320"),
])
def test_unrunnable_neural_values_exit_2_before_training(tmp_path, capsys, monkeypatch,
                                                         section, line):
    monkeypatch.setattr("fence.cli.train_unconditional",
                        lambda *a, **k: pytest.fail("stage 1 started"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[experiment]\nbackend = neural\n\n[{section}]\n{line}\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    key = line.split(" = ")[0].removesuffix("_uncond").removesuffix("_cond")
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("clusters", ["0", "7"])
def test_run_rejects_a_cluster_count_beyond_the_nodes_before_training(
        tmp_path, capsys, monkeypatch, clusters):
    monkeypatch.setattr("fence.cli.train_unconditional",
                        lambda *a, **k: pytest.fail("stage 1 started"))
    cfg = tmp_path / "clusters.cfg"
    cfg.write_text("[experiment]\nbackend = neural\n\n[world]\nnodes = 3\n\n"
                   f"[guidance]\nclusters = {clusters}\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"[guidance] clusters must lie in [1, 3], got {clusters}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("mode", ["fence", "cfg:2", "none"])
def test_every_mode_rejects_a_cluster_count_beyond_the_nodes(tmp_path, capsys, monkeypatch,
                                                             mode):
    # only fence pools over clusters, but every scale law checks the count it
    # is given: `fence run` before training, `fence impute` before sampling
    monkeypatch.setattr("fence.cli.train_unconditional",
                        lambda *a, **k: pytest.fail("stage 1 started"))
    cfg, spec, grid = tmp_path / "c.cfg", tmp_path / "w.spec", tmp_path / "g.csv"
    cfg.write_text("[experiment]\nbackend = neural\n\n[world]\nnodes = 3\n\n"
                   f"[guidance]\nmode = {mode}\nclusters = 4\n")
    spec.write_text(WORLD_SPEC)
    save_grid_csv(grid, np.zeros((3, 4)))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["impute", "--grid", str(grid), "--oracle", str(spec), "--mode", mode,
                 "--clusters", "4", "--steps", "4", "--samples", "2",
                 "--out", str(tmp_path / "i.csv")]) == 2
    assert capsys.readouterr().err == ("error: [guidance] clusters must lie in [1, 3], got 4\n"
                                       "error: --clusters must lie in [1, 3], got 4\n")
    assert not (tmp_path / "o" / "trace.csv").exists() and not (tmp_path / "i.csv").exists()


NEURAL_CONFIG = """\
[experiment]
backend = neural
seed = 5

[world]
nodes = 3
steps = 4
mean = 50
seed = 3

[data]
length = 24

[mask]
alpha = 0.5
patch = 2
seed = 2

[schedule]
steps = 6

[sampler]
samples = 3
crps_samples = 3

[training]
epochs_uncond = 2
epochs_cond = 1
d_model = 8
layers = 1
heads = 2
"""


def test_neural_run_scores_the_samples_it_writes(tmp_path):
    # report.csv's MAE is that of the mean of the trace_sample_*.csv files,
    # which are in data units like the truth
    cfg = tmp_path / "neural.cfg"
    cfg.write_text(NEURAL_CONFIG)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    world = world_from(resolve_config(parse_config_file(cfg)))
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=world.seed)))
    hidden = mask_sr_tc(3, 4, MaskPatternConfig("SR-TC", 0.5, 2, seed=2)).entries == 0
    samples = np.stack([load_grid_csv(out / f"trace_sample_{i}.csv")[0]
                        for i in range(3)])
    mae = np.abs(samples.mean(axis=0) - truth)[hidden].mean()
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("mae,")
    assert float(report[1].split(",")[0]) == pytest.approx(mae, rel=1e-9, abs=0)


def test_neural_run_never_trains_on_its_evaluation_truth(tmp_path, monkeypatch):
    class Captured(Exception):
        pass

    def capture(split, *args, **kwargs):
        raise Captured(split)

    monkeypatch.setattr("fence.cli.train_unconditional", capture)
    cfg = tmp_path / "neural.cfg"
    cfg.write_text("[experiment]\nbackend = neural\n")
    with pytest.raises(Captured) as caught:
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    split = caught.value.args[0]
    world = world_from(resolve_config(parse_config_file(cfg)))
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=world.seed)))
    mean, std = split.normalization
    for values, _ in (split.train, split.validation):
        assert len(values)
        gaps = np.abs(values - (truth - mean) / std).max(axis=(1, 2))
        assert gaps.min() > 1e-3


@pytest.mark.parametrize("length", ["0", "-3"])
def test_nonpositive_synth_length_exits_2(tmp_path, capsys, length):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC)
    assert main(["synth", "--spec", str(spec), "--length", length,
                 "--out", str(tmp_path / "series.csv")]) == 2
    assert "length" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["0", "-2"])
def test_nonpositive_mask_length_exits_2_naming_the_length(tmp_path, capsys, length):
    # the patch is cut to the length, so an unchecked length would be blamed on the patch
    assert main(["mask", "--nodes", "3", "--length", length,
                 "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert f"series length must be >= 1, got {length}" in err and "patch" not in err
    assert not (tmp_path / "m.csv").exists()


def test_repeated_oracle_spec_key_exits_2_naming_its_line(tmp_path, capsys):
    spec = tmp_path / "world.spec"
    spec.write_text(WORLD_SPEC + "nodes = 5\n")
    assert main(["synth", "--spec", str(spec), "--length", "4",
                 "--out", str(tmp_path / "series.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{spec}:7" in err and "'nodes'" in err
    assert not (tmp_path / "series.csv").exists()


@pytest.mark.parametrize("kind, text, line", [
    ("config", "[experiment]\nseed = 1\n\n[nonsense]\nx = 1\n", 4),
    ("config", "# a comment\n[guidance]\nbogus = 1\n", 3),
    ("config", "[world]\nnodes = 3\n  nodes = 4\n", 3),
    ("config", "[world]\nnodes = 3\n[mask]\n[world]\n", 4),
    ("config", "[world]\nnodes 3\n", 2),
    ("config", "\nnodes = 3\n[world]\n", 2),
    ("spec", WORLD_SPEC + "bogus = 1\n", 7),
    ("spec", WORLD_SPEC.replace("mean", "steps = 5\nmean"), 5),
    ("spec", "[world]\n" + WORLD_SPEC, 1),
    ("spec", "nodes = 3\nsteps: 4\n", 2),
], ids=["unknown-section", "unknown-key", "repeated-key", "repeated-section",
        "no-equals", "key-before-header", "spec-unknown-key", "spec-repeated-key",
        "spec-header", "spec-no-equals"])
def test_settings_file_errors_name_their_line(tmp_path, capsys, kind, text, line):
    # a spec has no headers, so an unknown or repeated section there is a header
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    if kind == "config":
        argv = ["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]
    else:
        argv = ["synth", "--spec", str(path), "--length", "4", "--out", str(tmp_path / "s")]
    assert main(argv) == 2
    assert f"{path}:{line}: " in capsys.readouterr().err


def _schema_values(key, parse):
    """Strategy of one SCHEMA key's resolved values."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    if key == "mode":
        return st.sampled_from(["fence", "none"]) | floats.map(lambda x: f"cfg:{x!r}")
    if key == "clusters":
        return st.just("auto") | st.integers(1, 10**6)
    if hasattr(parse, "choices"):
        return st.sampled_from(parse.choices)
    if parse is float:
        return floats
    if parse is int:
        return st.integers(-10**9, 10**9)
    return st.integers(0, 2**64 - 1)  # seeds


def test_resolved_config_reads_back_unchanged(tmp_path):
    path = tmp_path / "config.resolved"
    configs = st.fixed_dictionaries({
        section: st.fixed_dictionaries({key: _schema_values(key, parse)
                                        for key, (parse, _, _) in keys.items()})
        for section, keys in SCHEMA.items()})

    @settings(max_examples=100, deadline=None)
    @given(configs)
    def check(cfg):
        path.write_text(format_resolved(cfg), encoding="utf-8")
        assert resolve_config(parse_config_file(path)) == cfg

    check()


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0])


@pytest.mark.parametrize("build, runnable", [
    (lambda x: TrainConfig(lr=x), lambda x: 0.0 < x < math.inf),
    (lambda x: TrainConfig(weight_decay=x), lambda x: 0.0 <= x < math.inf),
    (lambda x: GuidanceConfig(lambda_max=x), lambda x: 1.0 <= x < math.inf),
    (lambda x: GuidanceConfig(lambda_ref=x), lambda x: 1.0 < x < math.inf),
    (lambda x: GuidanceConfig(alpha_scale=x), lambda x: 0.0 < x < math.inf),
    (lambda x: make_gaussian_world(2, 3, 0.5, 0.6, mean=x), math.isfinite),
], ids=["lr", "weight_decay", "lambda_max", "lambda_ref", "alpha_scale", "world_mean"])
def test_unrunnable_numbers_are_rejected_at_construction(build, runnable):
    @settings(max_examples=200, deadline=None)
    @given(FLOATS)
    def check(x):
        if runnable(x):
            build(x)
        else:
            with pytest.raises(InvalidInputError):
                build(x)

    check()


def test_series_shorter_than_a_training_window_exits_2(tmp_path):
    data = tmp_path / "short.csv"
    save_grid_csv(data, np.zeros((3, 15)))  # 9-slice training segment, window 12
    assert main(["train-uncond", "--data", str(data), "--out", str(tmp_path / "m.fence"),
                 "--epochs", "1"]) == 2


def _series(tmp_path, steps, seed=0):
    data = tmp_path / "series.csv"
    save_grid_csv(data, np.random.default_rng(seed).standard_normal((3, steps)))
    return data


def test_divergent_training_exits_4_without_a_checkpoint(tmp_path, capsys):
    out = tmp_path / "m.fence"
    assert main(["train-uncond", "--data", str(_series(tmp_path, 60)), "--window", "4",
                 "--lr", "1e18", "--d-model", "4", "--layers", "1", "--heads", "2",
                 "--epochs", "2", "--out", str(out)]) == 4
    assert "diverged at step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-uncond", "impute"])
def test_divergence_prints_only_its_error_line(tmp_path, capsys, command):
    # both loops turn a non-finite value into a DivergenceError, so numpy's
    # overflow warnings on the way there would only repeat it
    if command == "train-uncond":
        argv = ["train-uncond", "--data", str(_series(tmp_path, 60)), "--window", "4",
                "--lr", "1e18", "--d-model", "4", "--layers", "1", "--heads", "2",
                "--out", str(tmp_path / "m.fence")]
    else:
        argv = _impute_grid_argv(tmp_path, ["0.5", ""] * 6)
        argv += ["--mode", "cfg:1e300", "--steps", "6"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 4
    assert [str(w.message) for w in caught] == []
    assert re.fullmatch(r"error: diverged at step \d+: [^\n]+\n", capsys.readouterr().err)


def test_finetune_without_init_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "m.fence"
    assert _exit_code(["finetune-cond", "--data", str(_series(tmp_path, 40)),
                       "--out", str(out)]) == 2
    assert "--init" in capsys.readouterr().err
    assert not out.exists()


def _stage1(tmp_path, data):
    """A one-epoch stage-1 checkpoint of a 6-wide, one-layer network on ``data``."""
    init = tmp_path / "s1.fence"
    assert main(["train-uncond", "--data", str(data), "--window", "4", "--d-model", "6",
                 "--layers", "1", "--heads", "2", "--epochs", "1", "--out", str(init)]) == 0
    return init


def test_finetune_on_another_node_count_exits_2_before_the_split(tmp_path, capsys,
                                                                  monkeypatch):
    data6, data4 = tmp_path / "six.csv", tmp_path / "four.csv"
    save_grid_csv(data6, np.random.default_rng(0).standard_normal((6, 40)))
    save_grid_csv(data4, np.random.default_rng(1).standard_normal((4, 40)))
    init = _stage1(tmp_path, data6)
    capsys.readouterr()
    monkeypatch.setattr("fence.cli._training_split", None)  # never reached
    out = tmp_path / "s2.fence"
    assert main(["finetune-cond", "--data", str(data4), "--window", "4", "--init", str(init),
                 "--epochs", "1", "--out", str(out)]) == 2
    assert f"{init} was built for 6 nodes, the grid has 4" in capsys.readouterr().err
    assert not out.exists()


def test_finetune_normalizes_with_the_statistics_of_its_init(tmp_path):
    # stage 2 trains on a series of other mean and spread than stage 1's; its
    # checkpoint keeps stage 1's normalization, so impute accepts the pair
    rng = np.random.default_rng(3)
    data1, data2 = tmp_path / "one.csv", tmp_path / "two.csv"
    save_grid_csv(data1, rng.standard_normal((3, 40)))
    save_grid_csv(data2, 50.0 + 7.0 * rng.standard_normal((3, 40)))
    init, out = _stage1(tmp_path, data1), tmp_path / "s2.fence"
    assert main(["finetune-cond", "--data", str(data2), "--window", "4", "--init", str(init),
                 "--epochs", "1", "--out", str(out)]) == 0
    stage1, stage2 = load_checkpoint(init), load_checkpoint(out)
    for key in ("norm/mean", "norm/std"):
        assert stage2[key].tobytes() == stage1[key].tobytes(), key
    assert main(["impute", "--grid", str(data2), "--checkpoint-uncond", str(init),
                 "--checkpoint-cond", str(out), "--steps", "4", "--samples", "2",
                 "--out", str(tmp_path / "imputed.csv")]) == 0


@pytest.mark.parametrize("shape_flags, code", [
    ([], 0),                                             # not given: the checkpoint's
    (["--d-model", "6", "--layers", "1", "--heads", "2"], 0),  # equal to the checkpoint's
    (["--d-model", "16"], 2),                            # the default, not the checkpoint's
    (["--layers", "2"], 2),
    (["--heads", "3", "--d-model", "6"], 2),
], ids=["absent", "equal", "d-model", "layers", "heads"])
def test_finetune_with_init_rejects_a_shape_flag_that_differs(tmp_path, capsys,
                                                              shape_flags, code):
    data, out = _series(tmp_path, 40), tmp_path / "s2.fence"
    init = _stage1(tmp_path, data)
    capsys.readouterr()
    assert main(["finetune-cond", "--data", str(data), "--window", "4", "--init", str(init),
                 "--epochs", "1", "--out", str(out), *shape_flags]) == code
    if code:
        flag, given = shape_flags[:2]
        shape = {"--d-model": 6, "--layers": 1, "--heads": 2}[flag]
        assert f"{flag} {given} differs from the {shape} of the --init checkpoint" in (
            capsys.readouterr().err)
        assert not out.exists()
    else:
        assert load_checkpoint(out).keys() == load_checkpoint(init).keys()


def test_fence_impute_without_a_conditional_checkpoint_exits_2(tmp_path, capsys):
    grid, ckpt = tmp_path / "grid.csv", tmp_path / "uncond.fence"
    save_grid_csv(grid, np.zeros((3, 4)))
    _save_neural_checkpoint(ckpt, 0.0, 1.0)
    out = tmp_path / "out.csv"
    assert main(["impute", "--grid", str(grid), "--checkpoint-uncond", str(ckpt),
                 "--mode", "fence", "--out", str(out)]) == 2
    assert "--checkpoint-cond" in capsys.readouterr().err
    assert not out.exists()


def test_training_mask_of_another_shape_exits_3(tmp_path):
    mask = tmp_path / "mask.csv"
    save_mask_csv(mask, np.ones((3, 30), dtype=np.int64))
    assert main(["train-uncond", "--data", str(_series(tmp_path, 40)), "--mask", str(mask),
                 "--window", "4", "--epochs", "1", "--out", str(tmp_path / "m.fence")]) == 3


def test_validation_segment_shorter_than_the_window_monitors_the_training_loss(
        tmp_path, monkeypatch):
    # 40 slices leave an 8-slice validation segment, shorter than the window 12
    results = []

    def recording(*args, **kwargs):
        results.append(train_unconditional(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("fence.cli.train_unconditional", recording)
    out = tmp_path / "m.fence"
    assert main(["train-uncond", "--data", str(_series(tmp_path, 40)), "--window", "12",
                 "--d-model", "4", "--layers", "1", "--heads", "2", "--epochs", "3",
                 "--lr", "3e-2", "--out", str(out)]) == 0
    result, = results
    assert np.isnan(result.val_losses).all()
    # a monitored NaN validation loss would never improve and leave best_epoch at -1
    assert result.best_epoch == int(np.argmin(result.train_losses))
    assert out.exists()


def test_series_with_no_spread_exits_3(tmp_path, capsys):
    data = tmp_path / "const.csv"
    save_grid_csv(data, np.full((3, 40), 5.0))
    assert main(["train-uncond", "--data", str(data), "--window", "4", "--epochs", "1",
                 "--out", str(tmp_path / "m.fence")]) == 3
    assert "no spread" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["fence", "cfg:1"])
def test_beta_1_that_rounds_to_no_noise_exits_2(tmp_path, capsys, mode):
    # 1 - 1e-17 is 1.0 in float64, so alpha_bar_1 = 1 and sigma^2_2 = 0
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG.replace("[schedule]\n", "[schedule]\nbeta1 = 1e-17\n")
                   + f"\n[guidance]\nmode = {mode}\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "beta_1 = 1e-17" in capsys.readouterr().err
    grid, spec = tmp_path / "grid.csv", tmp_path / "world.spec"
    save_grid_csv(grid, np.ones((3, 4)))
    spec.write_text(WORLD_SPEC)
    assert main(["impute", "--grid", str(grid), "--oracle", str(spec), "--beta1", "1e-17",
                 "--mode", mode, "--out", str(tmp_path / "out.csv")]) == 2
    assert "beta_1 = 1e-17" in capsys.readouterr().err


@pytest.mark.parametrize("anchoring", ["free", "clamp"])
@pytest.mark.parametrize("backend", ["oracle", "neural"])
def test_hidden_cells_never_reach_a_backend(backend, anchoring):
    # the sampler's context zeroes every hidden cell, so whatever a hidden
    # cell holds changes no bit of the result
    sched = quadratic_schedule(6)
    if backend == "oracle":
        oracle = OracleBackend(make_gaussian_world(3, 4, 0.5, 0.6, mean=1.0, seed=2), sched)
        backends = (oracle, oracle, 0.0, 1.0)
    else:
        net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
        backends = (NeuralDenoiser(net, seed=1), NeuralDenoiser(net, seed=0), 50.0, 4.0)
    rng = np.random.Generator(np.random.Philox(key=8))
    mask = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.float64)
    observed = np.where(mask == 1, 50.0 + 4.0 * rng.standard_normal((3, 4)), 0.0)
    filled = np.where(mask == 1, observed, rng.uniform(-1e3, 1e3, (3, 4)))
    law = scale_law(GuidanceConfig(), sched)
    zero, noise = (_impute_in_data_units(backends, v, mask, sched, law,
                                         n_samples=3, seed=5, anchoring=anchoring)
                   for v in (observed, filled))
    for f in fields(ImputationResult):
        assert getattr(zero, f.name).tobytes() == getattr(noise, f.name).tobytes(), f.name


# arbitrary text, and bytes that need not decode as UTF-8 at all
FILE_BYTES = st.text().map(str.encode) | st.binary()


@pytest.mark.parametrize("fuzzed", ["grid", "mask", "oracle"])
def test_arbitrary_impute_input_exits_0_2_or_3(tmp_path, fuzzed):
    files = {"grid": "t0,t1,t2,t3\n" + "0.5,,1.5,-2\n" * 3,
             "mask": "t0,t1,t2,t3\n" + "1,0,0,1\n" * 3,
             "oracle": WORLD_SPEC}
    argv = ["impute", "--out", str(tmp_path / "out.csv"), "--steps", "4", "--samples", "1"]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        argv += [f"--{name}", str(tmp_path / name)]
    assert main(argv) == 0

    @settings(max_examples=150, deadline=None)
    @given(FILE_BYTES)
    def check(payload):
        (tmp_path / fuzzed).write_bytes(payload)
        assert main(argv) in (0, 2, 3)

    check()


def test_arbitrary_run_config_exits_0_2_or_3(tmp_path):
    # the text is appended to a tiny config, so a tail that parses keeps the run small
    cfg = tmp_path / "fuzz.cfg"

    @settings(max_examples=150, deadline=None)
    @given(FILE_BYTES)
    def check(tail):
        cfg.write_bytes(TINY_CONFIG.encode() + tail)
        argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        assert main(argv) in (0, 2, 3)

    check()


WARM_PREDICTS = """
import json, resource, sys
import numpy as np
import fence.cli
from fence import ConditioningContext, NetConfig, NeuralDenoiser

assert fence.cli.main(["mask", "--nodes", "2", "--length", "4", "--out", sys.argv[1]]) == 0
model = NeuralDenoiser(NetConfig(n_nodes=6), seed=3)
rng = np.random.default_rng(0)
x = rng.standard_normal((50, 6, 12))
ctx = ConditioningContext(rng.standard_normal((6, 12)), rng.integers(0, 2, (6, 12)))
for _ in range(2):
    model.predict(x, 10, ctx)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    model.predict(x, 10, ctx)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"mallopt": fence.cli._keep_freed_memory(), "faults": faults}))
"""


@pytest.mark.parametrize("library", [OSError("no C library"), object()])
def test_keep_freed_memory_returns_none_without_mallopt(monkeypatch, library):
    # a C library that cannot be opened, or one without mallopt, sets no policy
    def cdll(name):
        if isinstance(library, OSError):
            raise library
        return library

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    _keep_freed_memory.cache_clear()
    try:
        assert _keep_freed_memory() is None
    finally:
        _keep_freed_memory.cache_clear()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_main_keeps_freed_heap_memory_for_the_next_forward(tmp_path):
    # without the policy glibc trims the heap after each forward and faults
    # it in again: 35k-40k minor faults over these 20 predicts
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", WARM_PREDICTS, str(tmp_path / "m.csv")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["mallopt"] == [1, 1]
    assert got["faults"] < 100
