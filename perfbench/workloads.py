"""The three benchmark workloads: inputs, operations and output checks.

Every input the program sees (grid and mask CSVs, oracle specs, configs and
training series) is generated here from the workload seed, with numpy and
none of the program's own code, so a change to the program cannot change
its inputs. The program is used only for the reference values that judge
its outputs: the exact Schur conditional mean from
``GaussianOracleWorld.conditional_moments()`` and, for ``fence run``, the
truth draw and mask that the command makes from its config.

An operation is a list of ``fence`` command lines plus the check of what
they wrote. Operations are grouped in rounds; one pass over every round is
a cycle, and a run always completes its first cycle. Quality numbers come
from that first cycle only, so they depend on the seed and not on how many
operations fit in the time budget.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("oracle-windows", "oracle-ensemble", "neural-staged")

# Strong correlations, so the exact conditional mean is far better than
# zero-fill and the output check can tell a working imputer from a broken one.
ORACLE_WORLD = {"nodes": 20, "steps": 24, "rho_s": 0.8, "rho_t": 0.95, "mean": 0.0}
# The program's default world; with N=6 the automatic cluster count is 1.
NEURAL_WORLD = {"nodes": 6, "steps": 12, "rho_s": 0.6, "rho_t": 0.8, "mean": 0.0}

DIFFUSION_STEPS = 50
ORACLE_SAMPLES = 10
CRPS_SAMPLES = 100
CLUSTERS = 3
MISSING_RATES = (0.3, 0.5, 0.7, 0.9)
WINDOW_PATCH = 12
WINDOW_ROUNDS = 3            # 3 rounds x 4 missing rates = 12 windows
ENSEMBLE_MISSING = 0.5
NEURAL_LENGTH = 240
NEURAL_EPOCHS = (12, 6)      # stage 1, stage 2; early stopping is off
NEURAL_SAMPLES = 50
NEURAL_PATCH = 4
NEURAL_MISSING = 0.5

# An oracle imputation passes when its hidden-cell MAE is at most this
# multiple of the exact conditional mean's MAE on the same cells. Over 72
# windows of this workload (seeds 100-105) the fence sampler's ratio
# averaged 1.19 and peaked at 1.98; zero-fill averaged 2.2 to 2.5 where 30 %
# of the cells were missing.
MAE_FACTOR = 2.5
# Relative agreement between a metric the program reports and the same
# metric recomputed here from the files it wrote.
REPORT_RTOL = 1e-9


# -- generation helpers -------------------------------------------------------

def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


def kronecker_cov(world: dict) -> np.ndarray:
    """Ring-hop spatial kernel times AR temporal kernel, node-major."""
    n, t = world["nodes"], world["steps"]
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    hops = np.minimum(diff, n - diff)
    lags = np.abs(np.arange(t)[:, None] - np.arange(t)[None, :])
    return np.kron(world["rho_s"] ** hops, world["rho_t"] ** lags)


def draw_grids(world: dict, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    chol = np.linalg.cholesky(kronecker_cov(world))
    n, t = world["nodes"], world["steps"]
    return [(world["mean"] + chol @ rng.standard_normal(n * t)).reshape(n, t)
            for _ in range(count)]


def block_mask(n: int, t: int, patch: int, rate: float, rng: np.random.Generator,
               communities: int | None = None) -> np.ndarray:
    """1 = observed. Hides whole temporal patches, per node (SR-TC) or per
    block of ring-adjacent nodes (SC-TC); keeps at least one observed and
    one hidden cell so both the imputation and its MAE are defined."""
    starts = range(0, t, patch)
    while True:
        mask = np.ones((n, t), dtype=np.int64)
        groups = ([[i] for i in range(n)] if communities is None
                  else np.array_split(np.arange(n), communities))
        for lo in starts:
            for members in groups:
                if rng.random() < rate:
                    mask[members, lo:lo + patch] = 0
        if 0 < mask.sum() < mask.size:
            return mask


def write_grid_csv(path: Path, values: np.ndarray, mask: np.ndarray | None = None) -> None:
    """The program's grid format: header t0..t{T-1}; a blank cell is missing."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([f"t{j}" for j in range(values.shape[1])])
        for i, row in enumerate(values):
            out.writerow("" if mask is not None and not mask[i, j] else repr(float(v))
                         for j, v in enumerate(row))


def write_mask_csv(path: Path, mask: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([f"t{j}" for j in range(mask.shape[1])])
        out.writerows([[str(int(v)) for v in row] for row in mask])


def write_spec(path: Path, world: dict, seed: int) -> None:
    lines = [f"{k} = {world[k]!r}" for k in ("nodes", "steps", "rho_s", "rho_t", "mean")]
    path.write_text("\n".join(lines + [f"seed = {seed}"]) + "\n", encoding="utf-8")


def exact_mean(spec_path: Path, truth: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Schur conditional mean of the spec's world given the observed cells."""
    from fence.config import load_world_spec
    from fence.world import observations_from_mask

    world = load_world_spec(spec_path)
    idx, vals = observations_from_mask(truth, mask)
    return world.observe(idx, vals).conditional_moments()[0].reshape(truth.shape)


def hidden_mae(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    hidden = mask == 0
    return float(np.abs(pred[hidden] - truth[hidden]).mean())


def references(pred_exact: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> dict:
    return {"mae_exact": hidden_mae(pred_exact, truth, mask),
            "mae_zero_fill": hidden_mae(np.zeros_like(truth), truth, mask)}


# -- workloads ----------------------------------------------------------------

def build(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of one workload under ``root``; return its plan.

    A plan is JSON: ``rounds``, lists of operations, of which a traced run
    repeats the first with tracing off and on. An operation has its command
    lines, the directory they write to (emptied before each repetition, so a
    check never reads a stale file) and its check.
    """
    root.mkdir(parents=True, exist_ok=True)
    builders = {"oracle-windows": _windows, "oracle-ensemble": _ensemble,
                "neural-staged": _neural}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](seed, root)


def _windows(seed: int, root: Path) -> dict:
    n, t = ORACLE_WORLD["nodes"], ORACLE_WORLD["steps"]
    spec = root / "world.spec"
    write_spec(spec, ORACLE_WORLD, seed)
    truths = draw_grids(ORACLE_WORLD, rng_for(seed, 1), WINDOW_ROUNDS * len(MISSING_RATES))
    rounds = []
    for r in range(WINDOW_ROUNDS):
        ops = []
        for j, rate in enumerate(MISSING_RATES):
            i = r * len(MISSING_RATES) + j
            d = root / f"w{i:02d}"
            d.mkdir()
            truth = truths[i]
            # SR-TC and SC-TC alternate by round
            mask = block_mask(n, t, WINDOW_PATCH, rate, rng_for(seed, 2, i),
                              communities=None if r % 2 == 0 else 4)
            write_grid_csv(d / "grid.csv", truth, mask)
            write_mask_csv(d / "mask.csv", mask)
            np.save(d / "truth.npy", truth)
            np.save(d / "mask.npy", mask)
            argv = ["impute", "--grid", str(d / "grid.csv"), "--mask", str(d / "mask.csv"),
                    "--oracle", str(spec), "--out", str(d / "out" / "out.csv"),
                    "--samples", str(ORACLE_SAMPLES), "--steps", str(DIFFUSION_STEPS),
                    "--mode", "fence", "--clusters", str(CLUSTERS), "--seed", str(seed + i)]
            ops.append({
                "id": f"window-{i:02d}", "steps": [["window", argv]], "out": str(d / "out"),
                "check": {"kind": "window", "dir": str(d), "out": str(d / "out"),
                          **references(exact_mean(spec, truth, mask), truth, mask)},
            })
        rounds.append(ops)
    return {"rounds": rounds}


def _ensemble(seed: int, root: Path) -> dict:
    w = ORACLE_WORLD
    cfg = root / "experiment.cfg"
    out = root / "out"
    cfg.write_text(
        "[experiment]\nbackend = oracle\nseed = {s}\n\n"
        "[world]\nnodes = {nodes}\nsteps = {steps}\nrho_s = {rho_s!r}\nrho_t = {rho_t!r}\n"
        "mean = {mean!r}\nseed = {s}\n\n"
        "[mask]\npattern = SR-TC\nalpha = {alpha!r}\npatch = {patch}\nseed = {s}\n\n"
        "[schedule]\nsteps = {k}\n\n"
        "[guidance]\nmode = fence\nscope = cluster\nclusters = {c}\n\n"
        "[sampler]\nsamples = {samples}\ncrps_samples = {crps}\n".format(
            s=seed, alpha=ENSEMBLE_MISSING, patch=WINDOW_PATCH, k=DIFFUSION_STEPS,
            c=CLUSTERS, samples=ORACLE_SAMPLES, crps=CRPS_SAMPLES, **w),
        encoding="utf-8")
    truth, mask = _run_truth_and_mask(cfg)
    spec = root / "world.spec"
    write_spec(spec, w, seed)
    np.save(root / "truth.npy", truth)
    np.save(root / "mask.npy", mask)
    argv = ["run", "--config", str(cfg), "--out-dir", str(out)]
    op = {"id": "run", "steps": [["run", argv]], "out": str(out),
          "check": {"kind": "run", "dir": str(root), "out": str(out),
                    "samples": ORACLE_SAMPLES,
                    "trace_rows": ORACLE_SAMPLES * DIFFUSION_STEPS * w["nodes"],
                    **references(exact_mean(spec, truth, mask), truth, mask)}}
    return {"rounds": [[op]]}


def _run_truth_and_mask(cfg_path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The truth draw and mask that ``fence run`` makes from this config,
    rebuilt through the program's public API. The run check confirms them:
    the MAE recomputed from the written samples must equal the report's."""
    from fence.config import parse_config_file, resolve_config, world_from
    from fence.masking import MaskPatternConfig, mask_sr_tc

    cfg = resolve_config(parse_config_file(cfg_path))
    world = world_from(cfg)
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=world.seed)))
    m = cfg["mask"]
    pattern = MaskPatternConfig(m["pattern"], m["alpha"], min(m["patch"], world.n_steps),
                                None, m["seed"])
    return truth, mask_sr_tc(world.n_nodes, world.n_steps, pattern).entries


def _neural(seed: int, root: Path) -> dict:
    w = NEURAL_WORLD
    n, t = w["nodes"], w["steps"]
    blocks = draw_grids(w, rng_for(seed, 1), NEURAL_LENGTH // t + 1)
    series, truth = np.concatenate(blocks[:-1], axis=1), blocks[-1]
    mask = block_mask(n, t, NEURAL_PATCH, NEURAL_MISSING, rng_for(seed, 2))
    write_grid_csv(root / "series.csv", series)
    write_grid_csv(root / "heldout.csv", truth, mask)
    write_mask_csv(root / "heldout_mask.csv", mask)
    write_grid_csv(root / "truth.csv", truth)
    write_mask_csv(root / "eval_mask.csv", 1 - mask)
    spec = root / "world.spec"
    write_spec(spec, w, seed)
    np.save(root / "truth.npy", truth)
    np.save(root / "mask.npy", mask)

    def p(name):
        return str(root / name)

    def o(name):
        return str(root / "out" / name)

    net = ["--window", str(t), "--batch", "8", "--d-model", "16", "--layers", "2",
           "--heads", "2", "--steps", str(DIFFUSION_STEPS), "--patience", "0",
           "--seed", str(seed)]
    steps = [
        ["train", ["train-uncond", "--data", p("series.csv"), "--out", o("stage1.fence"),
                   "--epochs", str(NEURAL_EPOCHS[0]), *net]],
        ["train", ["finetune-cond", "--data", p("series.csv"), "--init", o("stage1.fence"),
                   "--out", o("stage2.fence"), "--epochs", str(NEURAL_EPOCHS[1]), *net]],
        ["impute", ["impute", "--grid", p("heldout.csv"), "--mask", p("heldout_mask.csv"),
                    "--checkpoint-uncond", o("stage1.fence"),
                    "--checkpoint-cond", o("stage2.fence"), "--out", o("imputed.csv"),
                    "--trace-out", o("trace.csv"), "--samples", str(NEURAL_SAMPLES),
                    "--steps", str(DIFFUSION_STEPS), "--mode", "fence",
                    "--seed", str(seed)]],
        ["impute", ["evaluate", "--pred", o("imputed.csv"), "--truth", p("truth.csv"),
                    "--eval-mask", p("eval_mask.csv"), "--ensemble-prefix", o("trace"),
                    "--out", o("report.csv")]],
    ]
    op = {"id": "pipeline", "steps": steps, "out": p("out"),
          "check": {"kind": "neural", "dir": str(root), "out": p("out"),
                    "samples": NEURAL_SAMPLES,
                    "trace_rows": NEURAL_SAMPLES * DIFFUSION_STEPS * n,
                    **references(exact_mean(spec, truth, mask), truth, mask)}}
    return {"rounds": [[op]]}


# -- output checks ------------------------------------------------------------

class CheckFailed(Exception):
    """An output of an operation is missing, malformed or wrong."""


def read_grid(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """Parse a grid CSV independently of the program; demand finite values
    and the expected shape."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if not rows or rows[0] != [f"t{j}" for j in range(shape[1])]:
        raise CheckFailed(f"{path.name}: bad header")
    try:
        values = np.array([[float(c) for c in row] for row in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if values.shape != shape:
        raise CheckFailed(f"{path.name}: shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise CheckFailed(f"{path.name}: non-finite values")
    return values


def read_report(path: Path) -> dict[str, float]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        report = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
    except (OSError, IndexError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    for key in ("mae", "crps"):
        if not math.isfinite(report.get(key, math.nan)):
            raise CheckFailed(f"{path.name}: {key} missing or not finite")
    return report


def _trace_rows(path: Path, check: dict) -> None:
    """One data row per (trajectory, step, node): S * K * N."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if rows != check["trace_rows"]:
        raise CheckFailed(f"{path.name} has {rows} data rows, expected {check['trace_rows']}")


def _samples(trace: Path, expected: int, shape) -> np.ndarray:
    files = sorted(trace.parent.glob(trace.stem + "_sample_*.csv"))
    if len(files) != expected:
        raise CheckFailed(f"{len(files)} sample files, expected {expected}")
    return np.stack([read_grid(f, shape) for f in files])


def _agree(reported: float, recomputed: float, what: str) -> None:
    if not math.isclose(reported, recomputed, rel_tol=REPORT_RTOL, abs_tol=1e-12):
        raise CheckFailed(f"reported {what} {reported!r} but the outputs give {recomputed!r}")


def _within_factor(mae: float, check: dict) -> None:
    if not mae <= MAE_FACTOR * check["mae_exact"]:
        raise CheckFailed(f"MAE {mae:.4f} exceeds {MAE_FACTOR} x exact {check['mae_exact']:.4f}")


def check_op(check: dict) -> dict:
    """Verify what one operation wrote. Returns its quality numbers, or
    raises CheckFailed."""
    d = Path(check["dir"])
    truth, mask = np.load(d / "truth.npy"), np.load(d / "mask.npy")
    shape = truth.shape
    out = Path(check["out"])
    if check["kind"] == "window":
        mae = hidden_mae(read_grid(out / "out.csv", shape), truth, mask)
        _within_factor(mae, check)
        return {"mae": mae, "outputs": [out / "out.csv"]}
    if check["kind"] == "run":
        report = read_report(out / "report.csv")
        _trace_rows(out / "trace.csv", check)
        samples = _samples(out / "trace.csv", check["samples"], shape)
        _agree(report["mae"], hidden_mae(samples.mean(axis=0), truth, mask), "mae")
        _within_factor(report["mae"], check)
        return {"mae": report["mae"], "crps": report["crps"],
                "outputs": sorted(out.iterdir())}
    report = read_report(out / "report.csv")
    _trace_rows(out / "trace.csv", check)
    _samples(out / "trace.csv", check["samples"], shape)
    for ckpt in ("stage1.fence", "stage2.fence"):
        if not (out / ckpt).is_file() or (out / ckpt).stat().st_size == 0:
            raise CheckFailed(f"{ckpt} missing or empty")
    _agree(report["mae"], hidden_mae(read_grid(out / "imputed.csv", shape), truth, mask),
           "mae")
    return {"mae": report["mae"], "crps": report["crps"], "outputs": sorted(out.iterdir())}


def digests(paths) -> dict[str, str]:
    """sha256 of each output file, keyed by its name relative to the
    workload's input directory."""
    out = {}
    for p in paths:
        p = Path(p)
        out[f"{p.parent.name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out

