"""Command-line pipeline: synth, mask, train, impute, evaluate, run.

Every grid CSV the commands read or write is in data units; only
``_impute_in_data_units`` sees a network's model units (x - mean) / std.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 numerical divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .backends import OracleBackend
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (PRESETS, SCHEMA, STAGES, guidance_from, load_world_spec,
                     network_from, parse_config_file, read_world_spec, resolve_config,
                     schedule_from, setting, training_from, world_from, write_resolved)
from .errors import ConfigError, DataError, DivergenceError, InvalidInputError
from .grid import (DatasetSplit, MaskMatrix, TrafficGrid, chronological_split,
                   load_grid_csv, load_mask_csv, observed_stats, save_grid_csv,
                   save_mask_csv, sliding_windows)
from .masking import MaskPatternConfig, mask_sc_tc, mask_sr_tc, ring_communities
from .metrics import crps_masked, point_metrics
from .neural import NeuralDenoiser
from .sampler import emit_trace, impute, scale_law
from .training import finetune_conditional, train_unconditional

__all__ = ["main"]


# -- flags generated from SCHEMA ----------------------------------------------

# (section, keys or None for all) whose SCHEMA keys become flags
_SAMPLING = (("schedule", None), ("guidance", None))
_IMPUTE_FLAGS = (("experiment", ("seed",)), ("sampler", ("samples", "anchoring")),
                 *_SAMPLING)
_TRAIN_FLAGS = (("data", ("stride",)), ("training", None), ("schedule", None))
_MASK_FLAGS = (("mask", None),)


def _flag_keys(groups, stage=None):
    """(section, SCHEMA key, argparse dest) of every generated flag.

    [training] keys of the other stage are skipped and the own stage's
    suffix is dropped, so both train commands take --epochs, --lr, ...
    """
    for section, only in groups:
        for key in only or SCHEMA[section]:
            base, _, suffix = key.rpartition("_")
            if suffix not in STAGES:
                yield section, key, key
            elif suffix == stage:
                yield section, key, base


def _add_schema_args(parser, groups, stage=None):
    for section, key, dest in _flag_keys(groups, stage):
        parse, default, help_text = SCHEMA[section][key]
        kind = {"choices": parse.choices} if hasattr(parse, "choices") else {"type": parse}
        parser.add_argument(setting(section, dest, flags=True), default=default,
                            help=help_text, **kind)


def _check_range(cfg, section: str, key: str, lo, hi, rule: str, *, flags: bool) -> None:
    """ConfigError naming the setting as the user set it (``setting``)
    unless lo <= its value <= hi."""
    value = cfg[section][key]
    if not lo <= value <= hi:
        raise ConfigError(f"{setting(section, key, flags=flags)} must {rule}, got {value}")


def _cfg_from(args, groups, stage=None) -> dict:
    """The config sections behind the generated flags, keyed as in SCHEMA."""
    cfg: dict[str, dict] = {}
    for section, key, dest in _flag_keys(groups, stage):
        cfg.setdefault(section, {})[key] = getattr(args, dest)
    return cfg


def _check_length(length: int) -> None:
    if length < 1:
        raise InvalidInputError(f"series length must be >= 1, got {length}")


def _synth_series(world, length: int, rng: np.random.Generator) -> np.ndarray:
    """Concatenate independent world draws into an N x length series."""
    _check_length(length)
    reps = math.ceil(length / world.n_steps)
    blocks = [world.sample_clean(rng) for _ in range(reps)]
    return np.concatenate(blocks, axis=1)[:, :length]


def _load_masked(path, mask_path) -> tuple[np.ndarray, np.ndarray]:
    """Grid values and mask entries, with the optional mask CSV applied and
    every unobserved cell zero-filled."""
    values, entries = load_grid_csv(path)
    if mask_path:
        extra = load_mask_csv(mask_path)
        if extra.shape != entries.shape:
            raise DataError(f"--mask shape {extra.shape} vs grid {entries.shape}")
        entries = entries * extra
    return np.where(entries == 1, values, 0.0), entries


def _training_split(series, entries, window: int, stride: int,
                    stats: tuple[float, float] | None = None) -> DatasetSplit:
    """Chronological train/validation windows, normalized by ``stats`` or by
    the observed entries of the training segment."""
    seg_values = chronological_split(series)
    seg_masks = chronological_split(entries)
    # a window the training segment cannot hold is a settings error, whatever the data
    if seg_values[0].shape[1] < window:
        raise InvalidInputError(f"the training segment has {seg_values[0].shape[1]} slices,"
                                f" fewer than the window {window}")
    mean, std = stats or observed_stats(seg_values[0], seg_masks[0])

    def windows(values, mask, step):
        if values.shape[1] < window:
            empty = np.empty((0, len(values), window))
            return empty, empty
        return (sliding_windows((values - mean) / std, window, step),
                sliding_windows(mask, window, step))

    return DatasetSplit(train=windows(seg_values[0], seg_masks[0], stride),
                        validation=windows(seg_values[1], seg_masks[1], window),
                        normalization=(mean, std))


# -- subcommands --------------------------------------------------------------

def cmd_synth(args) -> int:
    world = load_world_spec(args.spec)
    rng = np.random.Generator(np.random.Philox(key=world.seed))
    series = _synth_series(world, args.length, rng)
    save_grid_csv(args.out, series)
    print(f"wrote {world.n_nodes}x{args.length} series to {args.out}")
    return 0


def _make_mask(cfg: dict, n_nodes: int, length: int, *, flags: bool) -> np.ndarray:
    """The entries of the [mask] section's mask of an n_nodes x length grid:
    SR-TC, or SC-TC over the communities of a ring. The patch is cut to the
    series length. An unusable setting is named as the user set it."""
    m = cfg["mask"]
    _check_length(length)
    if n_nodes < 1:
        raise InvalidInputError(f"node count must be >= 1, got {n_nodes}")
    # SC-TC needs 1 to N communities; SR-TC reads none, and 0 stands for none
    communities = ((1, n_nodes, f"lie in [1, {n_nodes}] for SC-TC on {n_nodes} nodes")
                   if m["pattern"] == "SC-TC" else (0, math.inf, "be >= 0"))
    for key, lo, hi, rule in (("alpha", 0.0, 1.0, "lie in [0, 1]"),
                              ("patch", 1, math.inf, "be >= 1"),
                              ("communities", *communities)):
        _check_range(cfg, "mask", key, lo, hi, rule, flags=flags)
    pattern = MaskPatternConfig(m["pattern"], m["alpha"], min(m["patch"], length),
                                m["communities"] or None, m["seed"])
    if pattern.pattern == "SC-TC":
        return mask_sc_tc(ring_communities(n_nodes, pattern), length, pattern).entries
    return mask_sr_tc(n_nodes, length, pattern).entries


def cmd_mask(args) -> int:
    mask = _make_mask(_cfg_from(args, _MASK_FLAGS), args.nodes, args.length, flags=True)
    save_mask_csv(args.out, mask)
    observed = float(np.mean(mask))
    print(f"wrote {args.pattern} mask to {args.out} (observed fraction {observed:.3f})")
    return 0


def _load_model(path) -> tuple[NeuralDenoiser, float, float]:
    state = load_checkpoint(path)
    try:
        mean, std = np.asarray(state.pop("norm/mean")), np.asarray(state.pop("norm/std"))
    except KeyError as e:
        raise DataError(f"{path}: checkpoint misses {e.args[0]!r}") from None
    if mean.shape or std.shape or not (np.isfinite(mean) and np.isfinite(std) and std > 0):
        raise DataError(f"{path}: norm/mean and norm/std must be finite scalars"
                        f" with std > 0, got {mean.tolist()!r} and {std.tolist()!r}")
    return NeuralDenoiser.from_state_dict(state), float(mean), float(std)


def _save_stage(args, number: int, result, mean: float, std: float) -> int:
    """Writes the model that stage ``number`` trained to --out, with the
    (mean, std) that normalized its split."""
    state = result.model.state_dict()
    state["norm/mean"] = np.float64(mean)
    state["norm/std"] = np.float64(std)
    save_checkpoint(args.out, state)
    print(f"stage-{number} finished after "
          f"{len(result.train_losses)} epochs (best epoch {result.best_epoch})")
    print(f"wrote checkpoint {args.out}")
    return 0


def cmd_train_uncond(args) -> int:
    cfg = _cfg_from(args, _TRAIN_FLAGS, "uncond")
    sched = schedule_from(cfg, flags=True)
    series, entries = _load_masked(args.data, args.mask)
    split = _training_split(series, entries, args.window, args.stride)
    result = train_unconditional(split, training_from(cfg, "uncond"), sched=sched,
                                 net_cfg=network_from(cfg, len(series)))
    return _save_stage(args, 1, result, *split.normalization)


def cmd_finetune_cond(args) -> int:
    backend, mean, std = _load_model(args.init)
    # the shape flags parse to None, so a given one can be told apart; the
    # checkpoint's shape is the one that trains
    for dest, field in (("d_model", "d_model"), ("layers", "n_layers"), ("heads", "n_heads")):
        given, shape = getattr(args, dest), getattr(backend.cfg, field)
        if given is not None and given != shape:
            raise ConfigError(f"--{dest.replace('_', '-')} {given} differs from the"
                              f" {shape} of the --init checkpoint {args.init}")
    cfg = _cfg_from(args, _TRAIN_FLAGS, "cond")
    sched = schedule_from(cfg, flags=True)
    series, entries = _load_masked(args.data, args.mask)
    if len(series) != backend.cfg.n_nodes:
        raise InvalidInputError(f"{args.init} was built for {backend.cfg.n_nodes} nodes,"
                                f" the grid has {len(series)}")
    split = _training_split(series, entries, args.window, args.stride, (mean, std))
    result = finetune_conditional(backend, split, training_from(cfg, "cond"), sched=sched)
    return _save_stage(args, 2, result, *split.normalization)


def _impute_backends(args, values, sched, law):
    """(backend_cond, backend_uncond, mean, std) from --oracle or the
    checkpoint pair, each checked against the shape of the grid ``values``;
    the oracle works in data units."""
    if args.oracle:
        if args.checkpoint_cond or args.checkpoint_uncond:
            raise ConfigError("--oracle and checkpoints are mutually exclusive")
        # compare shapes before the world is built
        spec = read_world_spec(args.oracle)
        shape = (spec["world"]["nodes"], spec["world"]["steps"])
        if values.shape != shape:
            raise InvalidInputError(
                f"grid shape {values.shape} does not match the oracle spec's {shape}")
        oracle = OracleBackend(load_world_spec(spec), sched)
        return oracle, oracle, 0.0, 1.0
    if not args.checkpoint_uncond:
        raise ConfigError("need --checkpoint-uncond (or --oracle)")
    backend_uncond, mean, std = _load_model(args.checkpoint_uncond)
    if args.checkpoint_cond:
        backend, *stats = _load_model(args.checkpoint_cond)
        if stats != [mean, std]:
            raise DataError(f"{args.checkpoint_uncond} and {args.checkpoint_cond} differ"
                            f" in norm/mean, norm/std: {[mean, std]} vs {stats}")
    elif not law.needs_cond:
        backend = None
    else:
        raise ConfigError(f"mode {args.mode!r} needs --checkpoint-cond")
    # the network is built for any window length but not for any node count
    for path, model in ((args.checkpoint_uncond, backend_uncond),
                        (args.checkpoint_cond, backend)):
        if model is not None and model.cfg.n_nodes != len(values):
            raise InvalidInputError(f"{path} was built for {model.cfg.n_nodes} nodes,"
                                    f" the grid has {len(values)}")
    return backend, backend_uncond, mean, std


def _impute_in_data_units(backends, values, mask, sched, law, **sampling):
    """``impute`` on the observed cells of data-unit ``values``: they are
    normalized with the backends' (mean, std), the sampler's context hides
    the rest, and the samples come back in data units."""
    backend, backend_uncond, mean, std = backends
    observed = TrafficGrid((values - mean) / std)
    result = impute(backend, backend_uncond, observed, MaskMatrix(mask), sched, law, **sampling)
    return replace(result, samples=result.samples * std + mean)


def cmd_impute(args) -> int:
    cfg = _cfg_from(args, _IMPUTE_FLAGS)
    _check_range(cfg, "sampler", "samples", 1, math.inf, "be >= 1", flags=True)
    sched = schedule_from(cfg, flags=True)
    values, mask = _load_masked(args.grid, args.mask)
    law = scale_law(guidance_from(cfg, len(values), flags=True), sched)
    backends = _impute_backends(args, values, sched, law)
    result = _impute_in_data_units(backends, values, mask, sched, law,
                                   n_samples=args.samples, seed=args.seed,
                                   anchoring=args.anchoring)
    save_grid_csv(args.out, result.mean_imputation)
    if args.trace_out:
        emit_trace(result, args.trace_out)
        print(f"wrote trace {args.trace_out}")
    print(f"wrote mean imputation over {args.samples} samples to {args.out}")
    return 0


def _write_rows(path, header: str, rows) -> list[str]:
    """A CSV of ``header`` and ``rows``, non-int cells as repr(float(x)); the rows' lines."""
    lines = [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row)
             for row in rows]
    text = "".join(f"{line}\n" for line in [header, *lines])
    Path(path).write_text(text, encoding="utf-8", newline="\n")
    return lines


def _write_report(path, mae, rmse, mape, crps_value) -> None:
    """The one-row report.csv of evaluate and run, echoed to stdout."""
    line, = _write_rows(path, "mae,rmse,mape,crps", [(mae, rmse, mape, crps_value)])
    print(f"mae,rmse,mape,crps = {line}")


def _load_evaluated(path, entries: np.ndarray) -> np.ndarray:
    """Grid values of ``path``; DataError unless it has the eval mask's shape
    and a finite value in every evaluated cell (other cells may be empty)."""
    values, _ = load_grid_csv(path)
    if values.shape != entries.shape:
        raise DataError(f"{path}: grid shape {values.shape} vs eval mask {entries.shape}")
    bad = np.argwhere((entries == 1) & ~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{path}: evaluated cell at row {row}, col {col} is empty"
                        f" or non-finite")
    return values


def cmd_evaluate(args) -> int:
    entries = load_mask_csv(args.eval_mask)
    if not entries.any():
        raise DataError(f"{args.eval_mask}: the eval mask selects no cell")
    pred = _load_evaluated(args.pred, entries)
    truth = _load_evaluated(args.truth, entries)
    mae, rmse, mape = point_metrics(pred, truth, entries)
    crps_value = float("nan")
    if args.ensemble_prefix:
        prefix = Path(args.ensemble_prefix)
        files = sorted(prefix.parent.glob(glob.escape(prefix.name) + "_sample_*.csv"))
        if len(files) < 2:
            raise DataError(f"CRPS needs at least 2 ensemble files matching"
                            f" {prefix}_sample_*.csv, found {len(files)}")
        stack = np.stack([_load_evaluated(f, entries) for f in files])
        crps_value = crps_masked(stack, truth, entries)
    _write_report(args.out, mae, rmse, mape, crps_value)
    if args.per_node_out:
        _write_rows(args.per_node_out, "node,mae,rmse,mape",
                    [(i, *point_metrics(pred[i:i + 1], truth[i:i + 1], entries[i:i + 1]))
                     for i in range(len(entries)) if (entries[i] == 1).any()])
    return 0


# -- full pipeline ------------------------------------------------------------

def _pipeline_backends(cfg, world, sched, rng):
    """Returns (backend_cond, backend_uncond, mean, std) for the run command.

    The neural backend trains on a series drawn from ``rng``, the stream the
    truth was drawn from, after the truth, so it never trains on the truth."""
    if cfg["experiment"]["backend"] == "oracle":
        oracle = OracleBackend(world, sched)
        return oracle, oracle, 0.0, 1.0

    # both stages' settings are checked before either stage trains; stage 2
    # fine-tunes stage 1's network
    tcfg1, net_cfg, tcfg2 = (training_from(cfg, "uncond"), network_from(cfg, world.n_nodes),
                             training_from(cfg, "cond"))
    series = _synth_series(world, cfg["data"]["length"], rng)
    split = _training_split(series, np.ones(series.shape, dtype=np.int64),
                            world.n_steps, cfg["data"]["stride"])
    stage1 = train_unconditional(split, tcfg1, sched=sched, net_cfg=net_cfg)
    stage2 = finetune_conditional(stage1.model, split, tcfg2, sched=sched)
    return stage2.model, stage1.model, *split.normalization


def cmd_run(args) -> int:
    file_values = parse_config_file(args.config) if args.config else None
    cfg = resolve_config(file_values, args.preset)
    s = cfg["sampler"]
    # the point metrics need one sample and the CRPS two
    for key, least in (("samples", 1), ("crps_samples", 2)):
        _check_range(cfg, "sampler", key, least, math.inf, f"be >= {least}", flags=False)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, out_dir / "config.resolved")

    world = world_from(cfg)
    sched = schedule_from(cfg, flags=False)
    n_samples, seed = max(s["samples"], s["crps_samples"]), cfg["experiment"]["seed"]
    # built before training: a cluster count or fence constants the law
    # rejects stop the run early
    law = scale_law(guidance_from(cfg, world.n_nodes, flags=False), sched)

    rng = np.random.Generator(np.random.Philox(key=world.seed))
    truth = world.sample_clean(rng)
    m = cfg["mask"]
    mask = _make_mask(cfg, world.n_nodes, world.n_steps, flags=False)
    if mask.all():
        # checked before training: there would be nothing to impute or score
        raise ConfigError(f"the mask drawn with [mask] seed = {m['seed']} and"
                          f" alpha = {m['alpha']} hides no cell; change either")
    backends = _pipeline_backends(cfg, world, sched, rng)
    # trajectory i depends only on (seed, i): the point-metric and the CRPS
    # ensembles are both prefixes of one run
    result = _impute_in_data_units(backends, truth, mask, sched, law,
                                   n_samples=n_samples, seed=seed,
                                   anchoring=s["anchoring"])
    point = result.head(s["samples"])
    emit_trace(point, out_dir / "trace.csv")

    eval_mask = 1 - mask
    mae, rmse, mape = point_metrics(point.mean_imputation, truth, eval_mask)
    crps_value = crps_masked(result.head(s["crps_samples"]).samples, truth, eval_mask)
    _write_report(out_dir / "report.csv", mae, rmse, mape, crps_value)
    print(f"report in {out_dir}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fence",
        description="Feedback-controlled guidance for diffusion imputation "
                    "of spatial-temporal grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample a series from a Gaussian world spec")
    p.add_argument("--spec", required=True, help="oracle spec file (key = value)")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="generate an SR-TC or SC-TC mask CSV")
    _add_schema_args(p, _MASK_FLAGS)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    def add_train_args(p, stage):
        p.add_argument("--data", required=True, help="grid CSV")
        p.add_argument("--mask", default=None, help="extra observation mask CSV")
        p.add_argument("--window", type=int, default=SCHEMA["world"]["steps"][1])
        p.add_argument("--out", required=True, help="checkpoint path")
        _add_schema_args(p, _TRAIN_FLAGS, stage)

    p = sub.add_parser("train-uncond", help="stage 1: unconditional denoiser")
    add_train_args(p, "uncond")
    p.set_defaults(func=cmd_train_uncond)

    p = sub.add_parser("finetune-cond", help="stage 2: conditional fine-tune")
    add_train_args(p, "cond")
    p.add_argument("--init", required=True, help="stage-1 checkpoint")
    p.set_defaults(func=cmd_finetune_cond, d_model=None, layers=None, heads=None)

    p = sub.add_parser("impute", help="run the guided reverse sampler")
    p.add_argument("--grid", required=True, help="observed grid CSV")
    p.add_argument("--mask", default=None, help="observation mask CSV")
    p.add_argument("--oracle", default=None, help="Gaussian world spec file")
    p.add_argument("--checkpoint-cond", default=None)
    p.add_argument("--checkpoint-uncond", default=None)
    _add_schema_args(p, _IMPUTE_FLAGS)
    p.add_argument("--out", required=True, help="mean imputation CSV")
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="metrics from prediction vs truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--eval-mask", required=True,
                   help="1 marks entries to evaluate (the originally missing)")
    p.add_argument("--ensemble-prefix", default=None,
                   help="path prefix of <prefix>_sample_*.csv for CRPS")
    p.add_argument("--out", required=True)
    p.add_argument("--per-node-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None,
                   help=f"one of: {', '.join(sorted(PRESETS))}")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_run)

    return parser


# built once per process: each parse_args call fills a fresh namespace
_parser = cache(build_parser)

# mallopt's option numbers (glibc malloc.h) and the values main sets. 32 MiB
# is the largest mmap threshold glibc accepts on 64-bit builds; 256 MiB of
# kept free memory lies above the peak RSS of every benchmark workload
# (about 53 MiB at most). Grids larger than the benchmark's were not
# measured: there, blocks of 128 KiB to 32 MiB come from a heap that is
# trimmed only past 256 MiB of free memory at its top.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD_BYTES, MMAP_THRESHOLD_BYTES = 256 << 20, 32 << 20


@cache
def _keep_freed_memory() -> tuple[int, int] | None:
    """Once per process: let the C heap keep up to 256 MiB of freed memory
    and serve blocks under 32 MiB from the heap, not from fresh mappings.

    By default glibc hands freed heap memory back to the kernel and maps it
    again, a page fault per 4 KiB page, inside every neural forward, whose
    temporaries are freed and allocated again on each call. Returns the two
    mallopt results (1 for success), or None on a C library without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES))


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        where = f" at step {exc.step}" if exc.step is not None else ""
        print(f"error: diverged{where}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
