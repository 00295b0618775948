"""Span tracing of the program's layers, installed from outside the program.

``install`` replaces public functions and methods of the ``fence`` modules
with wrappers that record one span per call (name, start, end, parent span,
operation id), plus exact counts and computed FLOPs and bytes at the same
boundaries. A function is replaced in every ``fence`` module namespace that
binds it, so each call site, which looks the name up in its own module,
goes through the wrapper. Only the traced worker process calls ``install``;
an untraced run imports the program unmodified.

Spans stay in memory until ``Recorder.dump`` writes them out at the end.
"""

from __future__ import annotations

import array
import functools
import hashlib
import inspect
import os
import sys
import time
from pathlib import Path

import numpy as np

# Per-layer metrics in the order they are reported: (name, unit, better).
# ``<span>.calls`` and ``<span>.self_s`` come from the spans; the rest are
# counters and ratios filled in by the wrappers' hooks.
LAYER_METRICS: list[tuple[str, str, str]] = []


def _declare(span: str, *fields: str) -> None:
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "flops": ("flop", "lower"), "bytes": ("B", "lower")}
    for f in fields:
        unit, better = units[f]
        LAYER_METRICS.append((f"{span}.{f}", unit, better))


_declare("world.factor", "calls", "self_s", "flops")
_declare("world.construct", "calls", "self_s")
_declare("world.solve", "calls", "self_s", "flops")
_declare("world.score", "calls", "self_s")
_declare("backends.predict_cond", "calls", "self_s")
_declare("backends.predict_uncond", "calls", "self_s")
_declare("backends.node_affinity", "calls", "self_s")
_declare("clustering.kmeans", "calls", "self_s")
LAYER_METRICS.append(("clustering.kmeans.unique_input_share", "fraction", "higher"))
_declare("clustering.scales", "calls", "self_s")
_declare("neural.predict_cond", "calls", "self_s")
_declare("neural.predict_uncond", "calls", "self_s")
_declare("neural.forward", "calls", "self_s")
LAYER_METRICS.append(("autodiff.nodes", "count", "lower"))
_declare("autodiff.matmul", "calls", "self_s", "flops")
_declare("autodiff.softmax", "calls", "self_s")
_declare("autodiff.backward", "calls", "self_s")
_declare("training.stage1", "self_s")
_declare("training.stage2", "self_s")
_declare("training.adam_step", "calls", "self_s")
_declare("masking.mask", "calls", "self_s")
_declare("sampler.impute", "calls", "self_s")
LAYER_METRICS += [("sampler.trajectories", "count", "lower"),
                  ("sampler.trajectories_per_needed", "ratio", "lower"),
                  ("sampler.trace_rows", "count", "lower")]
_declare("guidance.posterior_update", "calls", "self_s")
_declare("guidance.combine", "calls", "self_s")
_declare("guidance.gradient_norm", "calls", "self_s")
_declare("diffusion.reverse_mean", "calls", "self_s")
_declare("diffusion.reverse_step", "calls", "self_s")
_declare("sampler.emit_trace", "calls", "self_s", "bytes")
_declare("grid.csv_write", "calls", "self_s", "bytes")
_declare("grid.csv_read", "calls", "self_s", "bytes")
_declare("config.world_spec", "self_s")
_declare("metrics.point", "self_s")
_declare("metrics.crps", "calls", "self_s")
_declare("checkpoint.save", "calls", "self_s", "bytes")
_declare("checkpoint.load", "calls", "self_s", "bytes")
_declare("config.resolve", "self_s")
_declare("cli.command", "calls", "self_s")
LAYER_METRICS.append(("trace.overhead_share", "fraction", "lower"))


class Recorder:
    """In-memory span store plus exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self.kmeans_inputs: set[bytes] = set()
        self.needed: set[tuple[bytes, int]] = set()
        self.lost: set[str] = set()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(code)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def span_arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.int32),
                np.frombuffer(self.starts), np.frombuffer(self.ends),
                np.frombuffer(self.parents, dtype=np.int32))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead, which needs
        the untraced run."""
        names, starts, ends, parents = self.span_arrays()
        calls, selfs = aggregate(self.names, names, starts, ends, parents)
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = float(calls.get(span, 0))
            elif field == "self_s":
                out[metric] = selfs.get(span, 0.0)
            else:
                out[metric] = float(self.counts.get(metric, 0))
        kcalls = calls.get("clustering.kmeans", 0)
        out["clustering.kmeans.unique_input_share"] = (
            len(self.kmeans_inputs) / kcalls if kcalls else 0.0)
        trajectories = self.counts.get("sampler.trajectories", 0)
        out["sampler.trajectories_per_needed"] = (
            trajectories / len(self.needed) if self.needed else 0.0)
        out.pop("trace.overhead_share")
        return out

    def dump(self, path: Path) -> None:
        names, starts, ends, parents = self.span_arrays()
        np.savez(path, names=np.array(self.names), name=names, start=starts, end=ends,
                 parent=parents, op=np.frombuffer(self.ops, dtype=np.int32))


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap each other and the
    difference is the time the span spent outside every traced callee."""
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    has = parents >= 0
    child = np.bincount(parents[has], weights=dur[has], minlength=dur.size)
    return dur - child


def aggregate(names: list[str], name_ids, starts, ends, parents):
    """(calls per span name, total self time per span name)."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    if name_ids.size == 0:
        return {}, {}
    own = self_times(starts, ends, parents)
    calls = np.bincount(name_ids, minlength=len(names))
    selfs = np.bincount(name_ids, weights=own, minlength=len(names))
    return ({n: int(calls[i]) for i, n in enumerate(names)},
            {n: float(selfs[i]) for i, n in enumerate(names)})


# -- wrappers -----------------------------------------------------------------

def _wrap(rec: Recorder, name, fn, after=None):
    """Span around ``fn``. ``name`` is a string or a function of the call's
    arguments; ``after(args, kwargs, result)`` records counts."""
    static = isinstance(name, str)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name if static else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            _count(rec, after, args, kwargs, result)
        return result

    return wrapper


def _counter(rec: Recorder, fn, after):
    """Counts without a span, for calls too frequent to time one by one."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        _count(rec, after, args, kwargs, result)
        return result

    return wrapper


def _count(rec: Recorder, after, args, kwargs, result) -> None:
    # A hook reads the program's arguments and results; when a later version
    # of the program changes them, the run goes on and says which counter
    # it lost instead of failing the operation.
    try:
        after(args, kwargs, result)
    except Exception as exc:  # noqa: BLE001
        rec.lost.add(f"{after.__name__}: {type(exc).__name__}: {exc}")


def _by_context(prefix: str):
    def name(args, kwargs):
        ctx = kwargs.get("ctx", args[3] if len(args) > 3 else None)
        return prefix + ("uncond" if getattr(ctx, "is_unconditional", False) else "cond")
    return name


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _bytes_of(rec: Recorder, metric: str, position: int):
    def after(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs.get("path")
        rec.add(metric, _file_size(path))
    return after


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _hooks(rec: Recorder) -> list[tuple]:
    """(span name or namer, owner, attribute, after-hook) for every wrapped
    callable; the owner is a module or a class."""
    m = {name: sys.modules.get(f"fence.{name}") for name in (
        "world", "backends", "clustering", "neural", "autodiff", "training", "masking",
        "sampler", "guidance", "diffusion", "grid", "config", "metrics", "checkpoint",
        "cli")}

    def factor_flops(args, kwargs, result):
        n = np.shape(args[0])[0]
        rec.add("world.factor.flops", n ** 3 / 3.0)

    def solve_flops(args, kwargs, result):
        n = np.shape(args[0][0])[0]
        b = np.shape(args[1])
        rec.add("world.solve.flops", 2.0 * n * n * (b[1] if len(b) > 1 else 1))

    def matmul_flops(args, kwargs, result):
        rec.add("autodiff.matmul.flops", 2.0 * result.value.size * args[0].value.shape[-1])

    def kmeans_input(args, kwargs, result):
        k = kwargs.get("k", args[1] if len(args) > 1 else None)
        rec.kmeans_inputs.add(_digest(args[0], np.asarray([k])))

    impute_sig = inspect.signature(m["sampler"].impute) if m["sampler"] else None

    def impute_work(args, kwargs, result):
        bound = impute_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        values = np.asarray(a["observed"].values)
        s, steps = int(a["n_samples"]), int(a["sched"].n_steps)
        rec.add("sampler.trajectories", s)
        rec.add("sampler.trace_rows", s * steps * values.shape[0])
        # a trajectory is the same work when every input it depends on is
        key = _digest(values, np.asarray(a["mask"].entries)) + repr(
            (a["seed"], a.get("n_clusters"), a.get("anchoring"), a["gcfg"],
             id(a["backend"]), id(a["backend_uncond"]), steps)).encode()
        rec.needed.update((key, i) for i in range(s))

    def trace_bytes(args, kwargs, result):
        rec.add("sampler.emit_trace.bytes",
                _file_size(args[1] if len(args) > 1 else kwargs.get("path")))

    def count_node(args, kwargs, result):
        rec.add("autodiff.nodes", 1)

    world_cls = getattr(m["world"], "GaussianOracleWorld", None)
    oracle_cls = getattr(m["backends"], "OracleBackend", None)
    neural_cls = getattr(m["neural"], "NeuralDenoiser", None)
    adam_cls = getattr(m["training"], "Adam", None)
    return [
        ("world.factor", m["world"], "cho_factor", factor_flops),
        ("world.solve", m["world"], "cho_solve", solve_flops),
        ("world.construct", world_cls, "__init__", None),
        ("world.score", world_cls, "score", None),
        (_by_context("backends.predict_"), oracle_cls, "predict", None),
        ("backends.node_affinity", m["backends"], "node_affinity", None),
        ("clustering.kmeans", m["clustering"], "kmeans", kmeans_input),
        ("clustering.scales", m["clustering"], "cluster_scales", None),
        (_by_context("neural.predict_"), neural_cls, "predict", None),
        ("neural.forward", neural_cls, "forward_tensor", None),
        ("autodiff.matmul", m["autodiff"], "matmul", matmul_flops),
        ("autodiff.softmax", m["autodiff"], "softmax", None),
        ("autodiff.backward", m["autodiff"], "backward", None),
        ("training.stage1", m["training"], "train_unconditional", None),
        ("training.stage2", m["training"], "finetune_conditional", None),
        ("training.adam_step", adam_cls, "step", None),
        ("masking.mask", m["masking"], "mask_sr_tc", None),
        ("masking.mask", m["masking"], "mask_sc_tc", None),
        ("sampler.impute", m["sampler"], "impute", impute_work),
        ("sampler.emit_trace", m["sampler"], "emit_trace", trace_bytes),
        ("guidance.posterior_update", m["guidance"], "posterior_update", None),
        ("guidance.combine", m["guidance"], "combine_scores", None),
        ("guidance.gradient_norm", m["guidance"], "guidance_gradient_norm", None),
        ("diffusion.reverse_mean", m["diffusion"], "reverse_mean", None),
        ("diffusion.reverse_step", m["diffusion"], "reverse_step", None),
        ("grid.csv_write", m["grid"], "save_grid_csv", _bytes_of(rec, "grid.csv_write.bytes", 0)),
        ("grid.csv_write", m["grid"], "save_mask_csv", _bytes_of(rec, "grid.csv_write.bytes", 0)),
        ("grid.csv_read", m["grid"], "load_grid_csv", _bytes_of(rec, "grid.csv_read.bytes", 0)),
        ("grid.csv_read", m["grid"], "load_mask_csv", _bytes_of(rec, "grid.csv_read.bytes", 0)),
        ("config.world_spec", m["config"], "load_world_spec", None),
        ("config.resolve", m["config"], "resolve_config", None),
        ("metrics.point", m["metrics"], "point_metrics", None),
        ("metrics.crps", m["metrics"], "crps_masked", None),
        ("checkpoint.save", m["checkpoint"], "save_checkpoint",
         _bytes_of(rec, "checkpoint.save.bytes", 0)),
        ("checkpoint.load", m["checkpoint"], "load_checkpoint",
         _bytes_of(rec, "checkpoint.load.bytes", 0)),
        ("cli.command", m["cli"], "main", None),
        (None, getattr(m["autodiff"], "Tensor", None), "__init__", count_node),
    ]


def install(rec: Recorder) -> list[str]:
    """Wrap every traced callable of the imported ``fence`` package.

    Returns the names of callables that were not found, so a run on a
    program that renamed one says which metrics it could not measure."""
    modules = [mod for name, mod in sys.modules.items()
               if (name == "fence" or name.startswith("fence.")) and mod is not None]
    missing = []
    for name, owner, attr, after in _hooks(rec):
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', '?')}.{attr}")
            continue
        if name is None:
            wrapped = _counter(rec, fn, after)
        else:
            wrapped = _wrap(rec, name, fn, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        # rebind the function wherever a fence module imported it
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return missing
