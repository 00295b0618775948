"""The reverse-diffusion imputation loop with feedback-controlled guidance.

Per trajectory: start at pure noise, and at every step query conditional
and unconditional noise predictions, recluster nodes on the exported
attention, turn tracked log-posteriors into per-node guidance scales,
combine the predictions, take the reverse step, and feed the realized
sample back into the posterior tracker. Trajectories are independent and
use per-trajectory RNG streams (seed xor trajectory index), so trajectory i
is the same whatever the ensemble size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from .backends import DenoiserBackend, conditional_context, unconditional_context
from .clustering import cluster_log_posterior, cluster_scales, default_cluster_count, kmeans
from .diffusion import NoiseSchedule, q_sample, reverse_mean, reverse_step
from .errors import DivergenceError, FenceError, InvalidInputError
from .grid import MaskMatrix, TrafficGrid, save_grid_csv
from .guidance import (GuidanceConfig, PosteriorTracker, calibrated_constants,
                       guidance_scale, combine_scores, guidance_gradient_norm,
                       posterior_update)

__all__ = ["ImputationResult", "impute", "emit_trace"]

ANCHORING_MODES = ("free", "clamp")


@dataclass(frozen=True, eq=False)
class ImputationResult:
    """``samples`` (S, N, T) and the trace ``lam``, ``log_posterior``,
    ``guidance_norm``, ``cluster_id`` (S, K, N); step index j is reverse step
    k = K - j, after that step's tracker update. Every field is a read-only
    view; the arrays passed in stay as they were."""

    samples: np.ndarray
    lam: np.ndarray
    log_posterior: np.ndarray
    guidance_norm: np.ndarray
    cluster_id: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            view = np.asarray(getattr(self, f.name)).view()
            view.setflags(write=False)
            object.__setattr__(self, f.name, view)

    @property
    def mean_imputation(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def head(self, n: int) -> ImputationResult:
        """The first n members, as impute with n_samples=n returns them."""
        if not (1 <= n <= len(self.samples)):
            raise InvalidInputError(f"need 1 <= n <= {len(self.samples)}, got {n}")
        return ImputationResult(*(getattr(self, f.name)[:n] for f in fields(self)))


def _labels_for_step(attn: np.ndarray | None, n_nodes: int, n_clusters: int,
                     seed: int, traj: int, k: int) -> np.ndarray:
    # the two degenerate partitions need no Lloyd run and anchor the
    # exact global / per-node ablation identities
    if n_clusters == 1:
        return np.zeros(n_nodes, dtype=np.int64)
    if n_clusters == n_nodes:
        return np.arange(n_nodes, dtype=np.int64)
    if attn is None:
        raise InvalidInputError(
            "backend exports no attention; cluster scope needs it "
            "(use scope=global or per_node)")
    kmeans_seed = ((seed ^ traj) << 32) + k  # distinct stream per (traj, step)
    labels, _ = kmeans(np.asarray(attn, dtype=np.float64), n_clusters,
                       seed=kmeans_seed)
    return labels


def _predict(backend: DenoiserBackend, x, k, ctx):
    try:
        return backend.predict(x, k, ctx)
    except FenceError as exc:
        raise type(exc)(f"backend failed at reverse step {k}: {exc}") from exc


def _run_trajectory(traj: int, backend, backend_uncond, observed_values, mask_entries,
                    sched: NoiseSchedule, gcfg: GuidanceConfig, n_clusters: int,
                    seed: int, anchoring: str, delta: float, tau: float):
    n, t = observed_values.shape
    rng = np.random.Generator(np.random.Philox(key=seed ^ traj))
    x = rng.standard_normal((n, t))
    tracker = PosteriorTracker.fresh(n, tau, delta)
    ctx_cond = conditional_context(observed_values, mask_entries)
    ctx_uncond = unconditional_context(n, t)
    steps = []

    for k in range(sched.n_steps, 0, -1):
        eps_u, _ = _predict(backend_uncond, x, k, ctx_uncond)
        if gcfg.mode == "none":
            eps_c, attn = eps_u, None
        else:
            eps_c, attn = _predict(backend, x, k, ctx_cond)

        cluster_ids = np.full(n, -1, dtype=np.int64)
        if gcfg.mode == "fence":
            labels = _labels_for_step(attn, n, n_clusters, seed, traj, k)
            lam = cluster_scales(cluster_log_posterior(tracker, labels), labels, gcfg)
            cluster_ids = labels
        elif gcfg.mode == "cfg":
            lam = np.full(n, float(gcfg.fixed_lambda))
        else:
            lam = np.zeros(n)

        eps_mix = combine_scores(eps_u, eps_c, lam)
        gnorm = guidance_gradient_norm(eps_u, eps_c, k, sched)
        mean = reverse_mean(x, eps_mix, k, sched)
        x_next = reverse_step(x, mean, k, sched, rng)

        if anchoring == "clamp":
            # re-impose the observed coordinates at their step-(k-1) law;
            # the noise draw is full-shape to keep the stream mask-independent
            noise = rng.standard_normal((n, t))
            if k > 1:
                anchor = q_sample(observed_values, k - 1, noise, sched)
            else:
                anchor = observed_values
            x_next = np.where(mask_entries == 1, anchor, x_next)

        if not np.isfinite(x_next).all():
            raise DivergenceError(
                f"trajectory {traj} produced non-finite values", step=k)

        if gcfg.mode == "fence" and k > 1:
            mean_c = reverse_mean(x, eps_c, k, sched)
            mean_u = reverse_mean(x, eps_u, k, sched)
            tracker = posterior_update(tracker, x_next, mean_c, mean_u, k, sched)

        steps.append((lam, tracker.log_posterior, gnorm, cluster_ids))
        x = x_next
    return x, steps


def impute(backend: DenoiserBackend | None, backend_uncond: DenoiserBackend,
           observed: TrafficGrid, mask: MaskMatrix, sched: NoiseSchedule,
           gcfg: GuidanceConfig, n_clusters: int | None = None,
           n_samples: int = 10, seed: int = 0,
           anchoring: str = "free") -> ImputationResult:
    """Generate an ensemble of imputed grids plus its per-step trace.

    ``observed`` carries the known values (anything under mask == 0 is
    ignored); conditioning enters through the conditional backend, and with
    anchoring="clamp" also by re-imposing observed coordinates each step.
    """
    values = np.asarray(observed.values, dtype=np.float64)
    entries = np.asarray(mask.entries)
    if values.shape != entries.shape:
        raise InvalidInputError(f"grid {values.shape} vs mask {entries.shape}")
    if anchoring not in ANCHORING_MODES:
        raise InvalidInputError(f"anchoring must be one of {ANCHORING_MODES}")
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    if gcfg.mode != "none" and backend is None:
        raise InvalidInputError(f"mode {gcfg.mode!r} needs a conditional backend")
    n = values.shape[0]
    if n_clusters is None:
        n_clusters = default_cluster_count(n)
    if not (1 <= n_clusters <= n):
        raise InvalidInputError(f"n_clusters must lie in [1, {n}], got {n_clusters}")
    # the global and per-node scopes are the one- and N-cluster partitions
    n_clusters = {"global": 1, "per_node": n}.get(gcfg.scope, n_clusters)
    delta, tau = calibrated_constants(gcfg, sched) if gcfg.mode == "fence" else (0.0, 0.0)
    # masked values must not leak into conditioning
    masked_values = values * (entries == 1)

    runs = [_run_trajectory(traj, backend, backend_uncond, masked_values,
                            entries, sched, gcfg, n_clusters, seed,
                            anchoring, delta, tau)
            for traj in range(n_samples)]
    steps = [step for _, trace in runs for step in trace]
    return ImputationResult(
        np.stack([x for x, _ in runs]),
        *(np.stack(column).reshape(n_samples, sched.n_steps, n)
          for column in zip(*steps)))


def emit_trace(result: ImputationResult, path) -> None:
    """Write the trace CSV and one grid CSV per ensemble member beside it."""
    path = Path(path)
    n_steps = result.lam.shape[1]
    columns = (result.lam, result.log_posterior, result.guidance_norm, result.cluster_id)
    rows = zip(product(*map(range, result.lam.shape)),
               *(c.reshape(-1).tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("traj,k,node,lambda,log_posterior,guidance_norm,cluster_id\n")
        for (traj, j, node), lam, logp, gnorm, cluster in rows:
            fh.write(f"{traj},{n_steps - j},{node},{lam!r},{logp!r},{gnorm!r},{cluster}\n")
    width = len(str(len(result.samples) - 1))
    for i, sample in enumerate(result.samples):
        save_grid_csv(path.with_name(f"{path.stem}_sample_{i:0{width}d}.csv"), sample)
