"""The reverse-diffusion imputation loop with feedback-controlled guidance.

All trajectories advance together, one reverse step at a time: start at
pure noise, and at every step query the unconditional and the conditional
noise predictions for the whole ensemble in one call each, turn tracked
log-posteriors into guidance scales pooled over node clusters, combine the
predictions, take the reverse step, and feed the realized samples back into
the (S, N) log-posteriors. The clusters come from k-means on each exported
affinity matrix (one shared by the ensemble, or one per trajectory), run at
the first step and again only when the backend returns a new array: the
oracle's affinity depends on its conditioned world alone, so it is
partitioned once per run, while the network's attention is clustered every
step. Each trajectory draws from its own RNG stream (seed xor trajectory
index) in a fixed order, and a k-means run at reverse step k draws from
stream (seed << 32) + k, so trajectory i is the same whatever the ensemble
size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from .backends import ConditioningContext, DenoiserBackend, unconditional_context
from .clustering import cluster_count, cluster_scales, kmeans
from .diffusion import NoiseSchedule, q_sample, reverse_mean, reverse_step
from .errors import DivergenceError, FenceError, InvalidInputError
from .grid import MaskMatrix, TrafficGrid, save_grid_csv
from .guidance import (GuidanceConfig, calibrated_constants, combine_scores,
                       guidance_gradient_norm, posterior_update)

__all__ = ["ImputationResult", "impute", "emit_trace"]

ANCHORING_MODES = ("free", "clamp")
# seeds key Philox streams: [0, 2**64) keeps the k-means key
# (seed << 32) + k below Philox's 2**128
SEED_LIMIT = 2**64


@dataclass(frozen=True, eq=False)
class ImputationResult:
    """``samples`` (S, N, T) and the trace ``lam``, ``log_posterior``,
    ``guidance_norm``, ``cluster_id`` (S, K, N); step index j is reverse step
    k = K - j, after that step's posterior update. Every field is a read-only
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


def _step_labels(attn: np.ndarray | None, n_samples: int, n_nodes: int,
                 n_clusters: int, seed: int, k: int) -> np.ndarray:
    """(S, N) cluster ids of every trajectory from reverse step k's affinity."""
    # the two degenerate partitions need no Lloyd run and anchor the
    # exact global / per-node ablation identities
    if n_clusters == 1:
        return np.zeros((n_samples, n_nodes), dtype=np.int64)
    if n_clusters == n_nodes:
        return np.tile(np.arange(n_nodes, dtype=np.int64), (n_samples, 1))
    if attn is None:
        raise InvalidInputError(
            "backend exports no attention; cluster scope needs it "
            "(use scope=global or per_node)")
    # the step's k-means stream and one run per affinity matrix: a single
    # (N, N) matrix shared by every trajectory, or one per row of (S, N, N)
    attn = np.asarray(attn)
    if attn.shape not in ((n_nodes, n_nodes), (n_samples, n_nodes, n_nodes)):
        raise InvalidInputError(
            f"backend affinity at reverse step {k} has shape {attn.shape}; expected"
            f" ({n_nodes}, {n_nodes}) or ({n_samples}, {n_nodes}, {n_nodes})")
    labels = [kmeans(a, n_clusters, seed=(seed << 32) + k)[0]
              for a in attn.reshape(-1, n_nodes, n_nodes)]
    return np.broadcast_to(np.stack(labels), (n_samples, n_nodes))


def _predict(backend: DenoiserBackend, x, k, ctx):
    try:
        return backend.predict(x, k, ctx)
    except FenceError as exc:
        raise type(exc)(f"backend failed at reverse step {k}: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")  # non-finite samples raise DivergenceError
def impute(backend: DenoiserBackend | None, backend_uncond: DenoiserBackend,
           observed: TrafficGrid, mask: MaskMatrix, sched: NoiseSchedule,
           gcfg: GuidanceConfig, n_clusters: int | None = None,
           n_samples: int = 10, seed: int = 0,
           anchoring: str = "free") -> ImputationResult:
    """Generate an ensemble of imputed grids plus its per-step trace.

    ``observed`` carries the known values; the conditioning context built
    from it and ``mask`` zeroes everything under mask 0, so hidden values
    reach neither backend nor the clamp anchor. Conditioning enters through
    the conditional backend, and with anchoring="clamp" also by re-imposing
    the observed coordinates each step.
    """
    ctx_cond = ConditioningContext(observed.values, mask.entries)
    if anchoring not in ANCHORING_MODES:
        raise InvalidInputError(f"anchoring must be one of {ANCHORING_MODES}")
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    if not (0 <= seed < SEED_LIMIT):
        raise InvalidInputError(f"seed must lie in [0, 2**64), got {seed}")
    if gcfg.mode != "none" and backend is None:
        raise InvalidInputError(f"mode {gcfg.mode!r} needs a conditional backend")
    s, (n, t), n_steps = n_samples, ctx_cond.observed.shape, sched.n_steps
    # the global and per-node scopes are the one- and N-cluster partitions
    n_clusters = {"global": 1, "per_node": n}.get(gcfg.scope, cluster_count(n_clusters, n))
    delta, tau = calibrated_constants(gcfg, sched) if gcfg.mode == "fence" else (0.0, 0.0)

    rngs = [np.random.Generator(np.random.Philox(key=seed ^ traj)) for traj in range(s)]
    x = np.stack([rng.standard_normal((n, t)) for rng in rngs])
    # the tracked log-posterior of every node of every trajectory, from log p = 0
    logp = np.zeros((s, n))
    ctx_uncond = unconditional_context(n, t)
    lam_trace, logp_trace, gnorm_trace = (np.empty((s, n_steps, n)) for _ in range(3))
    cluster_trace = np.full((s, n_steps, n), -1, dtype=np.int64)
    clustered = None

    for j, k in enumerate(range(n_steps, 0, -1)):
        eps_u, _ = _predict(backend_uncond, x, k, ctx_uncond)
        if gcfg.mode == "none":
            eps_c, attn = eps_u, None
        else:
            eps_c, attn = _predict(backend, x, k, ctx_cond)

        if gcfg.mode == "fence":
            # the same read-only array as last step is the same affinity
            if attn is None or attn is not clustered or attn.flags.writeable:
                labels, clustered = _step_labels(attn, s, n, n_clusters, seed, k), attn
            lam = cluster_scales(logp, labels, gcfg)
            cluster_trace[:, j] = labels
        elif gcfg.mode == "cfg":
            lam = np.full((s, n), float(gcfg.fixed_lambda))
        else:
            lam = np.zeros((s, n))

        eps_mix = combine_scores(eps_u, eps_c, lam)
        gnorm = guidance_gradient_norm(eps_u, eps_c, k, sched)
        mean = reverse_mean(x, eps_mix, k, sched)
        x_next = reverse_step(x, mean, k, sched, rngs)

        if anchoring == "clamp":
            # re-impose the observed coordinates at their step-(k-1) law;
            # the noise draw is full-shape to keep the stream mask-independent
            noise = np.stack([rng.standard_normal((n, t)) for rng in rngs])
            if k > 1:
                anchor = q_sample(np.broadcast_to(ctx_cond.observed, noise.shape),
                                  k - 1, noise, sched)
            else:
                anchor = ctx_cond.observed
            x_next = np.where(ctx_cond.mask.astype(bool), anchor, x_next)

        diverged = np.flatnonzero(~np.isfinite(x_next).all(axis=(1, 2)))
        if diverged.size:
            raise DivergenceError(
                f"trajectory {diverged[0]} produced non-finite values", step=k)

        if gcfg.mode == "fence" and k > 1:
            mean_c = reverse_mean(x, eps_c, k, sched)
            mean_u = reverse_mean(x, eps_u, k, sched)
            logp = posterior_update(logp, x_next, mean_c, mean_u, k, sched, tau, delta)

        lam_trace[:, j] = lam
        logp_trace[:, j] = logp
        gnorm_trace[:, j] = gnorm
        x = x_next
    return ImputationResult(x, lam_trace, logp_trace, gnorm_trace, cluster_trace)


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
