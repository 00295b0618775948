"""The reverse-diffusion imputation loop and the scale laws it runs.

All trajectories advance together, one reverse step at a time: from pure
noise, each step queries the unconditional and (if the law needs it) the
conditional noise prediction for the whole ensemble in one call each, asks
the run's ``ScaleLaw`` for the (S, N) guidance scales (``scales``), combines
the predictions, takes the reverse step and hands the law each node's gap
between the two reverse means (``update``); it starts the law, built by
``scale_law`` from settings or by a caller, with its S, N and seed.

Each noise draw of a run (the start x_K, a step's reverse noise and clamp's
anchor noise) is one (S, N, T) standard-normal array from its own SFC64
stream, keyed by SeedSequence([seed, k, purpose]). Row i of a draw is
trajectory i's noise, and a generator fills the rows in order; a k-means
run at reverse step k draws from Philox stream (seed << 32) + k. So
trajectory i is the same whatever the ensemble size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .backends import ConditioningContext, DenoiserBackend, unconditional_context
from .clustering import cluster_count, cluster_scales, kmeans
from .diffusion import NoiseSchedule, q_sample, reverse_mean, reverse_step
from .errors import DivergenceError, FenceError, InvalidInputError
from .grid import MaskMatrix, TrafficGrid, save_grid_csv
from .guidance import (GuidanceConfig, calibrated_constants, combine_scores,
                       guidance_gradient_norm, posterior_update)

__all__ = ["ImputationResult", "ScaleLaw", "scale_law", "impute", "emit_trace"]

ANCHORING_MODES = ("free", "clamp")
# the purposes of a run's noise draws, each a stream of its own per reverse step
START, REVERSE, ANCHOR = range(3)
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


class ScaleLaw:
    """A fixed scale ``lam`` on every node, with no conditional call unless ``needs_cond``.
    ``start`` takes a run's S, N and seed and checks ``n_clusters`` against N, ``scales``
    gives reverse step k's (S, N) scales and ``update`` gets them back with the per-node
    sums of the step's reverse-mean gap that ``posterior_update`` reads; ``logp`` and
    ``labels`` are the (S, N) state the trace records."""

    def __init__(self, lam: float = 0.0, needs_cond: bool = True, n_clusters: int | None = None):
        self.lam, self.needs_cond, self.n_clusters = float(lam), needs_cond, n_clusters

    def start(self, n_samples: int, n_nodes: int, seed: int) -> None:
        self.k_clusters, self.seed = cluster_count(self.n_clusters, n_nodes), seed
        self.logp = np.zeros((n_samples, n_nodes))
        self.labels = np.full((n_samples, n_nodes), -1, dtype=np.int64)

    def scales(self, k, x, eps_u, eps_c, attn) -> np.ndarray:
        return np.full(self.logp.shape, self.lam)

    def update(self, k, lam, gap_sq, gap_dot) -> None:
        pass


class FenceLaw(ScaleLaw):
    """fence's feedback scale: the scale law at each cluster's mean log-posterior;
    k-means runs again only on a new affinity array (the oracle's: once per run)."""

    def __init__(self, gcfg, sched, n_clusters):
        super().__init__(n_clusters=n_clusters)
        self.gcfg, self.sched = gcfg, sched
        self.delta, self.tau = calibrated_constants(gcfg, sched)

    def start(self, n_samples, n_nodes, seed):
        super().start(n_samples, n_nodes, seed)
        self._clustered = None

    def scales(self, k, x, eps_u, eps_c, attn):
        # the same read-only array as last step is the same affinity
        if attn is None or attn is not self._clustered or attn.flags.writeable:
            self.labels, self._clustered = self._step_labels(attn, k), attn
        return cluster_scales(self.logp, self.labels, self.gcfg)

    def update(self, k, lam, gap_sq, gap_dot):
        if k > 1:
            self.logp = posterior_update(self.logp, lam, gap_sq, gap_dot, k, self.sched,
                                         self.tau, self.delta)

    def _step_labels(self, attn: np.ndarray | None, k: int) -> np.ndarray:
        """(S, N) cluster ids of every trajectory from reverse step k's affinity."""
        s, n = self.logp.shape
        # the global and per-node scopes are the one- and N-cluster partitions: they need
        # no Lloyd run and anchor the exact global / per-node ablation identities
        n_clusters = {"global": 1, "per_node": n}.get(self.gcfg.scope, self.k_clusters)
        if n_clusters in (1, n):
            return np.broadcast_to(np.arange(n) % n_clusters, (s, n))
        if attn is None:
            raise InvalidInputError("backend exports no attention; cluster scope needs it"
                                    " (use scope=global or per_node)")
        # the step's k-means stream and one run per affinity matrix: a single
        # (N, N) matrix shared by every trajectory, or one per row of (S, N, N)
        attn = np.asarray(attn)
        if attn.shape not in ((n, n), (s, n, n)):
            raise InvalidInputError(
                f"backend affinity at reverse step {k} has shape {attn.shape};"
                f" expected ({n}, {n}) or ({s}, {n}, {n})")
        labels = [kmeans(a, n_clusters, seed=(self.seed << 32) + k)[0]
                  for a in attn.reshape(-1, n, n)]
        return np.broadcast_to(np.stack(labels), (s, n))


def scale_law(gcfg: GuidanceConfig, sched: NoiseSchedule,
              n_clusters: int | None = None) -> ScaleLaw:
    """The scale law of ``gcfg``; InvalidInputError for fence constants it rejects."""
    if gcfg.mode == "fence":
        return FenceLaw(gcfg, sched, n_clusters)
    return ScaleLaw(gcfg.fixed_lambda if gcfg.mode == "cfg" else 0.0,
                    needs_cond=gcfg.mode == "cfg", n_clusters=n_clusters)


def _stream(seed: int, k: int, purpose: int) -> np.random.Generator:
    """The generator of the one noise draw of ``purpose`` at reverse step k."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, k, purpose])))


def _predict(backend: DenoiserBackend, x, k, ctx):
    try:
        return backend.predict(x, k, ctx)
    except FenceError as exc:
        raise type(exc)(f"backend failed at reverse step {k}: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")  # non-finite samples raise DivergenceError
def impute(backend: DenoiserBackend | None, backend_uncond: DenoiserBackend,
           observed: TrafficGrid, mask: MaskMatrix, sched: NoiseSchedule,
           gcfg: ScaleLaw, n_samples: int = 10, seed: int = 0,
           anchoring: str = "free") -> ImputationResult:
    """Generate an ensemble of imputed grids plus its per-step trace.

    ``observed`` carries the known values; the conditioning context built
    from it and ``mask`` zeroes everything under mask 0, so hidden values
    reach neither backend nor the clamp anchor. Conditioning enters through
    the conditional backend, and with anchoring="clamp" also by re-imposing
    the observed coordinates each step. ``gcfg`` is a ``ScaleLaw``, started
    anew with the run's S, N and seed: one law serves any number of runs."""
    ctx_cond = ConditioningContext(observed.values, mask.entries)
    if anchoring not in ANCHORING_MODES:
        raise InvalidInputError(f"anchoring must be one of {ANCHORING_MODES}")
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    if not (0 <= seed < SEED_LIMIT):
        raise InvalidInputError(f"seed must lie in [0, 2**64), got {seed}")
    s, (n, t), n_steps = n_samples, ctx_cond.observed.shape, sched.n_steps
    law = gcfg
    law.start(s, n, seed)
    if law.needs_cond and backend is None:
        raise InvalidInputError("guidance needs a conditional backend (mode none does not)")

    x = _stream(seed, n_steps, START).standard_normal((s, n, t))
    ctx_uncond = unconditional_context(n, t)
    traces = [np.empty((s, n_steps, n), dtype) for dtype in (float, float, float, np.int64)]

    for j, k in enumerate(range(n_steps, 0, -1)):
        eps_u, _ = _predict(backend_uncond, x, k, ctx_uncond)
        eps_c, attn = _predict(backend, x, k, ctx_cond) if law.needs_cond else (eps_u, None)
        lam = law.scales(k, x, eps_u, eps_c, attn)

        eps_mix = combine_scores(eps_u, eps_c, lam)
        gap = eps_c - eps_u
        gap_sq = np.sum(gap * gap, axis=-1)
        gnorm = guidance_gradient_norm(gap_sq, k, sched)
        mean = reverse_mean(x, eps_mix, k, sched)
        x_next = reverse_step(x, mean, k, sched, _stream(seed, k, REVERSE) if k > 1 else None)

        if anchoring == "clamp":
            # re-impose the observed coordinates at their step-(k-1) law; the
            # noise draw is full-shape to keep the stream mask-independent
            anchor = ctx_cond.observed
            if k > 1:
                noise = _stream(seed, k, ANCHOR).standard_normal(x.shape)
                anchor = q_sample(np.broadcast_to(anchor, noise.shape), k - 1, noise, sched)
            np.copyto(x_next, anchor, where=ctx_cond.mask == 1)

        diverged = np.flatnonzero(~np.isfinite(x_next).all(axis=(1, 2)))
        if diverged.size:
            raise DivergenceError(
                f"trajectory {diverged[0]} produced non-finite values", step=k)

        # the reverse means differ by mean_cond - mean_uncond = -c (eps_c - eps_u)
        alpha = sched.alpha_at(k)
        c = (1.0 - alpha) / np.sqrt(1.0 - sched.alpha_bar_at(k)) / np.sqrt(alpha)
        law.update(k, lam, c * c * gap_sq, -c * np.sum((x_next - mean) * gap, axis=-1))
        for trace, value in zip(traces, (lam, law.logp, gnorm, law.labels)):
            trace[:, j] = value
        x = x_next
    return ImputationResult(x, *traces)


def emit_trace(result: ImputationResult, path) -> None:
    """Write the trace CSV, one write per trajectory, and one grid CSV per
    ensemble member beside it."""
    path = Path(path)
    _, n_steps, n_nodes = result.lam.shape
    # the "k,node," of a trajectory's rows, in row order
    steps_nodes = [f"{n_steps - j},{node}," for j in range(n_steps) for node in range(n_nodes)]
    columns = (result.lam, result.log_posterior, result.guidance_norm, result.cluster_id)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("traj,k,node,lambda,log_posterior,guidance_norm,cluster_id\n")
        for traj, rows in enumerate(zip(*columns)):
            values = zip(steps_nodes, *(c.reshape(-1).tolist() for c in rows))
            fh.write("".join(f"{traj},{step_node}{lam!r},{logp!r},{gnorm!r},{cluster}\n"
                             for step_node, lam, logp, gnorm, cluster in values))
    width = len(str(len(result.samples) - 1))
    for i, sample in enumerate(result.samples):
        save_grid_csv(path.with_name(f"{path.stem}_sample_{i:0{width}d}.csv"), sample)
