"""Noise-predictor backends behind one predict(x_k, k, ctx) interface.

The sampler only ever sees this interface, so the exact Gaussian oracle and
the trained network are interchangeable. Every call takes a batch: x_k is
(B, N, T), one noisy grid per trajectory, and all rows share the step and
the context, so one call advances a whole ensemble. Conditioning is
carried by the context alone: the oracle conditions its world on the
observed cells, the network reads them; an unconditional context has zeroed
observations and mask, which for the oracle selects the prior marginal and
for the network reproduces the stage-1 empty-conditioning convention.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, noise_from_score
from .errors import InvalidInputError
from .world import GaussianOracleWorld, observations_from_mask

__all__ = [
    "ConditioningContext",
    "unconditional_context",
    "DenoiserBackend",
    "OracleBackend",
    "ContaminatedBackend",
    "node_affinity",
]


@dataclass(frozen=True)
class ConditioningContext:
    """What the denoiser may look at besides the noisy sample itself.

    ``observed`` and ``mask`` are (N, T), or (B, N, T) with one context per
    batch row; only training builds the stacked form. The context keeps its
    own read-only copies: ``observed`` is ``values * (mask == 1)``, so a
    value under mask 0 never reaches a backend, and ``mask`` is the float64
    0/1 array the network reads. The caller's arrays are left as they were.
    """

    observed: np.ndarray
    mask: np.ndarray
    is_unconditional: bool = False

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=np.float64)
        mask = np.asarray(self.mask)
        if obs.ndim not in (2, 3) or obs.shape != mask.shape:
            raise InvalidInputError(
                f"observed {obs.shape} and mask {mask.shape} must be matching"
                " (N, T) or (B, N, T)"
            )
        if not np.isin(mask, (0, 1)).all():
            raise InvalidInputError("mask entries must be 0 or 1")
        if self.is_unconditional and np.any(mask != 0):
            raise InvalidInputError("unconditional context must carry a zero mask")
        obs = obs * (mask == 1)
        mask = mask.astype(np.float64)
        for name, arr in (("observed", obs), ("mask", mask)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def unconditional_context(n_nodes: int, n_steps: int) -> ConditioningContext:
    zeros = np.zeros((n_nodes, n_steps))
    return ConditioningContext(zeros, zeros, is_unconditional=True)


class DenoiserBackend(ABC):
    """Noise predictor: eps_hat (and optional node-affinity matrix) at step k."""

    @abstractmethod
    def predict(self, x_k: np.ndarray, k: int,
                ctx: ConditioningContext) -> tuple[np.ndarray, np.ndarray | None]:
        """eps_hat (B, N, T) for the batch x_k (B, N, T) at step k under the
        (N, T) context ctx, and the node affinity: (N, N) when every row
        shares it, (B, N, N) when each row has its own, or None. Returning
        the same read-only array as at the previous step means the affinity
        has not changed, so the sampler keeps its partition; any other array
        is clustered again."""


def node_affinity(world: GaussianOracleWorld) -> np.ndarray:
    """Read-only, row-stochastic N x N affinity from the clean (abar = 1)
    correlation of the world's conditional law (its prior when nothing is
    observed).

    Entry (i, j) is the mean absolute correlation between the T cells of
    node i and those of node j; rows are normalized to sum to 1 so the
    matrix plays the same role as the network's spatial attention export.
    An observed cell is pinned, so it counts only its correlation of 1 with
    itself; the hidden pairs, each hidden cell with itself included, enter as
    |cov_hh[a, b]| / (s_a s_b) with s_a the conditional standard deviation
    of cell a.
    """
    _, obs, hid, cov_hh = world._schur
    n, t = world.n_nodes, world.n_steps
    # each hidden cell's 1/s, placed in its node's column
    scaled = np.zeros((hid.size, n))
    scaled[np.arange(hid.size), hid // t] = 1.0 / np.sqrt(np.diag(cov_hh))
    blocks = scaled.T @ (np.abs(cov_hh) @ scaled)
    blocks.flat[::n + 1] += np.bincount(obs // t, minlength=n)
    affinity = blocks / blocks.sum(axis=1, keepdims=True)
    affinity.setflags(write=False)
    return affinity


class OracleBackend(DenoiserBackend):
    """Wraps an unobserved Gaussian world as a denoiser: eps = -sqrt(1-abar) *
    exact score of the world conditioned on the context's observed cells.

    The last context, its conditioned world and that world's affinity are
    kept, so one ``impute`` conditions once and every step returns the same
    read-only affinity. An unconditional context selects the prior marginal
    and exports no affinity, since only the conditional one drives
    clustering.
    """

    def __init__(self, world: GaussianOracleWorld, sched: NoiseSchedule):
        if world.observed_idx.size:
            raise InvalidInputError("OracleBackend takes an unobserved world: the context"
                                    " carries the observations")
        self.world = world
        self.sched = sched
        self._last = (None, None, None)

    def predict(self, x_k, k, ctx):
        x = np.asarray(x_k, dtype=np.float64)
        grid = (self.world.n_nodes, self.world.n_steps)
        if x.ndim != 3 or x.shape[1:] != grid or ctx.mask.shape != grid:
            raise InvalidInputError(f"expected a batch of {grid} grids and a {grid}"
                                    f" context, got {x.shape} and {ctx.mask.shape}")
        world = self.world
        if not ctx.is_unconditional:
            if self._last[0] is not ctx:
                self._last = (ctx, world.observe(*observations_from_mask(ctx.observed, ctx.mask)),
                              None)
            world = self._last[1]
        score = world.score(x.reshape(len(x), -1), k, self.sched)
        eps = noise_from_score(score.reshape(x.shape), k, self.sched)
        if ctx.is_unconditional:
            return eps, None
        if self._last[2] is None:
            # built after the first score, which conditions the world and owns that cost
            self._last = (ctx, world, node_affinity(world))
        return eps, self._last[2]


class ContaminatedBackend(DenoiserBackend):
    """Deliberately imperfect conditional: blends the unconditional prediction
    into the conditional one with weight (1 - pi_true).

    This is the test-bed adversary: it mimics a conditional model that only
    trusts its conditioning with confidence pi_true, which is exactly the
    situation the feedback scale is built to correct.
    """

    def __init__(self, inner: DenoiserBackend, pi_true: float):
        if not (0.0 < pi_true <= 1.0):
            raise InvalidInputError(f"pi_true must lie in (0, 1], got {pi_true}")
        self.inner = inner
        self.pi_true = float(pi_true)

    def predict(self, x_k, k, ctx):
        if ctx.is_unconditional:
            return self.inner.predict(x_k, k, ctx)
        eps_c, attn = self.inner.predict(x_k, k, ctx)
        eps_u, _ = self.inner.predict(x_k, k, unconditional_context(*ctx.observed.shape))
        return (1.0 - self.pi_true) * eps_u + self.pi_true * eps_c, attn
