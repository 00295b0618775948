"""Block missingness patterns for evaluation.

Both patterns mask temporally contiguous patches of length T (the final
patch may be ragged). SR-TC draws one Bernoulli per (node, patch); SC-TC
draws one per (patch, community) so all member nodes share identical zero
runs. Masks are bit-reproducible: draws come from a counter-based Philox
generator keyed by the config seed, consumed as a single uniform array in
row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import MaskMatrix

__all__ = ["MaskPatternConfig", "mask_sr_tc", "mask_sc_tc", "patch_bounds",
           "ring_communities"]

PATTERNS = ("SR-TC", "SC-TC")


@dataclass(frozen=True)
class MaskPatternConfig:
    pattern: str
    missing_rate: float
    patch_length: int
    n_communities: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise InvalidInputError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if not (0.0 <= self.missing_rate <= 1.0):
            raise InvalidInputError(f"missing_rate must lie in [0, 1], got {self.missing_rate}")
        if self.patch_length < 1:
            raise InvalidInputError(f"patch_length must be >= 1, got {self.patch_length}")
        if self.n_communities is not None and self.n_communities < 1:
            raise InvalidInputError(f"n_communities must be >= 1, got {self.n_communities}")


def patch_bounds(length: int, patch_length: int) -> list[tuple[int, int]]:
    """Column ranges of the ceil(L/T) patches; the last may be shorter."""
    n_patches = math.ceil(length / patch_length)
    return [
        (p * patch_length, min((p + 1) * patch_length, length)) for p in range(n_patches)
    ]


def _check_shape(n_nodes: int, length: int, cfg: MaskPatternConfig):
    if n_nodes < 1:
        raise InvalidInputError(f"node count must be >= 1, got {n_nodes}")
    if length < cfg.patch_length:
        raise InvalidInputError(
            f"series length {length} shorter than patch length {cfg.patch_length}"
        )


def _zero_patches(hidden: np.ndarray, length: int, cfg: MaskPatternConfig) -> MaskMatrix:
    """All ones but patch p of node i wherever ``hidden`` (patches, N) is set."""
    entries = np.ones((hidden.shape[1], length), dtype=np.int64)
    for (lo, hi), nodes in zip(patch_bounds(length, cfg.patch_length), hidden):
        entries[nodes, lo:hi] = 0
    return MaskMatrix(entries)


def mask_sr_tc(n_nodes: int, length: int, cfg: MaskPatternConfig) -> MaskMatrix:
    """Independent (node, patch) masking with probability missing_rate."""
    _check_shape(n_nodes, length, cfg)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    hit = rng.random((n_nodes, len(patch_bounds(length, cfg.patch_length)))) < cfg.missing_rate
    return _zero_patches(hit.T, length, cfg)


def ring_communities(n_nodes: int, cfg: MaskPatternConfig) -> tuple[tuple[int, ...], ...]:
    """cfg.n_communities contiguous arcs of a ring's nodes, as equal in size
    as they can be (the paper leaves community formation open)."""
    if n_nodes < 1:
        raise InvalidInputError(f"node count must be >= 1, got {n_nodes}")
    if cfg.n_communities is None:
        raise InvalidInputError("SC-TC needs n_communities in the config")
    if cfg.n_communities > n_nodes:
        raise InvalidInputError(
            f"n_communities {cfg.n_communities} exceeds node count {n_nodes}"
        )
    return tuple(tuple(arc.tolist())
                 for arc in np.array_split(np.arange(n_nodes), cfg.n_communities))


def mask_sc_tc(communities, length: int, cfg: MaskPatternConfig) -> MaskMatrix:
    """Community-synchronized masking: one draw per (patch, community) block.

    ``communities`` are disjoint node groups that together cover nodes
    0..N-1 of an N-node grid."""
    comms = [list(group) for group in communities]
    n_nodes = sum(map(len, comms))
    if sorted(i for group in comms for i in group) != list(range(n_nodes)):
        raise InvalidInputError("communities must be disjoint and cover nodes 0..N-1")
    _check_shape(n_nodes, length, cfg)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    hit = rng.random((len(patch_bounds(length, cfg.patch_length)), len(comms))) < cfg.missing_rate
    # a (patch, community) hit hides every member node
    owner = {i: c for c, members in enumerate(comms) for i in members}
    return _zero_patches(hit[:, [owner[i] for i in range(n_nodes)]], length, cfg)
