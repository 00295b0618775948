"""K-means over node feature rows, and posterior pooling per cluster.

Nodes that behave alike should share one guidance scale; we cluster rows of
a node-affinity feature matrix (attention rows for the neural denoiser,
correlation profiles for the analytic one) and average tracked
log-posteriors within each cluster before applying the scale law.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .guidance import GuidanceConfig, guidance_scale

__all__ = ["cluster_count", "kmeans", "cluster_scales"]

NODES_PER_CLUSTER = 20  # default cluster count: N / NODES_PER_CLUSTER, rounded
KMEANS_MAX_ITER = 20  # Lloyd iterations at most
# squared distances within this share of the points' largest squared spread
# tie, so rounding cannot settle them (fully observed nodes' affinity rows
# e_i are all equidistant)
KMEANS_TIE_RTOL = 1e-12


def cluster_count(n_clusters: int | None, n_nodes: int, name: str = "n_clusters") -> int:
    """The k-means cluster count of an n_nodes grid: n_clusters, or when it is
    None N / NODES_PER_CLUSTER rounded half up and at least 1;
    InvalidInputError, calling n_clusters ``name``, outside [1, n_nodes]."""
    if n_clusters is None:
        n_clusters = max(1, int(math.floor(n_nodes / NODES_PER_CLUSTER + 0.5)))
    if not (1 <= n_clusters <= n_nodes):
        raise InvalidInputError(f"{name} must lie in [1, {n_nodes}], got {n_clusters}")
    return n_clusters


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (N, k) table; fine for the grid sizes we cluster (hundreds of nodes)
    diff = points[:, None, :] - centers[None, :, :]
    return np.sum(diff * diff, axis=2)


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen center
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def kmeans(features: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from a k-means++ start; returns (labels, centers).

    Deterministic for a given seed. Stops early once labels reach a fixed
    point. Empty clusters are repaired by re-seeding them at the point
    currently farthest from its assigned center. A point at tied distances
    (within KMEANS_TIE_RTOL) joins the lowest-numbered center, and a tie for
    farthest point goes to the lowest-numbered point.
    """
    pts = np.asarray(features, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidInputError(f"features must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise InvalidInputError(f"cluster count must lie in [1, {n}], got {k}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    centers = _seed_centers(pts, k, rng)
    tie = KMEANS_TIE_RTOL * float(np.max(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)))

    labels = np.full(n, -1, dtype=np.int64)
    prev_sse = math.inf
    for _ in range(KMEANS_MAX_ITER):
        d2 = _squared_distances(pts, centers)
        new_labels = np.argmax(d2 <= d2.min(axis=1, keepdims=True) + tie, axis=1)
        sse = float(d2[np.arange(n), new_labels].sum())
        assert sse <= prev_sse + 1e-9 * max(1.0, abs(prev_sse)), "k-means SSE increased"
        prev_sse = sse
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                centers[c] = pts[labels == c].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # steal the worst-fit points, one per empty cluster
            contrib = d2[np.arange(n), labels].copy()
            for c in empties:
                idx = int(np.argmax(contrib >= contrib.max() - tie))
                centers[c] = pts[idx]
                labels[idx] = c
                contrib[idx] = -1.0
            prev_sse = math.inf  # repair may move SSE either way
    return labels, centers


def cluster_scales(
    log_posterior: np.ndarray, labels: np.ndarray, cfg: GuidanceConfig
) -> np.ndarray:
    """(S, N) guidance scales from (S, N) log-posteriors and cluster labels.

    Each cluster's scale is the scale law at the arithmetic mean of its
    nodes' log-posteriors, and every node inherits its cluster's scale. Row
    s is one trajectory and pools only its own clusters; each row must use
    every cluster id from 0 to the largest.
    """
    logp = np.asarray(log_posterior, dtype=np.float64)
    labels = np.asarray(labels)
    if logp.ndim != 2 or labels.shape != logp.shape:
        raise InvalidInputError(f"labels {labels.shape} and log-posteriors {logp.shape}"
                                " must share one (S, N) shape")
    s = len(logp)
    # shift each row's ids into a range of their own: one bincount pools all rows
    width = int(labels.max()) + 1
    ids = (labels + width * np.arange(s)[:, None]).reshape(-1)
    sums = np.bincount(ids, weights=logp.reshape(-1), minlength=s * width)
    counts = np.bincount(ids, minlength=s * width)
    if np.any(counts == 0):
        raise InvalidInputError("every cluster id up to the largest must be populated")
    lam = guidance_scale(sums / counts, cfg.pi, cfg.lambda_max)
    return lam[ids].reshape(logp.shape)
