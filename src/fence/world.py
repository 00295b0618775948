"""Synthetic jointly-Gaussian spatial-temporal worlds with closed-form scores.

A world is N(m, Sigma) over grids flattened node-major (index = node*T + t),
with Sigma the Kronecker product of a ring-graph spatial kernel rho_s^hops
and an AR-style temporal kernel rho_t^|dt|. Because every marginal of the
forward noising process stays Gaussian and is diagonal in the eigenbasis of
its clean law, the unconditional and conditional scores used by the sampler
are exact here, which is what lets the guidance formulas be checked to
floating-point accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, LinAlgError

from .diffusion import NoiseSchedule
from .errors import InvalidInputError

__all__ = [
    "GaussianOracleWorld",
    "make_gaussian_world",
    "ring_hops",
    "observations_from_mask",
]

_LOG_2PI = math.log(2.0 * math.pi)
# the largest N*T a world may have: the oracle keeps dense (NT)^2 float64
# matrices, 128 MiB each at this size (a 40x48 world has 1920 cells)
MAX_WORLD_CELLS = 4096


def ring_hops(n_nodes: int) -> np.ndarray:
    """Shortest-path hop counts between nodes of an undirected ring."""
    idx = np.arange(n_nodes)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, n_nodes - diff)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GaussianOracleWorld:
    """Exact Gaussian law over an N x T grid, optionally with observations."""

    n_nodes: int
    n_steps: int
    mean: np.ndarray
    cov: np.ndarray
    observed_idx: tuple[int, ...] = ()
    observed_val: tuple[float, ...] = ()
    seed: int = 0
    # factors of this law; init=False so dataclasses.replace starts a fresh one
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dim = self.n_nodes * self.n_steps
        mean = _read_only(self.mean)
        cov = _read_only(self.cov)
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise InvalidInputError(
                f"mean/cov must have dimension {dim}, got {mean.shape} and {cov.shape}"
            )
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise InvalidInputError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        idx = tuple(int(i) for i in self.observed_idx)
        if len(set(idx)) != len(idx) or any(not (0 <= i < dim) for i in idx):
            raise InvalidInputError("observed indices must be distinct and in range")
        if len(idx) != len(self.observed_val):
            raise InvalidInputError("observed indices and values must pair up")
        vals = tuple(float(v) for v in self.observed_val)
        if any(not np.isfinite(v) for v in vals):
            raise InvalidInputError("observed values must be finite")
        object.__setattr__(self, "observed_idx", idx)
        object.__setattr__(self, "observed_val", vals)
        try:
            self._cache["chol"] = cho_factor(cov, lower=True)
        except LinAlgError as exc:
            raise InvalidInputError(f"covariance is not positive definite: {exc}") from exc

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_steps

    @property
    def hidden_idx(self) -> np.ndarray:
        mask = np.ones(self.dim, dtype=bool)
        mask[list(self.observed_idx)] = False
        return np.flatnonzero(mask)

    def flat_to_grid(self, vec: np.ndarray) -> np.ndarray:
        return np.asarray(vec, dtype=np.float64).reshape(self.n_nodes, self.n_steps)

    def observe(self, indices, values) -> "GaussianOracleWorld":
        return replace(self, observed_idx=tuple(int(i) for i in indices),
                       observed_val=tuple(float(v) for v in values))

    # -- conditional moments -----------------------------------------------

    def conditional_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-dimensional read-only (mean, cov) after conditioning on the
        observations; the world's own mean and cov when nothing is observed.

        Observed coordinates are pinned: mean equals the observed value and
        their covariance rows/columns are zero (Schur complement on the
        hidden block).
        """
        if not self.observed_idx:
            return self.mean, self.cov
        if "cond" not in self._cache:
            obs = np.asarray(self.observed_idx, dtype=np.intp)
            hid = self.hidden_idx
            v = np.asarray(self.observed_val)
            s_oo = self.cov[np.ix_(obs, obs)]
            s_ho = self.cov[np.ix_(hid, obs)]
            try:
                f_oo = cho_factor(s_oo, lower=True)
            except LinAlgError as exc:
                raise InvalidInputError(
                    f"observed covariance block is singular: {exc}") from exc
            gain = cho_solve(f_oo, (v - self.mean[obs]))
            mean_c = self.mean.copy()
            mean_c[hid] = self.mean[hid] + s_ho @ gain
            mean_c[obs] = v
            cov_c = np.zeros_like(self.cov)
            cov_c[np.ix_(hid, hid)] = (
                self.cov[np.ix_(hid, hid)] - s_ho @ cho_solve(f_oo, s_ho.T)
            )
            mean_c.setflags(write=False)
            cov_c.setflags(write=False)
            self._cache["cond"] = (mean_c, cov_c)
        return self._cache["cond"]

    # -- noised marginals ----------------------------------------------------

    def _eigen(self, conditional: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m', w, U) of the clean law with cov = U diag(w) U^T, one eigh per law.

        Every noised marginal abar Sigma' + (1-abar) I has the same
        eigenvectors U and the eigenvalues abar w + 1 - abar, so this one
        decomposition serves every step.
        """
        conditional = bool(conditional and self.observed_idx)
        key = ("eigen", conditional)
        if key not in self._cache:
            m, s = self.conditional_moments() if conditional else (self.mean, self.cov)
            w, u = eigh(s)
            self._cache[key] = (m, w, u)
        return self._cache[key]

    def _scaled_coords(self, x_k: np.ndarray, k: int, sched: NoiseSchedule,
                       conditional: bool):
        """(U, z, v): residuals z = (x - sqrt(abar) m')^T U, one row per grid
        in x_k, and the variances v."""
        m, w, u = self._eigen(conditional)
        abar = sched.alpha_bar_at(k)
        x = np.asarray(x_k, dtype=np.float64).reshape(-1, self.dim)
        return u, (x - math.sqrt(abar) * m) @ u, abar * w + (1.0 - abar)

    def marginal_moments(self, k: int, sched: NoiseSchedule,
                         conditional: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(mean, covariance) of x_k ~ N(sqrt(abar) m', abar Sigma' + (1-abar) I)."""
        abar = sched.alpha_bar_at(k)
        m, s = self.conditional_moments() if conditional else (self.mean, self.cov)
        return math.sqrt(abar) * m, abar * s + (1.0 - abar) * np.eye(self.dim)

    def score(self, x_k: np.ndarray, k: int, sched: NoiseSchedule,
              conditional: bool = False) -> np.ndarray:
        """Exact gradient of log p_k at x_k, in the shape of x_k.

        x_k is one flat NT vector or a (B, NT) stack of them; the whole stack
        costs two matrix products.
        """
        u, z, v = self._scaled_coords(x_k, k, sched, conditional)
        return -((z / v) @ u.T).reshape(np.shape(x_k))

    def marginal_logpdf(self, x_k: np.ndarray, k: int, sched: NoiseSchedule,
                        conditional: bool = False) -> float:
        _, z, v = self._scaled_coords(x_k, k, sched, conditional)
        z = z.reshape(self.dim)
        quad = float(z @ (z / v))
        logdet = float(np.sum(np.log(v)))
        return -0.5 * (quad + logdet + self.dim * _LOG_2PI)

    # -- exact sampling ------------------------------------------------------

    def sample_clean(self, rng: np.random.Generator) -> np.ndarray:
        """One exact draw from the prior N(m, Sigma), as an N x T grid."""
        c, lower = self._cache["chol"]
        z = rng.standard_normal(self.dim)
        return self.flat_to_grid(self.mean + np.tril(c) @ z)


def make_gaussian_world(n_nodes: int, n_steps: int, spatial_corr: float,
                        temporal_corr: float, mean: float = 0.0,
                        seed: int = 0) -> GaussianOracleWorld:
    """Kronecker world: Sigma = (rho_s^hops on a ring) x (rho_t^|dt|)."""
    if not (abs(spatial_corr) < 1.0 and abs(temporal_corr) < 1.0):
        raise InvalidInputError(
            f"correlations must satisfy |rho| < 1, got {spatial_corr}, {temporal_corr}"
        )
    if n_nodes < 1 or n_steps < 1:
        raise InvalidInputError("world needs at least one node and one step")
    if not math.isfinite(mean):
        raise InvalidInputError(f"mean must be finite, got {mean}")
    if n_nodes * n_steps > MAX_WORLD_CELLS:
        raise InvalidInputError(
            f"world of {n_nodes} nodes x {n_steps} steps exceeds {MAX_WORLD_CELLS} "
            f"cells: its dense (NT)^2 covariance would need "
            f"{8 * (n_nodes * n_steps) ** 2 / 2 ** 30:.3g} GiB")
    spatial = np.power(float(spatial_corr), ring_hops(n_nodes)) if n_nodes > 1 \
        else np.ones((1, 1))
    dt = np.abs(np.arange(n_steps)[:, None] - np.arange(n_steps)[None, :])
    temporal = np.power(float(temporal_corr), dt) if n_steps > 1 else np.ones((1, 1))
    # 0^0 corners of the power tables must be 1
    if spatial_corr == 0.0:
        spatial = np.eye(n_nodes)
    if temporal_corr == 0.0:
        temporal = np.eye(n_steps)
    cov = np.kron(spatial, temporal)
    dim = n_nodes * n_steps
    return GaussianOracleWorld(n_nodes, n_steps, np.full(dim, float(mean)), cov,
                               seed=int(seed))


def observations_from_mask(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (indices, values) of the observed entries (mask == 1), node-major."""
    vals = np.asarray(values, dtype=np.float64)
    m = np.asarray(mask)
    if vals.shape != m.shape:
        raise InvalidInputError(f"values shape {vals.shape} vs mask shape {m.shape}")
    idx = np.flatnonzero(m.reshape(-1) == 1)
    return idx, vals.reshape(-1)[idx]
