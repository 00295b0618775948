"""Synthetic jointly-Gaussian spatial-temporal worlds with closed-form scores.

A world is N(m, Sigma) over grids flattened node-major (index = node*T + t),
with Sigma = K_s (x) K_t the Kronecker product of a ring-graph spatial kernel
K_s = rho_s^hops (N x N) and an AR-style temporal kernel K_t = rho_t^|dt|
(T x T). The world stores the two factors and never builds Sigma. Every
marginal of the forward noising process stays Gaussian and is diagonal in
the eigenbasis of its clean law, so the unconditional and conditional
scores used by the sampler are exact here, which is what lets the guidance
formulas be checked to floating-point accuracy:

- the prior's eigenbasis is U_s (x) U_t, from one eigh of each factor at its
  first score, so a score costs O(NT(N+T)) per grid instead of O((NT)^2);
- the conditional law pins the observed cells, whose noised marginal is
  N(sqrt(abar) v_o, (1-abar) I) whatever the step, so only its hidden block,
  the Schur complement, is decomposed; each block of Sigma it reads is
  gathered from the factors, and one forward solve with the Cholesky factor
  L of Sigma_oo whitens them: W = L^-1 [Sigma_oh | v - m_o] gives
  cov_hh = Sigma_hh - W_oh^T W_oh and mean_h = m_h + W_oh^T w_v;
- an exact draw is m + L_s Z L_t^T, with L_s and L_t the Cholesky factors
  of K_s and K_t, which is (L_s (x) L_t) z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, eigh

from .diffusion import NoiseSchedule
from .errors import InvalidInputError

__all__ = [
    "GaussianOracleWorld",
    "make_gaussian_world",
    "ring_hops",
    "observations_from_mask",
]

_LOG_2PI = math.log(2.0 * math.pi)
# the largest N*T a world may have: the conditional law (the Schur complement
# on the hidden cells and its eigenbasis) is dense, up to (NT)^2 float64 each,
# 128 MiB at this size (a 40x48 world has 1920 cells)
MAX_WORLD_CELLS = 4096


def ring_hops(n_nodes: int) -> np.ndarray:
    """Shortest-path hop counts between nodes of an undirected ring."""
    idx = np.arange(n_nodes)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, n_nodes - diff)


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite a = L L^T;
    LinAlgError when a is not positive definite."""
    return np.linalg.cholesky(a)


def cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward solve L^-1 b with L = cho_factor(a), the first half of
    a^-1 b = L^-T L^-1 b. numpy has no triangular solve, so this is an LU
    solve, which also factors L: 2n^3/3 flops more than substitution."""
    return np.linalg.solve(lower, b)


def _read_only(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GaussianOracleWorld:
    """Exact Gaussian law over an N x T grid, optionally with observations.

    The prior covariance is spatial (x) temporal; only the (N, N) and (T, T)
    factors are stored. Observations are one read-only intp/float64 pair
    sorted by index, so the law depends on the observed set, not its order.
    The prior's eigenbasis and the conditional law's factors are cached
    properties: ``observe`` and ``dataclasses.replace`` start without them.
    """

    n_nodes: int
    n_steps: int
    mean: np.ndarray
    spatial: np.ndarray
    temporal: np.ndarray
    observed_idx: np.ndarray = ()
    observed_val: np.ndarray = ()
    seed: int = 0

    def __post_init__(self):
        dim = self.n_nodes * self.n_steps
        mean = _read_only(self.mean)
        if mean.shape != (dim,):
            raise InvalidInputError(f"mean must have dimension {dim}, got {mean.shape}")
        object.__setattr__(self, "mean", mean)
        # Sigma is positive definite when both factors are, which their Cholesky
        # factors (the draw's) check: eigh can find a singular one barely positive
        lower = []
        for name, size in (("spatial", self.n_nodes), ("temporal", self.n_steps)):
            factor = _read_only(getattr(self, name))
            if factor.shape != (size, size):
                raise InvalidInputError(
                    f"{name} factor must be {size}x{size}, got {factor.shape}")
            if not (np.isfinite(factor).all() and np.allclose(factor, factor.T, atol=1e-12)):
                raise InvalidInputError(
                    f"covariance must be finite and symmetric: its {name} factor is not")
            try:
                lower.append(np.linalg.cholesky(factor))
            except LinAlgError:
                raise InvalidInputError(
                    f"covariance is not positive definite: its {name} factor is not "
                    f"(smallest eigenvalue {np.linalg.eigvalsh(factor)[0]:.3g})") from None
            object.__setattr__(self, name, factor)
        object.__setattr__(self, "_lower", tuple(lower))
        # np.asarray would turn a boolean among a list's numbers into a number
        if any(isinstance(e, (bool, np.bool_)) for a in (self.observed_idx, self.observed_val)
               if isinstance(a, (list, tuple)) for e in a):
            raise InvalidInputError("observed indices and values must not be booleans")
        idx, vals = np.asarray(self.observed_idx), np.asarray(self.observed_val)
        if idx.ndim != 1 or idx.shape != vals.shape:
            raise InvalidInputError(f"observed indices and values must be 1-D and pair"
                                    f" up, got shapes {idx.shape} and {vals.shape}")
        if idx.size and not (idx.dtype.kind in "iu" and vals.dtype.kind in "iuf"):
            raise InvalidInputError(f"observed indices must be integers and values"
                                    f" numbers, got {idx.dtype} and {vals.dtype}")
        order = np.argsort(idx)
        idx, vals = _read_only(idx[order], np.intp), _read_only(vals[order])
        if idx.size and (idx.min() < 0 or idx.max() >= dim or (idx[1:] == idx[:-1]).any()):
            raise InvalidInputError(f"observed indices must be distinct and in [0, {dim})")
        if not np.isfinite(vals).all():
            raise InvalidInputError("observed values must be finite")
        object.__setattr__(self, "observed_idx", idx)
        object.__setattr__(self, "observed_val", vals)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_steps

    @cached_property
    def hidden_idx(self) -> np.ndarray:
        return _read_only(np.delete(np.arange(self.dim), self.observed_idx), np.intp)

    def _prior_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sigma[rows][:, cols] from the factors, one product per entry as
        np.kron computes it."""
        t = self.n_steps
        return (self.spatial[np.ix_(rows // t, cols // t)]
                * self.temporal[np.ix_(rows % t, cols % t)])

    def observe(self, indices, values) -> "GaussianOracleWorld":
        return replace(self, observed_idx=indices, observed_val=values)

    # -- conditional law -----------------------------------------------------

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(mean_c, obs, hid, cov_hh), read-only: the conditional mean over
        every cell, the observed and hidden cells, and the conditional
        covariance of the hidden cells (a Schur complement). With nothing
        observed, every cell is hidden and this is the prior."""
        obs, hid, v = self.observed_idx, self.hidden_idx, self.observed_val
        mean_c, cov_hh = self.mean, self._prior_block(hid, hid)
        if obs.size:
            try:
                lower = cho_factor(self._prior_block(obs, obs))
            except LinAlgError as exc:
                raise InvalidInputError(
                    f"observed covariance block is singular: {exc}") from exc
            w = cho_solve(lower, np.column_stack(
                [self._prior_block(obs, hid), v - self.mean[obs]]))
            w_oh = w[:, :hid.size]
            mean_c = self.mean.copy()
            mean_c[hid] = self.mean[hid] + w_oh.T @ w[:, -1]
            mean_c[obs] = v
            cov_hh -= w_oh.T @ w_oh
            mean_c.setflags(write=False)
        cov_hh.setflags(write=False)
        return mean_c, obs, hid, cov_hh

    def conditional_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-dimensional read-only (mean, cov) after conditioning on the
        observations; the prior when nothing is observed.

        Observed coordinates are pinned: mean equals the observed value and
        their covariance rows/columns are zero (Schur complement on the
        hidden block).
        """
        mean_c, _, hid, cov_hh = self._schur
        cov_c = np.zeros((self.dim, self.dim))
        cov_c[np.ix_(hid, hid)] = cov_hh
        cov_c.setflags(write=False)
        return mean_c, cov_c

    @cached_property
    def _prior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(w_s, U_s, w_t, U_t): the factors' eigenpairs, the prior's eigenbasis."""
        return (*eigh(self.spatial), *eigh(self.temporal))

    @cached_property
    def _hidden_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, U) with cov_hh = U diag(w) U^T, one eigh per world."""
        return eigh(self._schur[3])

    # -- noised marginals ----------------------------------------------------

    def score(self, x_k: np.ndarray, k: int, sched: NoiseSchedule) -> np.ndarray:
        """Exact gradient of log p_k at x_k under this world's own law: the
        conditional law given its observations, the prior when it has none.

        x_k is one flat NT vector or a (B, NT) stack of them. On an observed
        cell the score is -(x_o - sqrt(abar) v_o) / (1 - abar). Elsewhere it
        is the residual's eigenbasis coordinates over their step-k variances
        abar w + 1 - abar, taken back out of the eigenbasis. Both start from
        the residual with its sign flipped, sqrt(abar) m' - x, so no pass
        negates the result.
        """
        abar = sched.alpha_bar_at(k)
        x = np.asarray(x_k, dtype=np.float64).reshape(-1, self.dim)
        if self.observed_idx.size and len(x) == 1:
            # BLAS multiplies a lone row by gemv, whose sums round unlike gemm's:
            # scored as a pair, a grid's score is the same in every batch
            return self.score(np.repeat(x, 2, axis=0), k, sched)[0].reshape(np.shape(x_k))
        if self.observed_idx.size:
            mean, _, hid, _ = self._schur
            w, u = self._hidden_eigen
            # the observed cells' score, and the hidden ones' residual to overwrite
            out = math.sqrt(abar) * mean - x
            y = out[:, hid] @ u
            y /= abar * w + (1.0 - abar)
            out /= 1.0 - abar
            out[:, hid] = y @ u.T
        else:
            w_s, u_s, w_t, u_t = self._prior
            y = u_s.T @ (math.sqrt(abar) * self.mean - x).reshape(
                -1, self.n_nodes, self.n_steps) @ u_t
            y /= abar * np.outer(w_s, w_t) + (1.0 - abar)
            out = u_s @ y @ u_t.T
        return out.reshape(np.shape(x_k))

    def marginal_logpdf(self, x_k: np.ndarray, k: int, sched: NoiseSchedule) -> float:
        """log p_k(x_k) of one flat grid: with r = x - sqrt(abar) m' the residual
        from the noised mean, the quadratic form r^T Sigma_k^-1 r is -r . score,
        and log det Sigma_k sums log(abar w + 1 - abar) over the clean law's
        eigenvalues w (0 on observed cells)."""
        abar = sched.alpha_bar_at(k)
        if self.observed_idx.size:
            mean = self._schur[0]
            w = np.concatenate([np.zeros(self.observed_idx.size), self._hidden_eigen[0]])
        else:
            w_s, _, w_t, _ = self._prior
            mean, w = self.mean, np.outer(w_s, w_t).reshape(self.dim)
        x = np.asarray(x_k, dtype=np.float64).reshape(self.dim)
        quad = -float((x - math.sqrt(abar) * mean) @ self.score(x, k, sched))
        logdet = float(np.sum(np.log(abar * w + (1.0 - abar))))
        return -0.5 * (quad + logdet + self.dim * _LOG_2PI)

    # -- exact sampling ------------------------------------------------------

    def sample_clean(self, rng: np.random.Generator) -> np.ndarray:
        """One exact draw from the prior N(m, Sigma), as an N x T grid:
        m + L_s Z L_t^T, which is m + (L_s (x) L_t) z for z = vec Z."""
        shape = (self.n_nodes, self.n_steps)
        l_s, l_t = self._lower
        z = rng.standard_normal(self.dim).reshape(shape)
        return self.mean.reshape(shape) + l_s @ z @ l_t.T


def make_gaussian_world(n_nodes: int, n_steps: int, spatial_corr: float,
                        temporal_corr: float, mean: float = 0.0,
                        seed: int = 0) -> GaussianOracleWorld:
    """Kronecker world: Sigma = (rho_s^hops on a ring) x (rho_t^|dt|);
    one node or step has the factor [[1]], and rho = 0 the identity."""
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
            f"cells: its conditional law's dense hidden block could need "
            f"{8 * (n_nodes * n_steps) ** 2 / 2 ** 30:.3g} GiB")
    # numpy's 0.0 ** 0 is 1.0, so rho = 0 needs no case: its tables are the identity
    spatial = np.power(float(spatial_corr), ring_hops(n_nodes))
    dt = np.abs(np.arange(n_steps)[:, None] - np.arange(n_steps)[None, :])
    temporal = np.power(float(temporal_corr), dt)
    return GaussianOracleWorld(n_nodes, n_steps, np.full(n_nodes * n_steps, float(mean)),
                               spatial, temporal, seed=int(seed))


def observations_from_mask(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (indices, values) of the observed entries (mask == 1), node-major."""
    vals = np.asarray(values, dtype=np.float64)
    m = np.asarray(mask)
    if vals.shape != m.shape:
        raise InvalidInputError(f"values shape {vals.shape} vs mask shape {m.shape}")
    idx = np.flatnonzero(m.reshape(-1) == 1)
    return idx, vals.reshape(-1)[idx]
