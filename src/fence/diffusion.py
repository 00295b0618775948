"""Noise schedule, forward noising, and single-step reverse kernels.

Step indices are 1-based: k runs from 1 (least noisy) up to K (pure noise).
Internally the schedule arrays are 0-based; the ``*_at(k)`` accessors do the
offset once so callers never index raw arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "NoiseSchedule",
    "quadratic_schedule",
    "q_sample",
    "reverse_mean",
    "noise_from_score",
    "reverse_step",
    "sincos_embedding",
]

VARIANCE_MODES = ("beta_tilde", "beta")


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance schedule with cached cumulative products and reverse variances.

    sigma2 holds the reverse-transition variance per step: beta_k under
    ``beta`` mode, or the posterior variance ((1-abar_{k-1})/(1-abar_k))*beta_k
    under the default ``beta_tilde`` mode (which is 0 at k=1).
    """

    beta: np.ndarray
    variance_mode: str = "beta_tilde"
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    sigma2: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 2:
            raise InvalidInputError("schedule needs at least 2 steps")
        if not ((beta > 0) & (beta < 1)).all():
            raise InvalidInputError("every beta must lie strictly in (0, 1)")
        if self.variance_mode not in VARIANCE_MODES:
            raise InvalidInputError(f"variance_mode must be one of {VARIANCE_MODES}")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        # at alpha_bar_1 = 1 the reverse variances of steps 1 and 2 are 0/0 and 0
        if not alpha_bar[0] < 1.0:
            raise InvalidInputError(f"beta_1 = {float(beta[0])!r} is too small:"
                                    " 1 - beta_1 rounds to 1 in float64")
        if not (np.diff(alpha_bar) < 0).all():
            raise InvalidInputError("alpha_bar must be strictly decreasing")
        if self.variance_mode == "beta":
            sigma2 = beta.copy()
        else:
            prev = np.concatenate([[1.0], alpha_bar[:-1]])
            sigma2 = (1.0 - prev) / (1.0 - alpha_bar) * beta
        for name, arr in (
            ("beta", beta),
            ("alpha", alpha),
            ("alpha_bar", alpha_bar),
            ("sigma2", sigma2),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.beta.size

    def _check_step(self, k: int) -> int:
        k = int(k)
        if not 1 <= k <= self.n_steps:
            raise InvalidInputError(f"step k={k} outside [1, {self.n_steps}]")
        return k

    def beta_at(self, k: int) -> float:
        return float(self.beta[self._check_step(k) - 1])

    def alpha_at(self, k: int) -> float:
        return float(self.alpha[self._check_step(k) - 1])

    def alpha_bar_at(self, k: int) -> float:
        return float(self.alpha_bar[self._check_step(k) - 1])

    def sigma2_at(self, k: int) -> float:
        return float(self.sigma2[self._check_step(k) - 1])


def quadratic_schedule(
    n_steps: int,
    beta1: float = 1e-4,
    betaK: float = 0.5,
    variance_mode: str = "beta_tilde",
    names: tuple[str, str, str] = ("n_steps", "beta1", "betaK"),
) -> NoiseSchedule:
    """Interpolate sqrt(beta) linearly between the endpoints, then square.

    beta_k = ((K-k)/(K-1) * sqrt(beta1) + (k-1)/(K-1) * sqrt(betaK))^2.
    An invalid setting is an InvalidInputError that calls n_steps, beta1
    and betaK by ``names``, so a caller can name them as its user set them.
    """
    n_steps = int(n_steps)
    steps_name, beta1_name, betaK_name = names
    if n_steps < 2:
        raise InvalidInputError(f"{steps_name} must be >= 2, got {n_steps}")
    if not (0.0 < beta1 <= betaK < 1.0):
        raise InvalidInputError(f"need 0 < {beta1_name} <= {betaK_name} < 1,"
                                f" got {beta1}, {betaK}")
    ks = np.arange(1, n_steps + 1, dtype=np.float64)
    weight = (ks - 1.0) / (n_steps - 1.0)
    beta = ((1.0 - weight) * np.sqrt(beta1) + weight * np.sqrt(betaK)) ** 2
    # pin endpoints exactly; sqrt-then-square would round them off
    beta[0] = beta1
    beta[-1] = betaK
    return NoiseSchedule(beta, variance_mode=variance_mode)


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise InvalidInputError(f"{what}: shape {a.shape} vs {b.shape}")


def q_sample(x0, k: int, noise: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward-noise a clean grid: sqrt(abar_k) x0 + sqrt(1-abar_k) noise."""
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    _check_same_shape(x0, noise, "q_sample")
    abar = sched.alpha_bar_at(k)
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


def reverse_mean(x_k: np.ndarray, eps_hat: np.ndarray, k: int, sched: NoiseSchedule) -> np.ndarray:
    """Denoising-transition mean (1/sqrt(alpha_k)) (x_k - (beta_k/sqrt(1-abar_k)) eps_hat)."""
    x_k = np.asarray(x_k, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    _check_same_shape(x_k, eps_hat, "reverse_mean")
    alpha = sched.alpha_at(k)
    abar = sched.alpha_bar_at(k)
    return (x_k - (1.0 - alpha) / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)


def noise_from_score(score: np.ndarray, k: int, sched: NoiseSchedule) -> np.ndarray:
    """Score to noise prediction: eps_hat = -sqrt(1 - abar_k) s."""
    score = np.asarray(score, dtype=np.float64)
    return -np.sqrt(1.0 - sched.alpha_bar_at(k)) * score


def reverse_step(
    x_k: np.ndarray,
    mean: np.ndarray,
    k: int,
    sched: NoiseSchedule,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Sample x_{k-1} = mean + sigma_k z; the final step (k=1) is noiseless,
    and every schedule NoiseSchedule accepts has sigma_k > 0 at k >= 2.

    x_k and mean are stacks with one row per trajectory, and row i draws its
    noise from rngs[i] alone, so a row does not depend on the others.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    _check_same_shape(x_k, mean, "reverse_step")
    if len(rngs) != len(mean):
        raise InvalidInputError(f"{len(rngs)} generators for {len(mean)} rows")
    k = sched._check_step(k)
    if k == 1:
        return mean.copy()
    z = np.stack([rng.standard_normal(mean.shape[1:]) for rng in rngs])
    return mean + np.sqrt(sched.sigma2_at(k)) * z


def sincos_embedding(position, dim: int) -> np.ndarray:
    """Sine/cosine positional features with geometric wavelengths up to 1e4.

    position may be a scalar or an array; one feature row per position.
    """
    if dim < 2 or dim % 2 != 0:
        raise InvalidInputError(f"embedding dim must be even and >= 2, got {dim}")
    half = dim // 2
    freq = np.exp(-np.log(1e4) * np.arange(half) / half)
    angles = np.asarray(position, dtype=np.float64)[..., None] * freq
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)
