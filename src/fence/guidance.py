"""Feedback-controlled guidance: scale law, posterior update, calibration.

The conditional denoiser is modeled as an additive contamination of the true
conditional by the unconditional law with prior confidence pi. Solving that
mixture for the true conditional score gives a state-dependent guidance
scale lambda = p/(p - (1-pi)) driven by the tracked log-posterior of the
conditioning, and the offset/temperature constants (delta, tau) that shape
the tracker are calibrated from two reference times t0 (activation) and t1
(peak update strength).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseSchedule
from .errors import ConfigError, InvalidInputError

__all__ = [
    "GuidanceConfig",
    "LOG_P_CLAMP",
    "mode_from_string",
    "step_at_time",
    "calibrate_delta",
    "calibrate_tau",
    "calibrated_constants",
    "guidance_scale",
    "posterior_update",
    "combine_scores",
    "guidance_gradient_norm",
]

# log p is materialized via exp only after clamping here
LOG_P_CLAMP = 30.0

MODES = ("fence", "cfg", "none")
SCOPES = ("cluster", "global", "per_node")


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance mode plus the feedback constants.

    mode is one of: "fence" (feedback-controlled scale), "cfg" (fixed scale
    ``fixed_lambda``), "none" (pure unconditional sampling). scope selects
    how per-node posteriors are pooled into scales in fence mode: "cluster"
    (attention k-means, the default), "global" (one shared scale, the wo-C
    ablation), or "per_node". clusters is the k-means cluster count of the
    cluster scope, None for N / 20 (``cluster_count``). An error calls a
    field by its entry in ``names`` (the field name when it has none), so a
    caller can name the settings as its user set them.
    """

    mode: str = "fence"
    fixed_lambda: float = 1.0
    pi: float = 0.5
    lambda_ref: float = 1.6
    t0: float = 0.8
    t1: float = 0.5
    alpha_scale: float = 10.0
    lambda_max: float = 10.0
    scope: str = "cluster"
    clusters: int | None = None
    names: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)

    def name(self, key: str) -> str:
        """How an error calls field ``key``."""
        return self.names.get(key, key)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scope not in SCOPES:
            raise ConfigError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if not (0.0 < self.pi <= 1.0):
            raise InvalidInputError(f"{self.name('pi')} must lie in (0, 1], got {self.pi}")
        if not (1.0 < self.lambda_ref < math.inf):
            raise InvalidInputError(
                f"{self.name('lambda_ref')} must be finite and > 1, got {self.lambda_ref}")
        for key in ("t0", "t1"):
            t = getattr(self, key)
            if not (0.0 < t < 1.0):
                raise InvalidInputError(f"{self.name(key)} must lie in (0, 1), got {t}")
        if not (0.0 < self.alpha_scale < math.inf):
            raise InvalidInputError(
                f"{self.name('alpha_scale')} must be finite and > 0, got {self.alpha_scale}")
        if not (1.0 <= self.lambda_max < math.inf):
            raise InvalidInputError(
                f"{self.name('lambda_max')} must be finite and >= 1, got {self.lambda_max}")
        if not math.isfinite(self.fixed_lambda):
            raise InvalidInputError(
                f"{self.name('fixed_lambda')} must be finite, got {self.fixed_lambda}")


def mode_from_string(text: str, name: str = "mode") -> tuple[str, float]:
    """Parse a mode flag: "fence", "none", or "cfg:<lambda>"; an error calls
    the setting ``name``."""
    text = text.strip()
    if text in ("fence", "none"):
        return text, 1.0
    if text.startswith("cfg:"):
        try:
            return "cfg", float(text[4:])
        except ValueError:
            raise ConfigError(f"bad fixed scale in {name} {text!r}") from None
    raise ConfigError(f"{name} must be fence, none, or cfg:<lambda>, got {text!r}")


def step_at_time(t: float, n_steps: int) -> int:
    """Map a normalized time t in (0,1] to a step index; t=1 is pure noise (k=K)."""
    k = int(math.floor(t * n_steps + 0.5))  # round half up, platform-stable
    return min(max(k, 1), int(n_steps))


def calibrate_delta(cfg: GuidanceConfig, n_steps: int) -> float:
    """Per-step drift of log p for which (1-t0)*K steps move log p by log p_ref.

    p_ref = (1-pi) * lambda_ref / (lambda_ref - 1) is the p at which the scale
    law gives lambda = lambda_ref, so delta = log(p_ref) / ((1-t0) * K). This
    does not make the scale cross lambda_ref at t0: the tracked state starts
    at log p = 0, where lambda = 1/pi.
    """
    if cfg.pi >= 1.0:
        raise InvalidInputError("delta is undefined at pi=1 (log of zero); "
                                "full confidence needs no calibration")
    arg = (1.0 - cfg.pi) * cfg.lambda_ref / (cfg.lambda_ref - 1.0)
    return math.log(arg) / ((1.0 - cfg.t0) * int(n_steps))


def calibrate_tau(cfg: GuidanceConfig, delta: float, sigma2_t1: float) -> float:
    """Update temperature tau = |2 sigma^2_{t1} delta / alpha_scale|."""
    if not (sigma2_t1 > 0.0):
        raise InvalidInputError(f"sigma2 at t1 must be > 0, got {sigma2_t1}")
    return abs(2.0 * sigma2_t1 * delta / cfg.alpha_scale)


def calibrated_constants(cfg: GuidanceConfig, sched: NoiseSchedule) -> tuple[float, float]:
    """(delta, tau) for a sampling run; inert (0, 0) at pi=1 where lambda is 1."""
    if cfg.pi >= 1.0:
        return 0.0, 0.0
    delta = calibrate_delta(cfg, sched.n_steps)
    k1 = step_at_time(cfg.t1, sched.n_steps)
    sigma2_t1 = sched.sigma2_at(k1)
    if not sigma2_t1 > 0.0:
        # only beta_tilde's step 1 has variance 0, and t1 lands there when t1 K < 1.5
        raise InvalidInputError(
            f"{cfg.name('t1')} = {cfg.t1} falls on step {k1} of K = {sched.n_steps} diffusion"
            f" steps, where the {sched.variance_mode} reverse variance is 0, so the update"
            f" temperature would be 0: use more steps or a larger t1, so that t1 * K >= 1.5"
            f" (K >= 3 at the default t1 = 0.5), or variance_mode = beta")
    tau = calibrate_tau(cfg, delta, sigma2_t1)
    # posterior_update runs at k >= 2 and multiplies by tau / sigma_k^2
    if not math.isfinite(tau / float(sched.sigma2[1:].min())):
        raise InvalidInputError(
            f"{cfg.name('alpha_scale')} = {cfg.alpha_scale} is too small: the update temperature "
            f"tau = 2 sigma^2 delta / alpha_scale, or tau / sigma_k^2, overflows")
    return delta, tau


def guidance_scale(log_posterior, pi: float, lambda_max: float):
    """lambda = p/(p - (1-pi)) clamped to [1, lambda_max]; saturates at the pole.

    p is exp(log_posterior) with the log clamped at +30. Whenever
    p <= (1-pi) the ratio is undefined or negative and the scale saturates
    at lambda_max. Accepts scalars or vectors.
    """
    logp = np.asarray(log_posterior, dtype=np.float64)
    p = np.exp(np.minimum(logp, LOG_P_CLAMP))
    rest = 1.0 - float(pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(p > rest, np.clip(p / (p - rest), 1.0, lambda_max), lambda_max)
    if logp.ndim == 0:
        return float(lam)
    return lam


def posterior_update(log_posterior: np.ndarray, lam: np.ndarray, gap_sq: np.ndarray,
                     gap_dot: np.ndarray, k: int, sched: NoiseSchedule, tau: float,
                     delta: float) -> np.ndarray:
    """One feedback step of every node's log-posterior, from the reverse-mean gap.

    With Delta = mean_cond - mean_uncond over a node's row and r = x_{k-1} -
    mean_lam the step's residual from the guided mean mean_uncond + lam Delta,

    log p += tau/sigma_k^2 ((lam - 1/2) |Delta|^2 + <r, Delta>) - delta,

    which is exactly the kernel log-ratio -tau/(2 sigma_k^2) (|x_{k-1} -
    mean_cond|^2 - |x_{k-1} - mean_uncond|^2) - delta: a drift that is >= 0
    wherever lam >= 1/2, an innovation <r, Delta>, and the offset delta.
    ``lam``, ``gap_sq`` = |Delta|^2 and ``gap_dot`` = <r, Delta> hold one entry
    per node row, in log_posterior's shape (N,) or (S, N).
    """
    logp = np.asarray(log_posterior, dtype=np.float64)
    lam, gap_sq, gap_dot = (np.asarray(a, dtype=np.float64) for a in (lam, gap_sq, gap_dot))
    if logp.ndim not in (1, 2) or any(a.shape != logp.shape for a in (lam, gap_sq, gap_dot)):
        raise InvalidInputError(
            f"posterior_update needs one entry per node row: log_posterior {logp.shape},"
            f" lam {lam.shape}, gap_sq {gap_sq.shape}, gap_dot {gap_dot.shape}")
    sigma2 = sched.sigma2_at(k)
    if sigma2 <= 0.0:
        raise InvalidInputError(f"sigma_k^2 = 0 at step {k}: posterior update undefined")
    return logp + tau / sigma2 * ((lam - 0.5) * gap_sq + gap_dot) - delta


def combine_scores(
    eps_uncond: np.ndarray, eps_cond: np.ndarray, lambda_per_node: np.ndarray
) -> np.ndarray:
    """Row i of output = eps_uncond_i + lambda_i (eps_cond_i - eps_uncond_i).

    The rows are those of an (N, T) grid with lambda (N,), or of an
    (S, N, T) stack with lambda (S, N). Evaluated as (1-lambda) eps_uncond
    + lambda eps_cond, which is the same interpolant but exact at lambda = 0
    and lambda = 1.
    """
    eu = np.asarray(eps_uncond, dtype=np.float64)
    ec = np.asarray(eps_cond, dtype=np.float64)
    lam = np.asarray(lambda_per_node, dtype=np.float64)
    if eu.shape != ec.shape or eu.ndim not in (2, 3):
        raise InvalidInputError(f"combine_scores shapes must match: {eu.shape} vs {ec.shape}")
    if lam.shape != eu.shape[:-1]:
        raise InvalidInputError(f"lambda must have one entry per node, got shape {lam.shape}")
    lam_col = lam[..., None]
    return (1.0 - lam_col) * eu + lam_col * ec


def guidance_gradient_norm(gap_sq: np.ndarray, k: int, sched: NoiseSchedule) -> np.ndarray:
    """Per-node L2 norm of the conditional-minus-unconditional score gap, from
    each node's |eps_cond - eps_uncond|^2: (N,) or (S, N) as ``gap_sq`` is."""
    return np.sqrt(np.asarray(gap_sq, dtype=np.float64)) / np.sqrt(1.0 - sched.alpha_bar_at(k))
