"""FENCE: feedback-controlled classifier-free guidance for diffusion
imputation of spatial-temporal grids, with an exactly-verifiable Gaussian
oracle backend and a small trainable denoiser."""

from .backends import (ConditioningContext, ContaminatedBackend, DenoiserBackend,
                       OracleBackend, node_affinity, unconditional_context)
from .clustering import cluster_scales, kmeans
from .diffusion import (NoiseSchedule, noise_from_score, q_sample,
                        quadratic_schedule, reverse_mean, reverse_step,
                        sincos_embedding)
from .errors import (ConfigError, DataError, DivergenceError, FenceError,
                     InvalidInputError)
from .grid import (DatasetSplit, MaskMatrix, TrafficGrid,
                   chronological_split, load_grid_csv, load_mask_csv,
                   observed_stats, save_grid_csv, save_mask_csv, sliding_windows)
from .guidance import (GuidanceConfig, calibrate_delta, calibrate_tau,
                       calibrated_constants, combine_scores, guidance_gradient_norm,
                       guidance_scale, mode_from_string, posterior_update,
                       step_at_time)
from .masking import (MaskPatternConfig, mask_sc_tc, mask_sr_tc, patch_bounds,
                      ring_communities)
from .metrics import crps_masked, point_metrics
from .neural import NetConfig, NeuralDenoiser
from .checkpoint import load_checkpoint, save_checkpoint
from .sampler import ImputationResult, emit_trace, impute
from .training import (TrainConfig, TrainResult, finetune_conditional,
                       train_unconditional)
from .world import (GaussianOracleWorld, make_gaussian_world,
                    observations_from_mask, ring_hops)

__version__ = "0.1.0"

__all__ = [
    "ConditioningContext", "ContaminatedBackend", "DenoiserBackend",
    "OracleBackend", "node_affinity", "unconditional_context",
    "cluster_scales", "kmeans",
    "NoiseSchedule", "noise_from_score", "q_sample", "quadratic_schedule",
    "reverse_mean", "reverse_step", "sincos_embedding",
    "ConfigError", "DataError", "DivergenceError", "FenceError",
    "InvalidInputError",
    "DatasetSplit", "MaskMatrix", "TrafficGrid",
    "chronological_split", "load_grid_csv", "load_mask_csv",
    "observed_stats", "save_grid_csv", "save_mask_csv", "sliding_windows",
    "GuidanceConfig", "calibrate_delta", "calibrate_tau",
    "calibrated_constants", "combine_scores", "guidance_gradient_norm",
    "guidance_scale", "mode_from_string", "posterior_update", "step_at_time",
    "MaskPatternConfig", "mask_sc_tc", "mask_sr_tc", "patch_bounds",
    "ring_communities",
    "crps_masked", "point_metrics",
    "NetConfig", "NeuralDenoiser",
    "load_checkpoint", "save_checkpoint",
    "ImputationResult", "emit_trace", "impute",
    "TrainConfig", "TrainResult", "finetune_conditional", "train_unconditional",
    "GaussianOracleWorld", "make_gaussian_world", "observations_from_mask",
    "ring_hops",
    "__version__",
]
