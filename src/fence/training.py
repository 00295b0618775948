"""Two-stage denoiser training: unconditional first, conditional fine-tune.

Stage 1 learns the grid prior from unconditional contexts only. Stage 2
starts from those weights and teaches the network to use observations by
re-hiding a random fraction of the observed entries of each window
(patch-structured, like the evaluation masks) and scoring the noise
prediction only on the re-hidden part. Validation draws are replayed from
a fixed seed every epoch so early stopping compares like with like.

A split holds its windows as one (W, N, T) values array and one mask
array. Each window draws its own step, noise and (stage 2) re-hidden
entries, in that order, as plain arrays; a minibatch then stacks them into
one (B, N, T) forward with per-row steps under one stacked context, so one
tape and one backward serve the whole minibatch. Validation runs the same
stacked loss without a tape, in chunks of batch_size windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .backends import ConditioningContext
from .diffusion import NoiseSchedule, q_sample
from .errors import DivergenceError, InvalidInputError
from .grid import DatasetSplit
from .masking import MaskPatternConfig, mask_sr_tc
from .neural import NetConfig, NeuralDenoiser

__all__ = [
    "TrainConfig", "TrainResult", "Adam",
    "train_unconditional", "finetune_conditional",
]

# step decay of the learning rate: times LR_DECAY_FACTOR at each of these
# fractions of the epoch budget
LR_DECAY_POINTS = (0.75, 0.90)
LR_DECAY_FACTOR = 0.1
# longest re-hidden patch of a stage-2 window, in time steps
REMASK_PATCH = 12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    lr: float = 2e-3
    patience: int = 20
    weight_decay: float = 1e-6
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise InvalidInputError("epochs, batch_size >= 1 and patience >= 0 required")
        if not (0.0 < self.lr < math.inf):
            raise InvalidInputError(f"lr must be finite and > 0, got {self.lr}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise InvalidInputError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainResult:
    model: NeuralDenoiser
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1


class Adam:
    """Adam with coupled L2 regularization (decay added to the gradient).

    The weights and both moments are three flat float64 vectors in parameter
    order, and each parameter's ``value`` becomes a view into the weights, so
    a step runs each elementwise formula once over every parameter."""

    def __init__(self, params: dict[str, ad.Tensor], lr: float,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.w = np.concatenate([t.value for t in params.values()], axis=None)
        self.m = np.zeros_like(self.w)
        self.v = np.zeros_like(self.w)
        start = 0
        for tensor in params.values():
            end = start + tensor.value.size
            tensor.value = self.w[start:end].reshape(tensor.value.shape)
            start = end

    def step(self):
        missing = [name for name, t in self.params.items() if t.grad is None]
        if missing:
            raise InvalidInputError(f"Adam step without a gradient for {missing}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        g = np.concatenate([t.grad for t in self.params.values()], axis=None)
        g += self.weight_decay * self.w
        self.m *= b1
        self.m += (1.0 - b1) * g
        self.v *= b2
        self.v += (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        self.w -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    lr = cfg.lr
    for point in LR_DECAY_POINTS:
        if epoch >= point * cfg.epochs:
            lr *= LR_DECAY_FACTOR
    return lr


def _remask(mask, rng):
    """Re-hide part of the observed entries; returns (context mask, loss weights)."""
    n, t = mask.shape
    alpha = 0.1 + 0.8 * rng.random()
    remask_seed = int(rng.integers(2**63))
    pattern = MaskPatternConfig("SR-TC", alpha, min(REMASK_PATCH, t),
                                seed=remask_seed)
    visible = mask_sr_tc(n, t, pattern).entries  # 0 = re-hidden
    return mask * visible, mask * (1 - visible)


def _draw(values, mask, sched: NoiseSchedule, rng, conditional: bool):
    """One window's training inputs from its (N, T) values and mask rows:
    draws its step k, noise, and (stage 2) re-hidden entries from rng, in
    that order. Returns (k, x_k, eps, context observations, context mask,
    loss weights); the observations are the window's values, which the
    stacked context zeroes under the context mask (all zero in stage 1)."""
    k = int(rng.integers(1, sched.n_steps + 1))
    eps = rng.standard_normal(values.shape)
    if conditional:
        keep, weights = _remask(mask, rng)
    else:
        keep, weights = np.zeros(values.shape), mask
    return k, q_sample(values, k, eps, sched), eps, values, keep, weights


def _stacked_loss(model: NeuralDenoiser, draws) -> ad.Tensor:
    """Mean over the draws of each window's masked eps-matching loss (its
    weighted squared error over its weight total), from one forward of the
    stacked windows under one stacked context."""
    ks, x_k, eps, observed, keep, w = (np.stack(a) for a in zip(*draws))
    eps_hat, _ = model.forward_tensor(x_k, ks, ConditioningContext(observed, keep))
    row_scale = 1.0 / (np.maximum(w.sum(axis=(1, 2)), 1.0) * len(draws))
    diff = ad.subtract(eps_hat, ad.constant(eps))
    sq = ad.multiply(diff, diff)
    return ad.sum_all(ad.multiply(sq, ad.constant(w * row_scale[:, None, None])))


def _epoch(model, windows, sched, cfg, rng, optimizer, conditional, step_counter):
    values, masks = windows
    order = rng.permutation(len(values))
    total, count = 0.0, 0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        ad.zero_grads(model.parameters().values())
        batch_loss = _stacked_loss(
            model, [_draw(values[i], masks[i], sched, rng, conditional) for i in batch])
        step_counter[0] += 1
        if not np.isfinite(batch_loss.value):
            raise DivergenceError(
                f"training loss became non-finite ({batch_loss.value})",
                step=step_counter[0])
        ad.backward(batch_loss)
        optimizer.step()
        total += float(batch_loss.value)
        count += 1
    return total / max(count, 1)


def _validation_loss(model, windows, sched, cfg, conditional) -> float:
    values, masks = windows
    if not len(values):
        return float("nan")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ 0x5EED))
    total = 0.0
    with ad.no_record():
        for start in range(0, len(values), cfg.batch_size):
            chunk = range(start, min(start + cfg.batch_size, len(values)))
            draws = [_draw(values[i], masks[i], sched, rng, conditional) for i in chunk]
            total += float(_stacked_loss(model, draws).value) * len(chunk)
    return total / len(values)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss raises DivergenceError
def _fit(model, data: DatasetSplit, cfg: TrainConfig, sched: NoiseSchedule,
         conditional: bool) -> TrainResult:
    if not len(data.train[0]):
        raise InvalidInputError("training split is empty")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    optimizer = Adam(model.parameters(), cfg.lr, cfg.weight_decay)
    result = TrainResult(model)
    best_val = float("inf")
    best_state = model.state_dict()
    since_best = 0
    step_counter = [0]
    for epoch in range(cfg.epochs):
        optimizer.lr = _lr_at(cfg, epoch)
        train_loss = _epoch(model, data.train, sched, cfg, rng, optimizer,
                            conditional, step_counter)
        val_loss = _validation_loss(model, data.validation, sched, cfg, conditional)
        result.train_losses.append(train_loss)
        result.val_losses.append(val_loss)
        monitored = val_loss if len(data.validation[0]) else train_loss
        if monitored < best_val - 1e-12:
            best_val = monitored
            best_state = model.state_dict()
            result.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if cfg.patience and since_best >= cfg.patience:
                break
    result.model = NeuralDenoiser.from_state_dict(best_state)
    return result


def train_unconditional(data: DatasetSplit, cfg: TrainConfig, *,
                        sched: NoiseSchedule, net_cfg: NetConfig) -> TrainResult:
    """Stage 1 from random weights of net_cfg's shape, seeded by cfg.seed:
    epsilon-matching on unconditional contexts, observed entries only."""
    model = NeuralDenoiser(net_cfg, seed=cfg.seed)
    return _fit(model, data, cfg, sched, conditional=False)


def finetune_conditional(backend: NeuralDenoiser, data: DatasetSplit,
                         cfg: TrainConfig, *, sched: NoiseSchedule) -> TrainResult:
    """Stage 2: a copy of the stage-1 network ``backend``, trained with the same
    objective on re-masked conditional contexts."""
    return _fit(backend.clone(), data, cfg, sched, conditional=True)
