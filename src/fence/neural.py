"""Small trainable denoiser: temporal attention, then spatial attention.

Desk-scale transformer over the N x T grid. Inputs [x_k, observed, mask]
are lifted to d_model and combined with a sinusoidal diffusion-step
embedding, a sinusoidal time-slice embedding, and a learned per-node
embedding; the node and time embeddings are structural priors that stay in
place for unconditional contexts (only observations and mask are zeroed).
Each block runs per-node attention across time, then per-slice attention
across nodes, then a feed-forward layer, all with residual connections.
The last spatial layer's attention, averaged over heads and time slices,
is exported as the node-affinity matrix used for cluster-aware guidance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backends import ConditioningContext, DenoiserBackend
from .diffusion import sincos_embedding
from .errors import DataError, InvalidInputError

__all__ = ["NetConfig", "NeuralDenoiser"]

EMBED_DIM = 128  # sinusoidal width for step and time-slice encodings


@dataclass(frozen=True)
class NetConfig:
    n_nodes: int
    d_model: int = 16
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 0  # 0 -> 2*d_model

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidInputError("n_nodes must be >= 1")
        if self.d_model < 1 or self.n_layers < 1 or self.n_heads < 1:
            raise InvalidInputError("d_model, n_layers, n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise InvalidInputError(
                f"n_heads {self.n_heads} must divide d_model {self.d_model}"
            )
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 2 * self.d_model)


_HPARAMS = ("n_nodes", "d_model", "n_layers", "n_heads", "d_ff")


def _linear_init(rng, fan_in, fan_out):
    return rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)


def _param_shapes(cfg: NetConfig):
    """Yield (name, shape) of every weight, in initialization order."""
    d = cfg.d_model

    def lin(name, fan_in, fan_out):
        yield f"{name}/W", (fan_in, fan_out)
        yield f"{name}/b", (fan_out,)

    yield from lin("in_proj", 3, d)
    yield from lin("step_proj", EMBED_DIM, d)
    yield from lin("time_proj", EMBED_DIM, d)
    yield "node_embed", (cfg.n_nodes, d)
    for i in range(cfg.n_layers):
        for kind in ("temporal", "spatial"):
            for w in ("Wq", "Wk", "Wv", "Wo"):
                yield f"layer{i}/{kind}/{w}", (d, d)
        yield from lin(f"layer{i}/ffn/1", d, cfg.d_ff)
        yield from lin(f"layer{i}/ffn/2", cfg.d_ff, d)
    yield from lin("head/1", d, d)
    yield from lin("head/2", d, 1)


class NeuralDenoiser(DenoiserBackend):
    """Noise predictor with learnable weights and exportable spatial attention."""

    def __init__(self, cfg: NetConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.Generator(np.random.Philox(key=seed))
        p: dict[str, ad.Tensor] = {}
        for name, shape in _param_shapes(cfg):
            if name.endswith("/b"):
                value = np.zeros(shape)
            elif name == "node_embed":
                value = rng.standard_normal(shape) / math.sqrt(shape[1])
            else:
                value = _linear_init(rng, *shape)
            p[name] = ad.parameter(value)
        # start near zero output so early training is stable
        p["head/2/W"].value = p["head/2/W"].value * 0.01
        self.params: dict[str, ad.Tensor] = p

    # -- weight plumbing -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: t.value.copy() for name, t in self.params.items()}
        for key in _HPARAMS:
            state[f"hparams/{key}"] = np.float64(getattr(self.cfg, key))
        return state

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "NeuralDenoiser":
        """Model from a state dict; DataError unless it is exactly one model's finite weights."""
        hparams = {}
        for key in _HPARAMS:
            name = f"hparams/{key}"
            if name not in state:
                raise DataError(f"checkpoint misses hyperparameter {name!r}")
            value = np.asarray(state[name])
            if value.shape != () or not np.isfinite(value) or value != np.round(value):
                raise DataError(f"hyperparameter {name!r} must be an integer scalar,"
                                f" got {value.tolist()!r}")
            hparams[key] = int(value)
        try:
            cfg = NetConfig(**hparams)
        except InvalidInputError as exc:
            raise DataError(f"checkpoint hyperparameters: {exc}") from exc
        # shapes are checked before anything is allocated, so a checkpoint
        # cannot make the model larger than the tensors it carries
        params = {}
        for name, shape in _param_shapes(cfg):
            if name not in state:
                raise DataError(f"checkpoint misses tensor {name!r}")
            if np.shape(state[name]) != shape:
                raise DataError(f"tensor {name!r}: checkpoint shape {np.shape(state[name])}"
                                f" vs model shape {shape}")
            params[name] = ad.parameter(np.array(state[name], dtype=np.float64))
            if not np.isfinite(params[name].value).all():
                raise DataError(f"tensor {name!r} holds a non-finite value")
        stray = set(state) - set(params) - {f"hparams/{key}" for key in _HPARAMS}
        if stray:
            raise DataError(f"checkpoint carries unknown tensors {sorted(stray)}")
        # the validated tensors are the weights: no random initialization
        model = cls.__new__(cls)
        model.cfg, model.params = cfg, params
        return model

    def clone(self) -> "NeuralDenoiser":
        return NeuralDenoiser.from_state_dict(self.state_dict())

    def parameters(self) -> dict[str, ad.Tensor]:
        return self.params

    # -- forward -------------------------------------------------------------

    def _attention(self, h: ad.Tensor, prefix: str) -> tuple[ad.Tensor, np.ndarray]:
        """Multi-head self-attention over axis -2 of (..., L, d); returns probs."""
        p = self.params
        return ad.attention(h, p[f"{prefix}/Wq"], p[f"{prefix}/Wk"], p[f"{prefix}/Wv"],
                            p[f"{prefix}/Wo"], self.cfg.n_heads)

    def forward_tensor(self, x_k: np.ndarray, k,
                       ctx: ConditioningContext) -> tuple[ad.Tensor, np.ndarray]:
        """Build the tape for a batch x_k (B, N, T).

        k is one step for every row or a (B,) array of per-row steps, and ctx
        is one (N, T) context or a stacked (B, N, T) one; training stacks a
        minibatch of windows this way. Returns the eps_hat tensor (B, N, T)
        and the attention ndarray (B, N, N). Rows do not interact, so row i
        is the same whatever the rest of the batch holds.
        """
        x = np.asarray(x_k, dtype=np.float64)
        if x.ndim != 3:
            raise InvalidInputError(f"expected a (B, N, T) batch, got shape {x.shape}")
        b, n, t = x.shape
        if n != self.cfg.n_nodes:
            raise InvalidInputError(
                f"model was built for {self.cfg.n_nodes} nodes, got {n}")
        if ctx.observed.shape not in ((n, t), (b, n, t)):
            raise InvalidInputError(
                f"context shape {ctx.observed.shape} vs input {x.shape}")
        steps = np.asarray(k, dtype=np.float64)
        if steps.shape not in ((), (b,)):
            raise InvalidInputError(f"k must be one step or {b} steps, got shape {steps.shape}")
        p = self.params
        d = self.cfg.d_model

        feats = np.stack(np.broadcast_arrays(x, ctx.observed, ctx.mask), axis=-1)
        h = ad.add(ad.matmul(ad.constant(feats), p["in_proj/W"]), p["in_proj/b"])

        # one (1, EMBED) row per step, projected one row at a time, so a row's
        # step embedding is the same whether k is shared or per row
        step_vec = sincos_embedding(steps.reshape(-1, 1), EMBED_DIM)  # (1 or B, 1, EMBED)
        step_emb = ad.add(ad.matmul(ad.constant(step_vec), p["step_proj/W"]),
                          p["step_proj/b"])
        h = ad.add(h, ad.reshape(step_emb, (len(step_vec), 1, 1, d)))

        time_vec = sincos_embedding(np.arange(t, dtype=np.float64), EMBED_DIM)
        time_emb = ad.add(ad.matmul(ad.constant(time_vec), p["time_proj/W"]),
                          p["time_proj/b"])
        h = ad.add(h, ad.reshape(time_emb, (1, 1, t, d)))
        h = ad.add(h, ad.reshape(p["node_embed"], (1, n, 1, d)))

        # attention runs over axis -2 of the 4-D activations rather than on
        # reshaped (B*N, T, d) copies: that adds no reshape nodes or copies,
        # and keeps every matmul on the views the checkpoints were pinned
        # with. Each residual branch is dropped once it is added into h, so
        # without a tape it is freed before the next attention runs
        spatial_probs = None
        for i in range(self.cfg.n_layers):
            # temporal attention per (row, node), then spatial per (row, slice)
            h = ad.add(h, self._attention(h, f"layer{i}/temporal")[0])
            h_sp = ad.transpose(h, (0, 2, 1, 3))  # (B, T, N, d)
            attn_out, spatial_probs = self._attention(h_sp, f"layer{i}/spatial")
            h = ad.transpose(ad.add(h_sp, attn_out), (0, 2, 1, 3))
            del h_sp, attn_out
            ff = ad.mlp(h, p[f"layer{i}/ffn/1/W"], p[f"layer{i}/ffn/1/b"],
                        p[f"layer{i}/ffn/2/W"], p[f"layer{i}/ffn/2/b"])
            h = ad.add(h, ff)
            del ff

        eps = ad.mlp(h, p["head/1/W"], p["head/1/b"], p["head/2/W"], p["head/2/b"])
        eps = ad.reshape(eps, (b, n, t))
        # (B, T, heads, N, N) -> one row-stochastic (N, N) per batch row
        attn = spatial_probs.mean(axis=(1, 2))
        return eps, attn

    def predict(self, x_k, k, ctx):
        if np.ndim(k) or ctx.observed.ndim != 2:
            raise InvalidInputError("predict takes one step k and an (N, T) context")
        # no tape: a tape over a whole ensemble would hold every activation
        # of every row until the call returns
        with ad.no_record():
            eps, attn = self.forward_tensor(x_k, k, ctx)
        return eps.value, attn
