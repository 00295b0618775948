"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Just enough machinery for the denoiser network: broadcast-aware arithmetic,
batched matmul, reshape/transpose, and two fused blocks, multi-head
``attention`` and the two-layer perceptron ``mlp``. The graph is the tape:
every op returns one fresh node ``Tensor(value, parents, backprop)``, where
``parents`` is a tuple of Tensors and ``backprop(g)`` maps the node's grad
to one grad per parent, in parent order. backward() walks the nodes in
reverse topological order and calls each node's backprop once. A fused
block runs the same numpy calls on the same views as the chain of small
ops it replaces, so its values and gradients are bit-identical to that
chain's, at a fraction of the per-node cost. Inside ``no_record()`` nodes
keep neither parents nor backprop, so inference holds no activation longer
than the next op needs it.
Framework-free on purpose so the gradients themselves are testable against
finite differences.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Tensor", "parameter", "constant", "add", "subtract", "multiply", "matmul",
    "reshape", "transpose", "softmax", "attention", "mlp", "sum_all",
    "backward", "zero_grads", "no_record",
]

_RECORDING: ContextVar[bool] = ContextVar("autodiff_recording", default=True)


@contextmanager
def no_record():
    """Build no tape: nodes made inside keep no parents and cannot backpropagate."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    __slots__ = ("value", "grad", "parents", "backprop", "requires_grad")

    def __init__(self, value, parents=(), backprop=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if not _RECORDING.get():
            parents, backprop = (), None
        self.parents = parents
        self.backprop = backprop
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)


def parameter(value) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def constant(value) -> Tensor:
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value + b.value, (a, b), lambda g: (
        _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value - b.value, (a, b), lambda g: (
        _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value * b.value, (a, b), lambda g: (
        _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    return Tensor(a.value @ b.value, (a, b), lambda g: (
        _unbroadcast(g @ _swap(b.value), a.value.shape),
        _unbroadcast(_swap(a.value) @ g, b.value.shape)))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.value.shape
    return Tensor(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return Tensor(a.value.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array.

    The row max is a running ``np.maximum`` over the last-axis slices, which
    is exact like ``max(axis=-1)`` but faster for rows as short as an
    attention window; the sum keeps numpy's own order.
    """
    top = scores[..., 0]
    for j in range(1, scores.shape[-1]):
        top = np.maximum(top, scores[..., j])
    # exp and normalize in place on the shifted copy, never on ``scores``
    e = scores - top[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention(h: Tensor, Wq: Tensor, Wk: Tensor, Wv: Tensor, Wo: Tensor,
              heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over axis -2 of h (..., L, d) as one node.

    Covers the q/k/v projections, the head split, the scaled scores, the
    softmax, the value mix, the head merge and the output projection.
    Returns the output tensor (..., L, d) and the probabilities
    (..., heads, L, L). h is listed as a parent three times, taking its q,
    k and v grads in that order, so backward sums them as the unfused chain
    did.
    """
    *lead, length, d = h.value.shape
    dh = d // heads
    m = len(lead)
    swap = (*range(m), m + 1, m, m + 2)  # (..., L, heads, dh) <-> (..., heads, L, dh)
    last_two = (*range(m + 1), m + 2, m + 1)
    split_shape, merged_shape = (*lead, length, heads, dh), (*lead, length, d)
    c = 1.0 / math.sqrt(dh)
    q, k, v = ((h.value @ w.value).reshape(split_shape).transpose(swap)
               for w in (Wq, Wk, Wv))
    k_t = k.transpose(last_two)
    probs = softmax((q @ k_t) * c)
    merged = (probs @ v).transpose(swap).reshape(merged_shape)
    out = merged @ Wo.value

    def backprop(g):
        g_merged = g @ _swap(Wo.value)
        g_Wo = _unbroadcast(_swap(merged) @ g, Wo.value.shape)
        g_mix = g_merged.reshape(split_shape).transpose(swap)
        g_probs = g_mix @ _swap(v)
        g_v = _swap(probs) @ g_mix
        g_scores = (g_probs - np.sum(g_probs * probs, axis=-1, keepdims=True)) * probs * c
        g_q = g_scores @ _swap(k_t)
        g_k = (_swap(q) @ g_scores).transpose(last_two)
        g_h, g_w = [], []
        for g_x, w in ((g_q, Wq), (g_k, Wk), (g_v, Wv)):
            g_proj = g_x.transpose(swap).reshape(merged_shape)
            g_h.append(g_proj @ _swap(w.value))
            g_w.append(_unbroadcast(_swap(h.value) @ g_proj, w.value.shape))
        return (*g_h, *g_w, g_Wo)

    return Tensor(out, (h, h, h, Wq, Wk, Wv, Wo), backprop), probs


def mlp(h: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """relu(h W1 + b1) W2 + b2 as one node.

    Biases and relu act in place on the products this node owns. relu is
    ``np.maximum``, so a NaN pre-activation stays NaN rather than turning 0."""
    hidden = h.value @ W1.value
    hidden += b1.value
    keep = hidden > 0.0
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ W2.value
    out += b2.value

    def backprop(g):
        g_hidden = g @ _swap(W2.value)
        g_hidden *= keep
        return (g_hidden @ _swap(W1.value),
                _unbroadcast(_swap(h.value) @ g_hidden, W1.value.shape),
                _unbroadcast(g_hidden, b1.value.shape),
                _unbroadcast(_swap(hidden) @ g, W2.value.shape),
                _unbroadcast(g, b2.value.shape))

    return Tensor(out, (h, W1, b1, W2, b2), backprop)


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape
    return Tensor(a.value.sum(), (a,), lambda g: (np.broadcast_to(g, shape),))


def _topological_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

    Each interior node's backprop runs once, and its grad is dropped right
    after, so the walk holds only the grads of the frontier it has not
    passed yet. A parent listed twice sums its grads in parent order.
    """
    if loss.value.shape != ():
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    loss.grad = np.ones(())
    for node in reversed(_topological_order(loss)):
        if not node.parents:
            continue
        for parent, g in zip(node.parents, node.backprop(node.grad)):
            if not parent.requires_grad:
                continue
            if parent.grad is not None:
                parent.grad = parent.grad + g
            elif parent.parents:
                parent.grad = g
            else:
                # a leaf keeps its grad past backward: give it its own
                # writable array, never a view shared with another node
                parent.grad = np.array(g, dtype=np.float64)
        node.grad = None


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
