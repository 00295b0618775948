"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Just enough machinery for the denoiser network: broadcast-aware arithmetic,
batched matmul, softmax, relu, and reshape/transpose. The
graph is the tape: every op returns a fresh node holding its parents and
vector-Jacobian callbacks, and backward() walks the nodes in reverse
topological order. Inside ``no_record()`` nodes keep no parents, so
inference holds no activation longer than the next op needs it.
Framework-free on purpose so the gradients themselves are testable against
finite differences.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Tensor", "parameter", "constant", "add", "subtract", "multiply", "matmul",
    "reshape", "transpose", "relu", "softmax", "sum_all", "scale",
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
    __slots__ = ("value", "grad", "parents", "requires_grad")

    def __init__(self, value, parents=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        # parents: tuple of (Tensor, vjp) where vjp maps output-grad -> parent-grad
        self.parents = parents if _RECORDING.get() else ()
        self.requires_grad = requires_grad or any(p.requires_grad for p, _ in self.parents)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim


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


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value + b.value, (
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ))
    return out


def subtract(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value - b.value, (
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    ))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value * b.value, (
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.value * c, ((a, lambda g: g * c),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    out = Tensor(a.value @ b.value, (
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)),
    ))
    return out


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.value.shape
    return Tensor(a.value.reshape(shape), ((a, lambda g: g.reshape(old)),))


def transpose(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return Tensor(a.value.transpose(axes), ((a, lambda g: g.transpose(inverse)),))


def relu(a: Tensor) -> Tensor:
    keep = a.value > 0.0
    return Tensor(np.where(keep, a.value, 0.0), ((a, lambda g: g * keep),))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; the max shift is constant w.r.t. gradients."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, s=s):
        return (g - np.sum(g * s, axis=-1, keepdims=True)) * s

    return Tensor(s, ((a, vjp),))


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape
    return Tensor(a.value.sum(), ((a, lambda g: np.broadcast_to(g, shape)),))


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
        for parent, _ in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf.

    An interior node's grad is dropped once its VJPs have run, so the walk
    holds only the grads of the frontier it has not passed yet.
    """
    if loss.value.shape != ():
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    loss.grad = np.ones(())
    for node in reversed(_topological_order(loss)):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            if not parent.requires_grad:
                continue
            g = vjp(node.grad)
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad = parent.grad + g
        if node.parents:
            node.grad = None


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
