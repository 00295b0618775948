import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fence import ConditioningContext, NetConfig, NeuralDenoiser
from fence import autodiff as ad


def fd_check(build, params, h=1e-6, rel=1e-6):
    """Central finite differences over every entry of every parameter."""
    loss = build()
    ad.zero_grads(params)
    ad.backward(loss)
    grads = [np.array(p.grad, dtype=np.float64) for p in params]
    for p, g in zip(params, grads):
        flat = p.value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(build().value)
            flat[i] = orig - h
            dn = float(build().value)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-10)
            assert abs(fd - gflat[i]) / denom < rel, (fd, gflat[i])


def test_add_subtract_multiply_with_broadcasting():
    rng = np.random.default_rng(20)
    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal((1, 4)))  # broadcast over rows
    c = ad.parameter(rng.standard_normal((3, 4)))
    fd_check(lambda: ad.sum_all(ad.multiply(ad.subtract(ad.add(a, b), c), c)),
             [a, b, c])


def test_matmul_2d():
    rng = np.random.default_rng(21)
    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal((4, 2)))
    fd_check(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])


def test_matmul_batched():
    rng = np.random.default_rng(22)
    a = ad.parameter(rng.standard_normal((2, 3, 4)))
    b = ad.parameter(rng.standard_normal((2, 4, 5)))
    weight = ad.constant(rng.standard_normal((2, 3, 5)))
    fd_check(lambda: ad.sum_all(ad.multiply(ad.matmul(a, b), weight)), [a, b])


def test_matmul_batched_against_broadcast_weight():
    rng = np.random.default_rng(23)
    a = ad.parameter(rng.standard_normal((2, 3, 4)))
    w = ad.parameter(rng.standard_normal((4, 5)))  # shared across the batch
    fd_check(lambda: ad.sum_all(ad.matmul(a, w)), [a, w])


def test_reshape_transpose():
    rng = np.random.default_rng(24)
    a = ad.parameter(rng.standard_normal((2, 6)))
    weight = ad.constant(rng.standard_normal((2, 3, 2)))

    def build():
        t = ad.transpose(ad.reshape(a, (2, 2, 3)), (0, 2, 1))
        return ad.sum_all(ad.multiply(t, weight))

    fd_check(build, [a])


def test_relu_gradient_away_from_kink():
    # mlp with identity weights and zero biases is relu
    h = ad.parameter(np.array([[-2.0, -0.5, 0.5, 2.0]]))
    eye, zero = ad.parameter(np.eye(4)), ad.parameter(np.zeros(4))
    out = ad.mlp(h, eye, zero, eye, zero)
    np.testing.assert_array_equal(out.value, [[0.0, 0.0, 0.5, 2.0]])
    ad.backward(ad.sum_all(out))
    np.testing.assert_array_equal(h.grad, [[0.0, 0.0, 1.0, 1.0]])


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(25)
    s = ad.softmax(rng.standard_normal((3, 5)))
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s > 0).all()
    # the softmax VJP lives inside attention
    h = ad.parameter(rng.standard_normal((2, 5, 4)))
    weights = [ad.parameter(rng.standard_normal((4, 4)) / 2.0) for _ in range(4)]
    upstream = ad.constant(rng.standard_normal((2, 5, 4)))
    # central differences of this O(10) loss carry about 1e-9 of round-off,
    # which is 1e-5 of its smallest gradient entries
    fd_check(lambda: ad.sum_all(ad.multiply(ad.attention(h, *weights, 2)[0], upstream)),
             [h, *weights], rel=1e-5)


def test_softmax_is_shift_stable():
    s = ad.softmax(np.array([[1000.0, 1001.0, 1002.0]]))
    assert np.isfinite(s).all()
    np.testing.assert_allclose(s, ad.softmax(np.array([[0.0, 1.0, 2.0]])), rtol=1e-12)


# -- the fused blocks against the chain of small ops they replace -------------

def _softmax_chain(a):
    """The softmax node the attention chain used: max shift, exp, normalize."""
    s = np.exp(a.value - a.value.max(axis=-1, keepdims=True))
    s = s / s.sum(axis=-1, keepdims=True)
    return ad.Tensor(s, (a,), lambda g: ((g - np.sum(g * s, axis=-1, keepdims=True)) * s,))


def _relu_chain(a):
    keep = a.value > 0.0
    return ad.Tensor(np.where(keep, a.value, 0.0), (a,), lambda g: (g * keep,))


def _attention_chain(h, Wq, Wk, Wv, Wo, heads):
    """Multi-head attention as 17 small nodes."""
    *lead, length, d = h.value.shape
    dh = d // heads
    m = len(lead)
    swap = (*range(m), m + 1, m, m + 2)

    def split(w):
        return ad.transpose(ad.reshape(ad.matmul(h, w), (*lead, length, heads, dh)), swap)

    q, k, v = split(Wq), split(Wk), split(Wv)
    k_t = ad.transpose(k, (*range(m + 1), m + 2, m + 1))
    probs = _softmax_chain(ad.multiply(ad.matmul(q, k_t), ad.constant(1.0 / math.sqrt(dh))))
    mixed = ad.transpose(ad.matmul(probs, v), swap)
    return ad.matmul(ad.reshape(mixed, (*lead, length, d)), Wo), probs.value


def _mlp_chain(h, W1, b1, W2, b2):
    return ad.add(ad.matmul(_relu_chain(ad.add(ad.matmul(h, W1), b1)), W2), b2)


def _run(op, inputs, upstream):
    """op's outputs, and the grads of every input under the loss <out, upstream>."""
    ad.zero_grads(inputs)
    out = op(*inputs)
    out, extra = out if isinstance(out, tuple) else (out, None)
    ad.backward(ad.sum_all(ad.multiply(out, ad.constant(upstream))))
    return out.value, extra, [t.grad for t in inputs]


def _assert_fused_matches(fused, chain, inputs, upstream):
    value, extra, grads = _run(fused, inputs, upstream)
    want_value, want_extra, want_grads = _run(chain, inputs, upstream)
    assert value.tobytes() == want_value.tobytes()
    if want_extra is not None:
        assert extra.tobytes() == want_extra.tobytes()
    for got, want in zip(grads, want_grads):
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


lead_dims = st.lists(st.integers(1, 3), max_size=2)


@settings(max_examples=60, deadline=None)
@given(lead=lead_dims, length=st.integers(1, 13), heads=st.integers(1, 3),
       dh=st.integers(1, 4), shift=st.sampled_from([1.0, 300.0]),
       seed=st.integers(0, 2**32 - 1))
def test_attention_matches_the_unfused_chain(lead, length, heads, dh, shift, seed):
    # shift = 300 puts scores far beyond exp's range of about 700: the max
    # shift must keep them finite
    rng = np.random.default_rng(seed)
    d = heads * dh
    h = ad.parameter(shift * rng.standard_normal((*lead, length, d)))
    weights = [ad.parameter(rng.standard_normal((d, d)) / math.sqrt(d)) for _ in range(4)]
    upstream = rng.standard_normal((*lead, length, d))
    _assert_fused_matches(lambda *t: ad.attention(*t, heads),
                          lambda *t: _attention_chain(*t, heads), [h, *weights], upstream)
    assert np.isfinite(ad.attention(h, *weights, heads)[1]).all()


@settings(max_examples=60, deadline=None)
@given(lead=lead_dims, length=st.integers(1, 13), d=st.integers(1, 6),
       d_ff=st.integers(1, 8), d_out=st.integers(1, 6), kink=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_mlp_matches_the_unfused_chain(lead, length, d, d_ff, d_out, kink, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((*lead, length, d))
    b1 = rng.standard_normal(d_ff)
    if kink:
        # zero rows under a zero bias sit exactly on relu's kink, where the
        # gradient is taken as 0
        h[..., ::2, :] = 0.0
        b1[:] = 0.0
    inputs = [ad.parameter(h), ad.parameter(rng.standard_normal((d, d_ff))),
              ad.parameter(b1), ad.parameter(rng.standard_normal((d_ff, d_out))),
              ad.parameter(rng.standard_normal(d_out))]
    upstream = rng.standard_normal((*lead, length, d_out))
    _assert_fused_matches(ad.mlp, _mlp_chain, inputs, upstream)


def test_mlp_passes_a_nan_pre_activation_through():
    # each row is its own unit: relu of (nan, -1, -0, 0, 2) under unit weights
    pre = np.array([[np.nan], [-1.0], [-0.0], [0.0], [2.0]])
    one, zero = ad.constant(np.ones((1, 1))), ad.constant(np.zeros(1))
    out = ad.mlp(ad.constant(pre), one, zero, one, zero).value
    assert np.isnan(out[0, 0])
    assert out[1:].tobytes() == np.array([[0.0], [0.0], [0.0], [2.0]]).tobytes()


def test_scale_and_shared_subexpression():
    rng = np.random.default_rng(27)
    a = ad.parameter(rng.standard_normal((3,)))

    def build():
        doubled = ad.multiply(a, ad.constant(2.0))
        # a appears on two paths; gradients must accumulate
        return ad.sum_all(ad.multiply(doubled, a))

    fd_check(build, [a])


def test_leaf_grads_are_writable_and_unshared():
    # add of equal shapes hands both parents the same array, and sum_all a
    # read-only broadcast view; backward gives each leaf its own copy
    a, b = ad.parameter(np.ones((2, 3))), ad.parameter(np.ones((2, 3)))
    ad.backward(ad.sum_all(ad.add(a, b)))
    c = ad.parameter(np.ones(3))
    ad.backward(ad.sum_all(c))
    model = NeuralDenoiser(NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2), seed=2)
    rng = np.random.default_rng(26)
    ctx = ConditioningContext(rng.standard_normal((3, 5)), rng.integers(0, 2, (3, 5)))
    eps_hat, _ = model.forward_tensor(rng.standard_normal((2, 3, 5)), 4, ctx)
    ad.backward(ad.sum_all(ad.multiply(eps_hat, eps_hat)))
    leaves = [a, b, c, *model.parameters().values()]
    for i, leaf in enumerate(leaves):
        assert leaf.grad.flags.writeable
        assert not any(np.shares_memory(leaf.grad, other.grad) for other in leaves[i + 1:])
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, 1.0)


def test_backward_requires_scalar():
    a = ad.parameter(np.ones((2, 2)))
    with pytest.raises(Exception):
        ad.backward(ad.add(a, a))


def test_constants_carry_no_grad():
    a = ad.parameter(np.ones(3))
    c = ad.constant(np.ones(3))
    loss = ad.sum_all(ad.multiply(a, c))
    ad.backward(loss)
    assert c.grad is None or not c.requires_grad
    np.testing.assert_array_equal(a.grad, 1.0)


def test_zero_grads_resets():
    a = ad.parameter(np.ones(2))
    ad.backward(ad.sum_all(a))
    assert a.grad is not None
    ad.zero_grads([a])
    assert a.grad is None or not np.any(a.grad)


def test_deep_graph_iterative_traversal():
    # the topological walk must not hit the recursion limit
    a = ad.parameter(np.array([1.0]))
    t = a
    for _ in range(5000):
        t = ad.add(t, ad.constant(np.array([0.001])))
    loss = ad.sum_all(t)
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, [1.0], rtol=0)


def test_no_record_builds_no_tape():
    a = ad.parameter(np.array([1.0, -2.0]))
    with ad.no_record():
        quiet = ad.sum_all(ad.multiply(a, a))
    # no backprop closure either: it would hold the op's inputs alive
    assert quiet.parents == () and quiet.backprop is None and not quiet.requires_grad
    assert quiet.value == 5.0
    loud = ad.sum_all(ad.multiply(a, a))  # recording resumes on exit
    ad.backward(loud)
    np.testing.assert_array_equal(a.grad, [2.0, -4.0])


def _reference_grads(loss):
    """The walk of backward without dropping anything: every node's grad, by id."""
    grads = {id(loss): np.ones(())}
    for node in reversed(ad._topological_order(loss)):
        if id(node) not in grads or not node.parents:
            continue
        for parent, g in zip(node.parents, node.backprop(grads[id(node)])):
            if parent.requires_grad:
                grads[id(parent)] = grads.get(id(parent), np.zeros_like(parent.value)) + g
    return grads


def _network_loss():
    model = NeuralDenoiser(NetConfig(n_nodes=3, d_model=8, n_layers=2, n_heads=2), seed=1)
    rng = np.random.default_rng(21)
    ctx = ConditioningContext(rng.standard_normal((3, 5)), rng.integers(0, 2, (3, 5)))
    eps_hat, _ = model.forward_tensor(rng.standard_normal((2, 3, 5)), 4, ctx)
    return model, ad.sum_all(ad.multiply(eps_hat, eps_hat))


def test_backward_drops_interior_grads_and_keeps_leaf_grads():
    model, loss = _network_loss()
    nodes = ad._topological_order(loss)
    expected = _reference_grads(loss)
    ad.backward(loss)
    leaves = [node for node in nodes if not node.parents]
    assert {id(p) for p in model.parameters().values()} == {id(p) for p in leaves}
    for leaf in leaves:
        assert np.array_equal(leaf.grad, expected[id(leaf)])
    assert all(node.grad is None for node in nodes if node.parents)


def test_backward_calls_each_backprop_once():
    # the network reuses nodes: h feeds attention three times and every
    # residual add, and eps_hat is both factors of the loss
    _, loss = _network_loss()
    interior = [node for node in ad._topological_order(loss) if node.parents]
    calls = {id(node): 0 for node in interior}
    for node in interior:
        def counted(g, node=node, backprop=node.backprop):
            calls[id(node)] += 1
            return backprop(g)
        node.backprop = counted
    ad.backward(loss)
    assert set(calls.values()) == {1}
