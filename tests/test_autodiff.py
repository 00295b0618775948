import numpy as np
import pytest

from fence import NetConfig, NeuralDenoiser, conditional_context
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
    a = ad.parameter(np.array([[-2.0, -0.5, 0.5, 2.0]]))
    out = ad.sum_all(ad.relu(a))
    ad.backward(out)
    np.testing.assert_array_equal(a.grad, [[0.0, 0.0, 1.0, 1.0]])


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(25)
    a = ad.parameter(rng.standard_normal((3, 5)))
    s = ad.softmax(a)
    np.testing.assert_allclose(s.value.sum(axis=-1), 1.0, atol=1e-12)
    assert (s.value > 0).all()
    weight = ad.constant(rng.standard_normal((3, 5)))
    fd_check(lambda: ad.sum_all(ad.multiply(ad.softmax(a), weight)), [a])


def test_softmax_is_shift_stable():
    a = ad.parameter(np.array([[1000.0, 1001.0, 1002.0]]))
    s = ad.softmax(a)
    assert np.isfinite(s.value).all()
    np.testing.assert_allclose(s.value, ad.softmax(
        ad.parameter(np.array([[0.0, 1.0, 2.0]]))).value, rtol=1e-12)


def test_scale_and_shared_subexpression():
    rng = np.random.default_rng(27)
    a = ad.parameter(rng.standard_normal((3,)))

    def build():
        doubled = ad.scale(a, 2.0)
        # a appears on two paths; gradients must accumulate
        return ad.sum_all(ad.multiply(doubled, a))

    fd_check(build, [a])


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
    assert quiet.parents == () and not quiet.requires_grad
    assert quiet.value == 5.0
    loud = ad.sum_all(ad.multiply(a, a))  # recording resumes on exit
    ad.backward(loud)
    np.testing.assert_array_equal(a.grad, [2.0, -4.0])


def _reference_grads(loss):
    """The walk of backward without dropping anything: every node's grad, by id."""
    grads = {id(loss): np.ones(())}
    for node in reversed(ad._topological_order(loss)):
        if id(node) not in grads:
            continue
        for parent, vjp in node.parents:
            if parent.requires_grad:
                g = vjp(grads[id(node)])
                grads[id(parent)] = grads.get(id(parent), np.zeros_like(parent.value)) + g
    return grads


def test_backward_drops_interior_grads_and_keeps_leaf_grads():
    model = NeuralDenoiser(NetConfig(n_nodes=3, d_model=8, n_layers=2, n_heads=2), seed=1)
    rng = np.random.default_rng(21)
    ctx = conditional_context(rng.standard_normal((3, 5)), rng.integers(0, 2, (3, 5)))
    eps_hat, _ = model.forward_tensor(rng.standard_normal((2, 3, 5)), 4, ctx)
    loss = ad.sum_all(ad.multiply(eps_hat, eps_hat))
    nodes = ad._topological_order(loss)
    expected = _reference_grads(loss)
    ad.backward(loss)
    leaves = [node for node in nodes if not node.parents]
    assert {id(p) for p in model.parameters().values()} == {id(p) for p in leaves}
    for leaf in leaves:
        assert np.array_equal(leaf.grad, expected[id(leaf)])
    assert all(node.grad is None for node in nodes if node.parents)
