import numpy as np
import pytest

from fence import (
    ConditioningContext,
    DataError,
    InvalidInputError,
    NetConfig,
    NeuralDenoiser,
    unconditional_context,
)


def small_model(seed=0):
    return NeuralDenoiser(NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2),
                          seed=seed)


def test_net_config_validation():
    NetConfig(n_nodes=2, d_model=8, n_heads=4)
    with pytest.raises(InvalidInputError):
        NetConfig(n_nodes=2, d_model=8, n_heads=3)  # heads must divide d
    with pytest.raises(InvalidInputError):
        NetConfig(n_nodes=0)
    with pytest.raises(InvalidInputError):
        NetConfig(n_nodes=2, n_layers=0)


def test_predict_shapes_and_attention_rows():
    model = small_model()
    rng = np.random.default_rng(30)
    x = rng.standard_normal((2, 3, 5))
    ctx = ConditioningContext(x[0], np.ones((3, 5)))
    eps, attn = model.predict(x, 7, ctx)
    assert eps.shape == (2, 3, 5)
    assert attn.shape == (2, 3, 3)
    np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-12)
    assert (attn >= 0).all()
    assert np.isfinite(eps).all()


def test_batched_forward_equals_single_row_forwards():
    model = NeuralDenoiser(NetConfig(n_nodes=3, d_model=8, n_layers=2, n_heads=2), seed=6)
    rng = np.random.default_rng(34)
    x = rng.standard_normal((6, 3, 5))
    ctx = ConditioningContext(rng.standard_normal((3, 5)), rng.integers(0, 2, (3, 5)))
    eps, attn = model.predict(x, 9, ctx)
    for i in range(len(x)):
        one, one_attn = model.predict(x[i:i + 1], 9, ctx)
        assert np.array_equal(eps[i], one[0]) and np.array_equal(attn[i], one_attn[0])
    # predict builds no tape, yet computes what the taped forward does
    taped, taped_attn = model.forward_tensor(x, 9, ctx)
    assert np.array_equal(taped.value, eps) and np.array_equal(taped_attn, attn)


def test_per_row_steps_and_contexts_equal_one_row_forwards():
    # training stacks windows, each with its own step and context, into one forward
    model = NeuralDenoiser(NetConfig(n_nodes=3, d_model=8, n_layers=2, n_heads=2), seed=6)
    rng = np.random.default_rng(35)
    x = rng.standard_normal((4, 3, 5))
    ks = np.array([1, 9, 9, 40])
    ctxs = [ConditioningContext(rng.standard_normal((3, 5)), rng.integers(0, 2, (3, 5))),
            unconditional_context(3, 5),
            ConditioningContext(rng.standard_normal((3, 5)), np.ones((3, 5))),
            ConditioningContext(rng.standard_normal((3, 5)), rng.integers(0, 2, (3, 5)))]
    stacked = ConditioningContext(np.stack([c.observed for c in ctxs]),
                                  np.stack([c.mask for c in ctxs]))
    eps, attn = model.forward_tensor(x, ks, stacked)
    for i, (k, ctx) in enumerate(zip(ks, ctxs)):
        one, one_attn = model.forward_tensor(x[i:i + 1], int(k), ctx)
        assert np.array_equal(eps.value[i], one.value[0])
        assert np.array_equal(attn[i], one_attn[0])
    with pytest.raises(InvalidInputError):
        model.forward_tensor(x, ks[:3], stacked)
    with pytest.raises(InvalidInputError):
        model.forward_tensor(x[:3], 9, stacked)
    # predict keeps its contract: one step, one (N, T) context
    with pytest.raises(InvalidInputError):
        model.predict(x, ks, ctxs[0])
    with pytest.raises(InvalidInputError):
        model.predict(x, 9, stacked)


def test_predict_deterministic_and_context_sensitive():
    model = small_model(seed=4)
    rng = np.random.default_rng(31)
    x = rng.standard_normal((1, 3, 4))
    values = rng.standard_normal((3, 4))
    ctx = ConditioningContext(values, np.ones((3, 4)))
    a, _ = model.predict(x, 5, ctx)
    b, _ = model.predict(x, 5, ctx)
    np.testing.assert_array_equal(a, b)
    c, _ = model.predict(x, 5, unconditional_context(3, 4))
    assert not np.array_equal(a, c)
    d, _ = model.predict(x, 11, ctx)  # step embedding matters
    assert not np.array_equal(a, d)


def test_same_seed_same_init():
    a = small_model(seed=9)
    b = small_model(seed=9)
    for name, t in a.parameters().items():
        np.testing.assert_array_equal(t.value, b.parameters()[name].value)
    c = small_model(seed=10)
    assert any(not np.array_equal(t.value, c.parameters()[name].value)
               for name, t in a.parameters().items())


def test_state_dict_round_trip_preserves_predictions():
    model = small_model(seed=2)
    state = model.state_dict()
    clone = NeuralDenoiser.from_state_dict(state)
    assert clone.cfg == model.cfg
    rng = np.random.default_rng(32)
    x = rng.standard_normal((1, 3, 4))
    ctx = unconditional_context(3, 4)
    np.testing.assert_array_equal(model.predict(x, 3, ctx)[0],
                                  clone.predict(x, 3, ctx)[0])


def test_from_state_dict_validates():
    state = small_model().state_dict()
    missing = dict(state)
    missing.pop("node_embed")
    with pytest.raises(DataError):
        NeuralDenoiser.from_state_dict(missing)
    wrong = dict(state)
    wrong["node_embed"] = np.zeros((99, 8))
    with pytest.raises(DataError):
        NeuralDenoiser.from_state_dict(wrong)
    extra = dict(state)
    extra["unexpected"] = np.zeros(2)
    with pytest.raises(DataError):
        NeuralDenoiser.from_state_dict(extra)


def test_clone_is_independent():
    model = small_model(seed=5)
    twin = model.clone()
    rng = np.random.default_rng(33)
    x = rng.standard_normal((1, 3, 4))
    ctx = unconditional_context(3, 4)
    before, _ = model.predict(x, 2, ctx)
    twin.parameters()["node_embed"].value += 1.0
    after, _ = model.predict(x, 2, ctx)
    np.testing.assert_array_equal(before, after)


def test_predict_rejects_wrong_grid_shape():
    model = small_model()
    with pytest.raises(InvalidInputError):
        model.predict(np.zeros((1, 4, 4)), 3, unconditional_context(4, 4))
    with pytest.raises(InvalidInputError):
        model.predict(np.zeros((3, 4)), 3, unconditional_context(3, 4))  # no batch axis
