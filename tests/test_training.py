import hashlib

import numpy as np
import pytest

from fence import (
    DatasetSplit,
    DivergenceError,
    InvalidInputError,
    NetConfig,
    NeuralDenoiser,
    TrainConfig,
    finetune_conditional,
    make_gaussian_world,
    quadratic_schedule,
    train_unconditional,
)
from fence.config import resolve_config, training_from
from fence.training import Adam, _draw, _lr_at, _stacked_loss
from fence import autodiff as ad
from fence.backends import ConditioningContext


def tiny_split(n_windows=10, n_nodes=3, window=6, seed=0):
    world = make_gaussian_world(n_nodes, window, 0.5, 0.6)
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = np.stack([world.sample_clean(rng) for _ in range(n_windows)])
    masks = np.ones(values.shape)
    return DatasetSplit(train=(values[:-2], masks[:-2]),
                        validation=(values[-2:-1], masks[-2:-1]),
                        normalization=(0.0, 1.0))


def smoke_cfg(**overrides):
    base = dict(epochs=4, lr=2e-3, patience=10, weight_decay=1e-6,
                batch_size=4, seed=0)
    return TrainConfig(**{**base, **overrides})


def test_stage_defaults():
    cfg = resolve_config()
    s1 = training_from(cfg, "uncond")
    assert (s1.epochs, s1.lr, s1.patience, s1.weight_decay) == (150, 2e-3, 20, 1e-6)
    s2 = training_from(cfg, "cond")
    assert (s2.epochs, s2.lr, s2.patience, s2.weight_decay) == (80, 1e-3, 10, 1e-5)
    with pytest.raises(InvalidInputError):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidInputError):
        TrainConfig(lr=0.0)


def test_lr_step_decay():
    cfg = TrainConfig(epochs=100, lr=1.0)
    assert _lr_at(cfg, 0) == 1.0
    assert _lr_at(cfg, 74) == 1.0
    assert _lr_at(cfg, 75) == pytest.approx(0.1)
    assert _lr_at(cfg, 90) == pytest.approx(0.01)


def test_adam_matches_reference_step():
    w = ad.parameter(np.array([1.0, -2.0]))
    opt = Adam({"w": w}, lr=0.1, weight_decay=0.0)
    w.grad = np.array([0.5, -0.25])
    before = w.value.copy()
    opt.step()
    g = np.array([0.5, -0.25])
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expect = before - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(w.value, expect, rtol=1e-12)


def test_adam_weight_decay_is_coupled():
    w = ad.parameter(np.array([2.0]))
    opt = Adam({"w": w}, lr=0.1, weight_decay=0.5)
    w.grad = np.zeros(1)
    opt.step()
    # decay enters through the gradient, so zero grad still moves the weight
    assert w.value[0] < 2.0


def _per_parameter_adam(values, grads_by_step, lrs, weight_decay):
    """The per-parameter Adam loop the flat vectors replace, formula for formula."""
    b1, b2 = 0.9, 0.999
    values = {name: v.copy() for name, v in values.items()}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v2 = {name: np.zeros_like(v) for name, v in values.items()}
    for t, (grads, lr) in enumerate(zip(grads_by_step, lrs), 1):
        for name in values:
            g = grads[name] + weight_decay * values[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v2[name] = b2 * v2[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v2[name] / (1.0 - b2 ** t)
            values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return values


def test_flat_adam_is_the_per_parameter_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    shapes = {"W": (3, 5), "b": (5,), "scale": (), "embed": (2, 1, 4)}
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    grads_by_step = [{name: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
                      for name, shape in shapes.items()} for _ in range(5)]
    lrs = [2e-3, 2e-3, 2e-4, 2e-4, 2e-5]  # the rate changes between steps
    params = {name: ad.parameter(v) for name, v in values.items()}
    opt = Adam(params, lr=lrs[0], weight_decay=1e-2)
    for step, (grads, lr) in enumerate(zip(grads_by_step, lrs), 1):
        opt.lr = lr
        for name, t in params.items():
            t.grad = grads[name]
        opt.step()
        want = _per_parameter_adam(values, grads_by_step[:step], lrs[:step], 1e-2)
        for name, t in params.items():
            assert t.value.shape == shapes[name]
            assert np.array_equal(t.value, want[name]), (step, name)


def test_adam_step_without_a_gradient_names_the_parameter():
    params = {"w": ad.parameter(np.ones(2)), "b": ad.parameter(np.zeros(1))}
    opt = Adam(params, lr=0.1)
    params["w"].grad = np.ones(2)
    with pytest.raises(InvalidInputError, match="'b'"):
        opt.step()
    np.testing.assert_array_equal(params["w"].value, np.ones(2))


def test_unconditional_training_reduces_loss():
    split = tiny_split()
    sched = quadratic_schedule(20)
    cfg = smoke_cfg(epochs=8)
    net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
    result = train_unconditional(split, cfg, sched=sched, net_cfg=net)
    assert len(result.train_losses) == 8
    assert np.isfinite(result.train_losses).all()
    assert result.train_losses[-1] < result.train_losses[0]
    assert result.best_epoch >= 0


def test_training_is_deterministic():
    split = tiny_split()
    sched = quadratic_schedule(20)
    net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
    r1 = train_unconditional(split, smoke_cfg(), sched=sched, net_cfg=net)
    r2 = train_unconditional(split, smoke_cfg(), sched=sched, net_cfg=net)
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    for name, t in r1.model.parameters().items():
        np.testing.assert_array_equal(t.value, r2.model.parameters()[name].value)


def test_early_stopping_restores_best_state():
    split = tiny_split()
    sched = quadratic_schedule(20)
    net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
    # lr=0 cannot improve after epoch 0, so patience=2 must trip
    result = train_unconditional(split, smoke_cfg(epochs=50, lr=1e-30, patience=2),
                                 sched=sched, net_cfg=net)
    assert len(result.train_losses) < 50


def test_finetune_leaves_the_stage1_model_untouched():
    split = tiny_split()
    sched = quadratic_schedule(20)
    net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
    stage1 = train_unconditional(split, smoke_cfg(), sched=sched, net_cfg=net)
    stage2 = finetune_conditional(stage1.model, split, smoke_cfg(epochs=3), sched=sched)
    assert np.isfinite(stage2.train_losses).all()
    # stage-1 weights must stay untouched by the fine-tune
    r1_again = train_unconditional(split, smoke_cfg(), sched=sched, net_cfg=net)
    for name, t in stage1.model.parameters().items():
        np.testing.assert_array_equal(t.value, r1_again.model.parameters()[name].value)


def _one_tape_per_window(model, draws):
    """Reference for the stacked loss: one batch-of-one tape per window, each
    scaled by its weight total and the batch size, summed window by window."""
    total = None
    for k, x_k, eps, observed, keep, weights in draws:
        eps_hat, _ = model.forward_tensor(x_k[None], k, ConditioningContext(observed, keep))
        diff = ad.subtract(eps_hat, ad.constant(eps))
        masked = ad.multiply(ad.multiply(diff, diff), ad.constant(weights))
        piece = ad.multiply(ad.sum_all(masked), ad.constant(
            1.0 / (max(float(weights.sum()), 1.0) * len(draws))))
        total = piece if total is None else ad.add(total, piece)
    return total


@pytest.mark.parametrize("conditional", [False, True], ids=["stage1", "stage2"])
def test_stacked_minibatch_matches_one_tape_per_window(conditional):
    split = tiny_split(n_nodes=4)
    sched = quadratic_schedule(20)
    model = NeuralDenoiser(NetConfig(n_nodes=4, d_model=8), seed=2)
    rng = np.random.Generator(np.random.Philox(key=7))
    draws = [_draw(v, m, sched, rng, conditional) for v, m in zip(*split.train)]
    params = model.parameters()
    reference = _one_tape_per_window(model, draws)
    ad.backward(reference)
    expected = {name: t.grad for name, t in params.items()}
    ad.zero_grads(params.values())
    loss = _stacked_loss(model, draws)
    ad.backward(loss)
    assert abs(loss.value - reference.value) <= 1e-12 * abs(reference.value)
    for name, t in params.items():
        err = np.linalg.norm(t.grad - expected[name])
        assert err <= 1e-12 * np.linalg.norm(expected[name]), name


def test_training_builds_one_context_per_forward_and_no_grid(monkeypatch):
    import fence.training
    from fence.grid import MaskMatrix, TrafficGrid

    calls = {}

    def counting(owner, name, key):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(ConditioningContext, "__post_init__", "context")
    counting(TrafficGrid, "__post_init__", "grid")
    counting(MaskMatrix, "__post_init__", "mask")
    counting(NeuralDenoiser, "forward_tensor", "forward")
    counting(fence.training, "mask_sr_tc", "remask")
    split = tiny_split()
    net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
    stage1 = train_unconditional(split, smoke_cfg(epochs=2), sched=quadratic_schedule(20),
                                 net_cfg=net)
    # 8 train windows in minibatches of 4, and one validation chunk, per epoch
    assert calls == {"context": 6, "forward": 6}
    finetune_conditional(stage1.model, split, smoke_cfg(epochs=2),
                         sched=quadratic_schedule(20))
    # stage 2 re-hides entries of each of the 9 windows per epoch; the only
    # mask wrapper is the one the mask generator returns
    assert calls == {"context": 12, "forward": 12, "remask": 18, "mask": 18}


def test_training_tape_has_one_node_per_block(monkeypatch):
    # each attention and each perceptron is one fused node: the minibatch
    # loss of the default network records 39 nodes (145 when every matmul,
    # add, reshape, softmax and relu inside them was a node of its own)
    built = [0]
    init = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    split = tiny_split(n_windows=5, n_nodes=6, window=12)
    model = NeuralDenoiser(NetConfig(n_nodes=6), seed=0)
    rng = np.random.Generator(np.random.Philox(key=7))
    draws = [_draw(v, m, quadratic_schedule(50), rng, True) for v, m in zip(*split.train)]
    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    loss = _stacked_loss(model, draws)
    assert built[0] == 39
    # 33 of them are the forward: 15 embed the inputs, 8 per layer, 2 for the
    # head. The walk of backward passes all but the 5 constants, and the weights
    assert len(ad._topological_order(loss)) == 39 - 5 + len(model.parameters())


def _state_digest(model) -> str:
    h = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_two_stage_checkpoints_are_pinned():
    # any change to the training arithmetic (draw order, loss, gradient
    # summation order, Adam) changes these digests; they held with one and
    # with two BLAS threads
    split = tiny_split(n_nodes=4)
    sched = quadratic_schedule(20)
    net = NetConfig(n_nodes=4, d_model=8)
    stage1 = train_unconditional(split, smoke_cfg(epochs=2), sched=sched, net_cfg=net)
    stage2 = finetune_conditional(stage1.model, split, smoke_cfg(epochs=2), sched=sched)
    assert _state_digest(stage1.model) == (
        "755792d20810f11a0ed8fa095a5a52a30c5bfca85f1bf97042d6b1c40242ea07")
    assert _state_digest(stage2.model) == (
        "0b352abeb56b029fea1ead4aba21193f22d4ca8c772b6db58090938de7b644ee")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_step():
    split = tiny_split()
    sched = quadratic_schedule(20)
    net = NetConfig(n_nodes=3, d_model=8, n_layers=1, n_heads=2)
    with pytest.raises(DivergenceError) as err:
        train_unconditional(split, smoke_cfg(epochs=30, lr=1e18), sched=sched,
                            net_cfg=net)
    assert err.value.step is not None and err.value.step >= 1


def test_empty_training_split_rejected():
    split = tiny_split()
    empty = DatasetSplit(train=(np.empty((0, 3, 6)),) * 2, validation=split.validation,
                         normalization=(0.0, 1.0))
    with pytest.raises(InvalidInputError):
        train_unconditional(empty, smoke_cfg(), sched=quadratic_schedule(20),
                            net_cfg=NetConfig(n_nodes=3, d_model=8, n_layers=1,
                                              n_heads=2))
