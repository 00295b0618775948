import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fence import (
    InvalidInputError,
    NoiseSchedule,
    noise_from_score,
    q_sample,
    quadratic_schedule,
    reverse_mean,
    reverse_step,
    sincos_embedding,
)

# mpmath evaluation of ((25/49)*sqrt(1e-4) + (24/49)*sqrt(0.5))^2 at 50 digits,
# rounded to float64 (the printed constant in the source text drops digits)
BETA_25_REFERENCE = 0.12351011302550546


def test_quadratic_schedule_endpoints_exact():
    sched = quadratic_schedule(50)
    assert sched.beta_at(1) == 1e-4
    assert sched.beta_at(50) == 0.5
    assert sched.n_steps == 50


def test_quadratic_schedule_midpoint_reference():
    sched = quadratic_schedule(50)
    assert abs(sched.beta_at(25) - BETA_25_REFERENCE) <= 1e-12 * BETA_25_REFERENCE


def test_alpha_bar_strictly_decreasing_and_consistent():
    sched = quadratic_schedule(50)
    assert (np.diff(sched.alpha_bar) < 0).all()
    np.testing.assert_allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta),
                               rtol=0, atol=0)
    assert sched.alpha_at(7) == 1.0 - sched.beta_at(7)


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        quadratic_schedule(1)
    with pytest.raises(InvalidInputError):
        quadratic_schedule(10, beta1=0.0)
    with pytest.raises(InvalidInputError):
        quadratic_schedule(10, beta1=0.6, betaK=0.5)
    with pytest.raises(InvalidInputError):
        NoiseSchedule(np.array([0.1, 1.5]))
    for beta in ([0.1], [[0.1, 0.2]]):
        with pytest.raises(InvalidInputError, match="at least 2 steps"):
            NoiseSchedule(np.array(beta))
    with pytest.raises(InvalidInputError):
        NoiseSchedule(np.array([0.1, 0.2]), variance_mode="exotic")


def test_beta_1_that_rounds_to_no_noise_is_rejected():
    # 1 - 1e-17 is 1.0 in float64: alpha_bar_1 = 1 leaves sigma^2_1 = 0/0
    with pytest.raises(InvalidInputError, match="beta_1 = 1e-17"):
        quadratic_schedule(50, 1e-17)


@settings(max_examples=200, deadline=None)
@given(n_steps=st.integers(2, 60),
       beta1=st.floats(0.0, 0.9, exclude_min=True),
       spread=st.floats(0.0, 1.0),
       mode=st.sampled_from(["beta_tilde", "beta"]))
@example(n_steps=50, beta1=1e-17, spread=0.5, mode="beta_tilde")
def test_every_accepted_schedule_has_positive_noise(n_steps, beta1, spread, mode):
    beta_k = beta1 + spread * (0.99 - beta1)
    try:
        sched = quadratic_schedule(n_steps, beta1, beta_k, mode)
    except InvalidInputError:
        return
    assert (1.0 - sched.alpha_bar > 0).all()
    assert (sched.sigma2[1:] > 0).all()


@settings(max_examples=300, deadline=None)
@given(beta=st.lists(st.floats(0.0, 1.0) | st.floats(1e-17, 1e-15), min_size=2, max_size=60),
       mode=st.sampled_from(["beta_tilde", "beta"]))
def test_every_accepted_beta_array_has_positive_noise(beta, mode):
    # reverse_step draws noise at every k >= 2, so no accepted schedule may
    # have a zero reverse variance there; betas near 1e-16 are where 1 - beta
    # starts to round to 1
    try:
        sched = NoiseSchedule(np.array(beta), mode)
    except InvalidInputError:
        return
    assert (sched.sigma2[1:] > 0).all()


def test_step_accessors_are_one_based():
    sched = quadratic_schedule(10)
    assert sched.beta_at(1) == sched.beta[0]
    assert sched.beta_at(10) == sched.beta[-1]
    for bad in (0, 11):
        with pytest.raises(InvalidInputError):
            sched.beta_at(bad)


def test_variance_modes():
    sched_b = quadratic_schedule(10, variance_mode="beta")
    np.testing.assert_array_equal(sched_b.sigma2, sched_b.beta)
    sched_t = quadratic_schedule(10, variance_mode="beta_tilde")
    assert sched_t.sigma2_at(1) == 0.0
    prev = np.concatenate([[1.0], sched_t.alpha_bar[:-1]])
    expect = (1.0 - prev) / (1.0 - sched_t.alpha_bar) * sched_t.beta
    np.testing.assert_allclose(sched_t.sigma2, expect, rtol=0, atol=0)
    # posterior variance never exceeds beta
    assert (sched_t.sigma2 <= sched_t.beta).all()


def test_q_sample_closed_form():
    sched = quadratic_schedule(10)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 4))
    noise = rng.standard_normal((3, 4))
    k = 6
    got = q_sample(x0, k, noise, sched)
    abar = sched.alpha_bar_at(k)
    np.testing.assert_allclose(got, np.sqrt(abar) * x0 + np.sqrt(1 - abar) * noise,
                               rtol=0, atol=0)
    with pytest.raises(InvalidInputError, match="q_sample: shape"):
        q_sample(x0, k, noise[:2], sched)


def test_reverse_mean_formula():
    sched = quadratic_schedule(10)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3))
    eps = rng.standard_normal((2, 3))
    k = 4
    beta, abar, alpha = sched.beta_at(k), sched.alpha_bar_at(k), sched.alpha_at(k)
    expect = (x - beta / np.sqrt(1 - abar) * eps) / np.sqrt(alpha)
    np.testing.assert_allclose(reverse_mean(x, eps, k, sched), expect, rtol=1e-15)


def test_score_noise_round_trip():
    sched = quadratic_schedule(10)
    rng = np.random.default_rng(2)
    eps = rng.standard_normal((2, 5))
    k = 3
    score = -eps / np.sqrt(1 - sched.alpha_bar_at(k))
    np.testing.assert_allclose(noise_from_score(score, k, sched), eps, rtol=1e-15)


def test_reverse_step_zero_variance_copies_mean():
    rng = np.random.default_rng(3)
    mean = rng.standard_normal((2, 2))
    x = rng.standard_normal((2, 2))
    sched = quadratic_schedule(10, variance_mode="beta_tilde")
    # the final step reads no generator
    out = reverse_step(x, mean, 1, sched, None)
    np.testing.assert_array_equal(out, mean)
    out2 = reverse_step(x, mean, 1, quadratic_schedule(10, variance_mode="beta"), None)
    np.testing.assert_array_equal(out2, mean)  # k=1 is always deterministic


def test_reverse_step_adds_scheduled_noise():
    sched = quadratic_schedule(10, variance_mode="beta")
    mean = np.zeros((2, 2))
    k = 5
    out = reverse_step(np.zeros((2, 2)), mean, k, sched,
                       np.random.Generator(np.random.Philox(key=7)))
    # one draw of the stack's shape from the one generator
    draw = np.random.Generator(np.random.Philox(key=7)).standard_normal((2, 2))
    np.testing.assert_allclose(out, np.sqrt(sched.sigma2_at(k)) * draw, rtol=1e-15)
    # the generator fills rows in order: row 0 is the same in a one-row stack
    row = reverse_step(np.zeros((1, 2)), mean[:1], k, sched,
                       np.random.Generator(np.random.Philox(key=7)))
    np.testing.assert_array_equal(row, out[:1])


def test_sincos_embedding_shapes_and_ranges():
    e = sincos_embedding(3.0, 8)
    assert e.shape == (8,)
    many = sincos_embedding(np.arange(5), 8)
    assert many.shape == (5, 8)
    np.testing.assert_allclose(many[3], e, rtol=0, atol=0)
    assert np.abs(many).max() <= 1.0
    # position 0: sin half is 0, cos half is 1
    zero = sincos_embedding(0.0, 6)
    np.testing.assert_array_equal(zero[:3], 0.0)
    np.testing.assert_array_equal(zero[3:], 1.0)
    with pytest.raises(InvalidInputError):
        sincos_embedding(1.0, 7)
    with pytest.raises(InvalidInputError):
        sincos_embedding(1.0, 0)
