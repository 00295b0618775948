import math
import warnings

import numpy as np
import pytest

from fence import (
    ConfigError,
    GuidanceConfig,
    InvalidInputError,
    calibrate_delta,
    calibrate_tau,
    calibrated_constants,
    combine_scores,
    guidance_gradient_norm,
    guidance_scale,
    mode_from_string,
    posterior_update,
    quadratic_schedule,
    step_at_time,
)
from fence.guidance import LOG_P_CLAMP


def test_config_defaults_and_validation():
    cfg = GuidanceConfig()
    assert cfg.mode == "fence" and cfg.pi == 0.5 and cfg.scope == "cluster"
    with pytest.raises(ConfigError):
        GuidanceConfig(mode="other")
    with pytest.raises(ConfigError):
        GuidanceConfig(scope="nodewise")
    with pytest.raises(InvalidInputError):
        GuidanceConfig(pi=0.0)
    with pytest.raises(InvalidInputError):
        GuidanceConfig(pi=1.1)
    with pytest.raises(InvalidInputError):
        GuidanceConfig(lambda_ref=1.0)
    with pytest.raises(InvalidInputError):
        GuidanceConfig(t0=1.0)
    with pytest.raises(InvalidInputError):
        GuidanceConfig(lambda_max=0.5)
    with pytest.raises(InvalidInputError):
        GuidanceConfig(alpha_scale=0.0)


def test_mode_from_string():
    assert mode_from_string("fence") == ("fence", 1.0)
    assert mode_from_string("none") == ("none", 1.0)
    assert mode_from_string("cfg:2.5") == ("cfg", 2.5)
    assert mode_from_string(" cfg:1 ") == ("cfg", 1.0)
    with pytest.raises(ConfigError):
        mode_from_string("cfg:abc")
    with pytest.raises(ConfigError):
        mode_from_string("guided")


def test_step_at_time_rounding_and_clamp():
    assert step_at_time(0.8, 50) == 40
    assert step_at_time(0.5, 50) == 25
    assert step_at_time(1.0, 50) == 50
    assert step_at_time(0.0, 50) == 1  # clamped to the first step
    assert step_at_time(0.009, 50) == 1
    assert step_at_time(0.01, 50) == 1  # 0.5 rounds half-up to 1
    assert step_at_time(0.03, 50) == 2


def test_calibration_formulas():
    cfg = GuidanceConfig()
    delta = calibrate_delta(cfg, 50)
    assert delta == pytest.approx(math.log(0.5 * 1.6 / 0.6) / (0.2 * 50), rel=1e-15)
    tau = calibrate_tau(cfg, delta, sigma2_t1=1.0)
    assert tau == pytest.approx(abs(2 * delta / 10.0), rel=1e-15)
    with pytest.raises(InvalidInputError):
        calibrate_delta(GuidanceConfig(pi=1.0), 50)
    with pytest.raises(InvalidInputError):
        calibrate_tau(cfg, delta, sigma2_t1=0.0)


def test_calibrated_constants_inert_at_full_confidence():
    sched = quadratic_schedule(50)
    assert calibrated_constants(GuidanceConfig(pi=1.0), sched) == (0.0, 0.0)
    delta, tau = calibrated_constants(GuidanceConfig(), sched)
    assert delta > 0 and tau > 0
    sigma2 = sched.sigma2_at(step_at_time(0.5, 50))
    assert tau == pytest.approx(2 * sigma2 * delta / 10.0, rel=1e-15)


def test_calibrated_constants_reject_an_overflowing_tau():
    # alpha_scale = 1e-320 is finite and positive, but tau = 2 sigma^2 delta / 1e-320 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="alpha_scale"):
            calibrated_constants(GuidanceConfig(alpha_scale=1e-320), quadratic_schedule(8))


def test_calibrated_constants_guard_the_update_factor_at_its_boundary():
    # the update multiplies by tau / sigma_k^2, largest at k = 2 of K = 8: at
    # alpha_scale = 5e-307 that factor overflows while tau / (2 sigma_2^2) does not,
    # and at 1e-306 it is finite on every step the update runs
    sched = quadratic_schedule(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="alpha_scale"):
            calibrated_constants(GuidanceConfig(alpha_scale=5e-307), sched)
        delta, tau = calibrated_constants(GuidanceConfig(alpha_scale=1e-306), sched)
        for k in range(2, 9):
            # a unit innovation at lam = 1/2 moves log p by the factor itself
            step = posterior_update(np.zeros(1), np.full(1, 0.5), np.zeros(1), np.ones(1),
                                    k, sched, tau, delta)
            assert np.isfinite(step).all()


def test_guidance_scale_law():
    # p <= 1-pi saturates; above the pole the ratio decays toward 1
    assert guidance_scale(np.log(0.3), pi=0.5, lambda_max=10.0) == 10.0
    assert guidance_scale(np.log(0.5), pi=0.5, lambda_max=10.0) == 10.0
    p = 2.0
    got = guidance_scale(np.log(p), pi=0.5, lambda_max=10.0)
    assert got == pytest.approx(p / (p - 0.5), rel=1e-12)
    assert guidance_scale(50.0, pi=0.5, lambda_max=10.0) == pytest.approx(1.0, abs=1e-12)
    # clamp to [1, lambda_max]
    assert guidance_scale(np.log(0.55), pi=0.5, lambda_max=3.0) == 3.0


def test_guidance_scale_is_exactly_one_at_pi_one():
    logp = np.linspace(-40, 40, 31)
    lam = guidance_scale(logp, pi=1.0, lambda_max=10.0)
    assert (lam == 1.0).all()  # p/p is exactly 1 in IEEE


def test_guidance_scale_log_clamp():
    a = guidance_scale(LOG_P_CLAMP, pi=0.5, lambda_max=10.0)
    b = guidance_scale(LOG_P_CLAMP + 500.0, pi=0.5, lambda_max=10.0)
    assert a == b  # clamped before exponentiation; no overflow
    assert np.isfinite(a)


def test_guidance_scale_vector_shape_and_scalar_type():
    out = guidance_scale(np.zeros(4), pi=0.5, lambda_max=10.0)
    assert out.shape == (4,)
    assert isinstance(guidance_scale(0.0, pi=0.5, lambda_max=10.0), float)


def _gap_sums(x, mean_cond, mean_uncond):
    """|Delta|^2 and <r, Delta> per row at lam = 0: Delta = mean_cond - mean_uncond and
    r = x - mean_uncond."""
    gap = mean_cond - mean_uncond
    return np.sum(gap * gap, axis=-1), np.sum((x - mean_uncond) * gap, axis=-1)


def test_posterior_update_reference_implementation():
    sched = quadratic_schedule(50)
    rng = np.random.default_rng(12)
    n, t, k = 5, 7, 20
    logp = rng.standard_normal(n)
    before = logp.copy()
    x = rng.standard_normal((n, t))
    mc = rng.standard_normal((n, t))
    mu = rng.standard_normal((n, t))
    got = posterior_update(logp, np.zeros(n), *_gap_sums(x, mc, mu), k, sched,
                           tau=0.03, delta=0.007)
    sigma2 = sched.sigma2_at(k)
    for i in range(n):
        gap = np.sum((x[i] - mc[i]) ** 2) - np.sum((x[i] - mu[i]) ** 2)
        expect = logp[i] - 0.03 / (2 * sigma2) * gap - 0.007
        assert got[i] == pytest.approx(expect, abs=1e-15)
    # the input array is untouched
    np.testing.assert_array_equal(logp, before)


def test_posterior_update_stack_matches_rows():
    # an (S, N, T) stack updates each trajectory's (S, N) row on its own
    sched = quadratic_schedule(50)
    rng = np.random.default_rng(15)
    x, mc, mu = (rng.standard_normal((3, 4, 5)) for _ in range(3))
    logp = rng.standard_normal((3, 4))
    got = posterior_update(logp, np.zeros((3, 4)), *_gap_sums(x, mc, mu), 17, sched, 0.2,
                           -0.01)
    assert got.shape == (3, 4)
    for s in range(3):
        np.testing.assert_array_equal(
            got[s], posterior_update(logp[s], np.zeros(4), *_gap_sums(x[s], mc[s], mu[s]),
                                     17, sched, 0.2, -0.01))


def test_posterior_update_invariant_under_equal_means():
    sched = quadratic_schedule(50)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6))
    m = rng.standard_normal((4, 6))
    logp = rng.standard_normal(4)
    got = posterior_update(logp, np.zeros(4), *_gap_sums(x, m, m), 10, sched, tau=0.5,
                           delta=0.0)
    np.testing.assert_array_equal(got, logp)


def test_posterior_update_errors():
    sched = quadratic_schedule(50)  # beta_tilde: sigma2(1) = 0
    logp = np.zeros(2)
    x = np.zeros(2)
    with pytest.raises(InvalidInputError):
        posterior_update(logp, x, x, x, 1, sched, 0.1, 0.0)
    with pytest.raises(InvalidInputError):
        posterior_update(logp, x, np.zeros(3), x, 10, sched, 0.1, 0.0)
    with pytest.raises(InvalidInputError):
        posterior_update(np.zeros(5), x, x, x, 10, sched, 0.1, 0.0)
    with pytest.raises(InvalidInputError):  # (S, N) state against one grid's N nodes
        posterior_update(np.zeros((1, 2)), x, x, x, 10, sched, 0.1, 0.0)


def test_combine_scores_exact_endpoints():
    rng = np.random.default_rng(14)
    eu = rng.standard_normal((3, 4))
    ec = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(combine_scores(eu, ec, np.zeros(3)), eu)
    np.testing.assert_array_equal(combine_scores(eu, ec, np.ones(3)), ec)
    lam = np.array([0.0, 1.0, 2.5])
    out = combine_scores(eu, ec, lam)
    np.testing.assert_allclose(out[2], eu[2] + 2.5 * (ec[2] - eu[2]), rtol=1e-12)
    with pytest.raises(InvalidInputError):
        combine_scores(eu, ec, np.zeros(4))
    with pytest.raises(InvalidInputError):
        combine_scores(eu, ec[:2], np.zeros(3))


def test_guidance_gradient_norm():
    sched = quadratic_schedule(50)
    eu = np.zeros((2, 3))
    ec = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    k = 10
    gap = ec - eu
    out = guidance_gradient_norm(np.sum(gap * gap, axis=-1), k, sched)
    assert out[0] == pytest.approx(5.0 / np.sqrt(1 - sched.alpha_bar_at(k)), rel=1e-12)
    assert out[1] == 0.0
