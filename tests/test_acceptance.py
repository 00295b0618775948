"""Acceptance suite: one printed verdict line per criterion.

Every test prints `criterion NN: PASS/FAIL - detail` (visible through the
-rA summary); criterion 11 is directional and reported without gating.
Reference constants were computed once with 60-digit arithmetic (mpmath)
from the closed forms and frozen here.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import fence.autodiff as ad
from fence import (
    ContaminatedBackend,
    GuidanceConfig,
    MaskMatrix,
    MaskPatternConfig,
    NetConfig,
    NeuralDenoiser,
    OracleBackend,
    TrafficGrid,
    calibrated_constants,
    crps_masked,
    guidance_scale,
    impute,
    make_gaussian_world,
    mask_sc_tc,
    mask_sr_tc,
    patch_bounds,
    point_metrics,
    posterior_update,
    quadratic_schedule,
)
from fence.backends import ConditioningContext
from fence.diffusion import q_sample
from fence.sampler import scale_law
from fence.world import observations_from_mask

# 60-digit references for the default calibration (pi=0.5, lambda_ref=1.6,
# t0=0.8, t1=0.5, K=50, alpha_scale=10, beta_tilde variance)
DELTA_REFERENCE = 0.0287682072451780927439219
TAU_REFERENCE = 0.0006624203675839387525481043
BETA_25_REFERENCE = 0.1235101130255054436871346


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def gaussian_mixture_1d(mean_prior, var_prior, mean_cond, var_cond, pi):
    """Closed form of the contaminated law (1-pi) N(mean_prior, var_prior) +
    pi N(mean_cond, var_cond): its score, the prior score, and the ratio
    p_hat = mixture density / prior density, each a function of a scalar."""

    def logpdf(x, mean, var):
        return -0.5 * ((x - mean) ** 2 / var + math.log(var) + math.log(2.0 * math.pi))

    def log_weights(x):
        # responsibilities via log-sum-exp; exact at pi = 1
        lp = logpdf(x, mean_prior, var_prior) + (math.log1p(-pi) if pi < 1.0 else -math.inf)
        lq = logpdf(x, mean_cond, var_cond) + math.log(pi)
        top = max(lp, lq)
        return lp, lq, top + math.log(math.exp(lp - top) + math.exp(lq - top))

    def score_prior(x):
        return -(x - mean_prior) / var_prior

    def score_mix(x):
        lp, lq, log_mix = log_weights(x)
        return (math.exp(lp - log_mix) * score_prior(x)
                + math.exp(lq - log_mix) * -(x - mean_cond) / var_cond)

    def ratio(x):
        return math.exp(log_weights(x)[2] - logpdf(x, mean_prior, var_prior))

    return score_mix, score_prior, ratio


def test_mixture_1d_pure_laws_at_pi_one():
    score_mix, score_prior, ratio = gaussian_mixture_1d(0.0, 1.0, 2.0, 1.0, pi=1.0)
    # pi=1: the "contaminated" law is the pure conditional
    assert score_mix(1.0) == pytest.approx(-(1.0 - 2.0), abs=1e-12)
    assert score_prior(1.0) == pytest.approx(-1.0, abs=1e-12)
    # evidence ratio degenerates to conditional over prior density
    x = 0.5
    expect = stats.norm(2.0, 1.0).pdf(x) / stats.norm(0.0, 1.0).pdf(x)
    assert ratio(x) == pytest.approx(expect, rel=1e-12)


def test_mixture_ratio_is_evidence_ratio():
    pi = 0.5
    score_mix, score_prior, ratio = gaussian_mixture_1d(0.0, 1.0, 2.0, 1.0, pi)
    x = 1.3
    pdf_c = stats.norm(2.0, 1.0).pdf(x)
    pdf_p = stats.norm(0.0, 1.0).pdf(x)
    mix = pi * pdf_c + (1 - pi) * pdf_p
    assert ratio(x) == pytest.approx(mix / pdf_p, rel=1e-12)
    expect_score = (pi * pdf_c * (2.0 - x) + (1 - pi) * pdf_p * (0.0 - x)) / mix
    assert score_mix(x) == pytest.approx(expect_score, rel=1e-12)


def test_mixture_ratio_drives_exact_score_reconstruction():
    # lambda(p) with p = mix/prior turns the contaminated score back into
    # the true conditional score:  s_p + lambda (s_mix - s_p) = s_c
    pi = 0.4
    score_mix, score_prior, ratio = gaussian_mixture_1d(0.0, 1.0, 2.0, 1.0, pi)
    for x in (-1.0, 0.3, 1.7, 3.2):
        p = ratio(x)
        lam = p / (p - (1 - pi))
        guided = score_prior(x) + lam * (score_mix(x) - score_prior(x))
        assert guided == pytest.approx(-(x - 2.0), abs=1e-10)


def test_criterion_01_guided_score_reconstructs_conditional():
    start = time.perf_counter()
    score_mix, score_prior, ratio = gaussian_mixture_1d(0.0, 1.0, 2.0, 1.0, 0.5)
    worst = 0.0
    for x in np.linspace(-4.0, 6.0, 1000):
        lam = float(guidance_scale(math.log(ratio(x)), pi=0.5, lambda_max=1e12))
        guided = score_prior(x) + lam * (score_mix(x) - score_prior(x))
        worst = max(worst, abs(guided - (2.0 - x)))
    elapsed = time.perf_counter() - start
    _verdict(1, worst < 1e-9 and elapsed < 1.0,
             f"max abs score error {worst:.3e} over 1000 points in "
             f"[-4, 6] ({elapsed:.2f}s)")


def test_criterion_02_calibration_matches_high_precision_reference():
    start = time.perf_counter()
    sched = quadratic_schedule(50)
    delta, tau = calibrated_constants(GuidanceConfig(mode="fence"), sched)
    rel_d = abs(delta - DELTA_REFERENCE) / DELTA_REFERENCE
    rel_t = abs(tau - TAU_REFERENCE) / TAU_REFERENCE
    elapsed = time.perf_counter() - start
    _verdict(2, rel_d < 1e-12 and rel_t < 1e-12 and elapsed < 1.0,
             f"delta rel err {rel_d:.2e}, tau rel err {rel_t:.2e}")


def test_criterion_03_noise_schedule_shape():
    sched = quadratic_schedule(50)
    # independent evaluation of the closed-form midpoint level
    b25 = ((25 / 49) * math.sqrt(1e-4) + (24 / 49) * math.sqrt(0.5)) ** 2
    rel_mid = abs(sched.beta_at(25) - b25) / b25
    rel_ref = abs(sched.beta_at(25) - BETA_25_REFERENCE) / BETA_25_REFERENCE
    abar = np.array([sched.alpha_bar_at(k) for k in range(1, 51)])
    ok = (sched.beta_at(1) == 1e-4 and sched.beta_at(50) == 0.5
          and rel_mid < 1e-12 and rel_ref < 1e-12
          and bool(np.all(np.diff(abar) < 0)))
    _verdict(3, ok, f"endpoints exact, beta_25 rel err {rel_mid:.2e}, "
                    "alpha_bar strictly decreasing")


def test_criterion_04_hidden_node_sampling_matches_schur_moments():
    start = time.perf_counter()
    world = make_gaussian_world(6, 12, 0.6, 0.8)
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=77)))
    mask = np.ones((6, 12), dtype=np.int64)
    mask[0, :] = 0
    idx, vals = observations_from_mask(truth, mask)
    observed_world = world.observe(idx, vals)
    sched = quadratic_schedule(50, variance_mode="beta")
    backend = OracleBackend(world, sched)
    result = impute(backend, backend, TrafficGrid(truth * mask), MaskMatrix(mask),
                    sched, scale_law(GuidanceConfig(mode="cfg", fixed_lambda=1.0), sched),
                    n_samples=500, seed=0)
    stack = result.samples

    mean_c, cov_c = observed_world.conditional_moments()
    hid = observed_world.hidden_idx
    mean_err = np.abs(stack.mean(axis=0)[0] - mean_c[hid])
    var_ratio = stack.var(axis=0, ddof=1)[0] / np.diag(cov_c)[hid]
    elapsed = time.perf_counter() - start
    ok = (mean_err.max() < 0.1
          and bool(np.all((var_ratio > 0.8) & (var_ratio < 1.2)))
          and elapsed < 120.0)
    _verdict(4, ok, f"S=500 hidden node: max mean err {mean_err.max():.4f}, "
                    f"var ratio in [{var_ratio.min():.3f}, {var_ratio.max():.3f}] "
                    f"({elapsed:.1f}s)")


def test_criterion_05_mode_identities():
    world = make_gaussian_world(6, 12, 0.6, 0.8)
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=5)))
    mask = np.ones((6, 12), dtype=np.int64)
    mask[0, :] = 0
    mask[3, 4:] = 0
    sched = quadratic_schedule(50)
    backend = OracleBackend(world, sched)
    observed, m = TrafficGrid(truth * mask), MaskMatrix(mask)

    def run(gcfg):
        result = impute(backend, backend, observed, m, sched,
                        scale_law(gcfg, sched), n_samples=3, seed=11)
        return result.samples

    certain = run(GuidanceConfig(mode="fence", scope="global", pi=1.0))
    fixed_one = run(GuidanceConfig(mode="cfg", fixed_lambda=1.0))
    one_cluster = run(GuidanceConfig(mode="fence", scope="cluster", clusters=1))
    global_scope = run(GuidanceConfig(mode="fence", scope="global"))
    n_clusters_n = run(GuidanceConfig(mode="fence", scope="cluster", clusters=6))
    per_node = run(GuidanceConfig(mode="fence", scope="per_node"))

    d_a = np.abs(certain - fixed_one).max()
    d_b = np.abs(one_cluster - global_scope).max()
    d_c = np.abs(n_clusters_n - per_node).max()
    ok = np.array_equal(certain, fixed_one) and d_b <= 1e-12 and d_c <= 1e-12
    _verdict(5, ok, f"pi=1 vs cfg(1) diff {d_a:.1e}, K_c=1 vs global "
                    f"{d_b:.1e}, K_c=N vs per-node {d_c:.1e}")


def test_criterion_06_posterior_update_reference():
    sched = quadratic_schedule(50)
    rng = np.random.Generator(np.random.Philox(key=42))
    worst = 0.0
    n, t = 100, 7
    for batch in range(100):  # 100 batches x 100 nodes = 1e4 tracked rows
        x = rng.standard_normal((n, t))
        mc = rng.standard_normal((n, t))
        mu = rng.standard_normal((n, t))
        logp = rng.standard_normal(n)
        tau = float(rng.uniform(1e-4, 1e-2))
        delta = float(rng.uniform(-0.1, 0.1))
        k = int(rng.integers(2, 51))
        # rows map through lam = 0: Delta = mc - mu and r = x - mu
        mean_gap = mc - mu
        updated = posterior_update(logp.copy(), np.zeros(n),
                                   np.sum(mean_gap * mean_gap, axis=-1),
                                   np.sum((x - mu) * mean_gap, axis=-1), k, sched, tau, delta)
        sigma2 = sched.sigma2_at(k)
        for i in range(n):
            gap = float(np.sum((x[i] - mc[i]) ** 2) - np.sum((x[i] - mu[i]) ** 2))
            expect = logp[i] - tau / (2.0 * sigma2) * gap - delta
            worst = max(worst, abs(updated[i] - expect))

    base = np.array([0.3, -0.7, 0.0])
    same = np.zeros((3, 4))
    mean_gap = same - same
    frozen = posterior_update(base, np.zeros(3), np.sum(mean_gap * mean_gap, axis=-1),
                              np.sum((same + 1.0 - same) * mean_gap, axis=-1), 10, sched,
                              0.01, 0.0)
    invariant = np.array_equal(frozen, base)
    _verdict(6, worst <= 1e-12 and invariant,
             f"max deviation {worst:.2e} over 1e4 rows; equal-means "
             f"delta=0 state invariant: {invariant}")


def test_criterion_07_scale_law_shape():
    p = np.linspace(0.511, 50.0, 2000)
    lam = guidance_scale(np.log(p), pi=0.5, lambda_max=1e9)
    decreasing = bool(np.all(np.diff(lam) < 0))
    tail = float(guidance_scale(math.log(50.0), pi=0.5, lambda_max=1e9))
    at_certainty = guidance_scale(np.linspace(-40, 40, 500), pi=1.0, lambda_max=10.0)
    saturated = [float(guidance_scale(math.log(q), pi=0.5, lambda_max=10.0))
                 for q in (0.5, 0.2, 0.01)]
    ok = (decreasing and tail < 1.02
          and bool(np.all(at_certainty == 1.0))
          and all(s == 10.0 for s in saturated))
    _verdict(7, ok, f"strictly decreasing on (0.51, 50], lambda(50)={tail:.4f}, "
                    "identically 1 at pi=1, clamped below the pole")


def test_criterion_08_mask_statistics():
    cfg = MaskPatternConfig("SR-TC", 0.8, 4, seed=123)
    mask = mask_sr_tc(307, 400, cfg)
    again = mask_sr_tc(307, 400, cfg)
    rate = (mask.entries == 0).mean()
    bound = 3 * math.sqrt(0.8 * 0.2 / (307 * 100))
    deterministic = np.array_equal(mask.entries, again.entries)

    communities = tuple(tuple(range(6 * j, 6 * j + 6)) for j in range(5))
    sc = mask_sc_tc(communities, 24, MaskPatternConfig("SC-TC", 0.6, 4, seed=9))
    synced = all(
        np.all(sc.entries[list(members)][:, lo:hi]
               == sc.entries[members[0], lo:hi])
        for lo, hi in patch_bounds(24, 4) for members in communities)
    ok = abs(rate - 0.8) <= bound and deterministic and synced
    _verdict(8, ok, f"SR-TC rate {rate:.4f} within 3 sigma ({bound:.4f}) of 0.8, "
                    "SC-TC blocks community-synchronized, seeds bit-stable")


def test_criterion_09_metric_oracles():
    rng = np.random.Generator(np.random.Philox(key=2024))
    value = crps_masked(rng.standard_normal((100_000, 1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
    crps_ok = abs(value - 0.23370) < 0.02

    order_ok = True
    for _ in range(1000):
        pred = rng.standard_normal((4, 5))
        truth = rng.standard_normal((4, 5))
        mae, rmse, _ = point_metrics(pred, truth, np.ones((4, 5), dtype=np.int64))
        order_ok = order_ok and mae <= rmse + 1e-15

    mae, rmse, mape = point_metrics(np.array([[2.0, 6.0]]), np.array([[1.0, 4.0]]),
                                    np.ones((1, 2), dtype=np.int64))
    hand_ok = (abs(mae - 1.5) <= 1e-12
               and abs(rmse - math.sqrt(2.5)) <= 1e-12
               and abs(mape - 0.75) <= 1e-12)
    _verdict(9, crps_ok and order_ok and hand_ok,
             f"CRPS(1e5 N(0,1) at 0) = {value:.5f} vs 0.23370, MAE <= RMSE on "
             "1e3 cases, 2-point example exact")


def test_criterion_10_denoiser_gradients_match_finite_differences():
    model = NeuralDenoiser(NetConfig(n_nodes=2, d_model=8, n_layers=2, n_heads=2),
                           seed=5)
    sched = quadratic_schedule(50)
    rng = np.random.Generator(np.random.Philox(key=3))
    clean = rng.standard_normal((2, 4))
    eps = rng.standard_normal((2, 4))
    mask = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.int64)
    ctx = ConditioningContext(clean * mask, mask)
    x_k = q_sample(clean, 17, eps, sched)

    def loss():
        eps_hat, _ = model.forward_tensor(x_k[None], 17, ctx)
        diff = ad.subtract(eps_hat, ad.constant(eps))
        return ad.multiply(ad.sum_all(ad.multiply(diff, diff)), ad.constant(1.0 / eps.size))

    ad.backward(loss())
    h = 1e-4
    worst, count = 0.0, 0
    for tensor in model.parameters().values():
        flat, grads = tensor.value.reshape(-1), tensor.grad.reshape(-1)
        for i in range(flat.size):
            count += 1
            orig = flat[i]
            flat[i] = orig + h
            up = loss().value
            flat[i] = orig - h
            down = loss().value
            flat[i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-6))
    _verdict(10, worst < 1e-4,
             f"worst gradient rel err {worst:.2e} across {count} parameters")


def test_criterion_11_feedback_vs_fixed_scale_report():
    world = make_gaussian_world(6, 12, 0.6, 0.8)
    sched = quadratic_schedule(50)
    mask = np.ones((6, 12), dtype=np.int64)
    mask[0, :] = 0
    fence_maes, fixed_maes = [], []
    for seed in range(20):
        truth = world.sample_clean(
            np.random.Generator(np.random.Philox(key=1000 + seed)))
        oracle = OracleBackend(world, sched)
        contaminated = ContaminatedBackend(oracle, 0.5)
        observed = TrafficGrid(truth * mask)
        for gcfg, bucket in (
                (GuidanceConfig(mode="fence", scope="global"), fence_maes),
                (GuidanceConfig(mode="cfg", fixed_lambda=1.0), fixed_maes)):
            result = impute(contaminated, oracle, observed, MaskMatrix(mask),
                            sched, scale_law(gcfg, sched), n_samples=8, seed=seed)
            bucket.append(np.abs(result.mean_imputation[0] - truth[0]).mean())
    fence_mae = float(np.mean(fence_maes))
    fixed_mae = float(np.mean(fixed_maes))
    margin = fixed_mae - fence_mae
    wins = sum(f < c for f, c in zip(fence_maes, fixed_maes))
    # soft criterion: the margin is reported, not asserted
    print(f"criterion 11: REPORT - feedback MAE {fence_mae:.4f} vs fixed-scale "
          f"MAE {fixed_mae:.4f} on the hidden node, margin {margin:+.4f} "
          f"({wins}/20 seeds favor feedback)")
