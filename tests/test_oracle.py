import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.linalg import cho_factor, cho_solve, eigh

from fence import (
    ConditioningContext,
    ContaminatedBackend,
    GuidanceConfig,
    InvalidInputError,
    MaskMatrix,
    OracleBackend,
    TrafficGrid,
    impute,
    make_gaussian_world,
    node_affinity,
    noise_from_score,
    observations_from_mask,
    quadratic_schedule,
    ring_hops,
    unconditional_context,
)
import fence.world as world_mod
from fence.backends import DenoiserBackend
from fence.sampler import scale_law
from fence.world import GaussianOracleWorld


def test_ring_hops():
    hops = ring_hops(5)
    assert hops[0, 0] == 0 and hops[0, 1] == 1
    assert hops[0, 2] == 2 and hops[0, 3] == 2 and hops[0, 4] == 1
    np.testing.assert_array_equal(hops, hops.T)


def test_world_covariance_is_kron_of_ring_and_ar():
    world = make_gaussian_world(3, 2, spatial_corr=0.5, temporal_corr=0.25)
    hops = ring_hops(3)
    spatial = 0.5 ** hops
    temporal = np.array([[1.0, 0.25], [0.25, 1.0]])
    np.testing.assert_array_equal(world.spatial, spatial)
    np.testing.assert_array_equal(world.temporal, temporal)
    # nothing observed: the conditional law is the prior
    np.testing.assert_array_equal(world.conditional_moments()[1], np.kron(spatial, temporal))
    assert world.dim == 6
    with pytest.raises(InvalidInputError):
        make_gaussian_world(3, 2, spatial_corr=1.0, temporal_corr=0.2)


def test_zero_correlation_gives_identity():
    world = make_gaussian_world(3, 2, spatial_corr=0.0, temporal_corr=0.0)
    np.testing.assert_array_equal(world.conditional_moments()[1], np.eye(6))


def test_flat_layout_is_node_major():
    world = make_gaussian_world(2, 3, 0.5, 0.5)
    grid = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    idx, vals = observations_from_mask(grid, np.ones((2, 3)))
    np.testing.assert_array_equal(idx, range(6))
    np.testing.assert_array_equal(vals, [1, 2, 3, 4, 5, 6])
    # cell (node n, step t) is flat index n*T + t: observing it pins it there
    mean_c, _ = world.observe([1 * 3 + 2], [7.0]).conditional_moments()
    assert mean_c.reshape(2, 3)[1, 2] == 7.0
    assert world.sample_clean(np.random.default_rng(0)).shape == (2, 3)


def test_schur_conditioning_two_node_example():
    # Sigma = [[1, .5], [.5, 1]] (x) [[1]]; observe coordinate 1 at v
    world = GaussianOracleWorld(n_nodes=2, n_steps=1, mean=np.zeros(2),
                                spatial=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                temporal=np.ones((1, 1)))
    v = 1.6
    observed = world.observe([1], [v])
    mean_c, cov_c = observed.conditional_moments()
    assert mean_c[0] == pytest.approx(0.5 * v, abs=1e-14)
    assert mean_c[1] == v  # pinned exactly
    assert cov_c[0, 0] == pytest.approx(0.75, abs=1e-14)
    assert cov_c[1, 1] == 0.0 and cov_c[0, 1] == 0.0


def test_conditional_moments_are_read_only_and_share_the_prior():
    world = make_gaussian_world(2, 3, 0.5, 0.5)
    mean, cov = world.conditional_moments()
    # nothing observed: the prior
    np.testing.assert_array_equal(mean, world.mean)
    np.testing.assert_array_equal(cov, np.kron(world.spatial, world.temporal))
    mean_c, cov_c = world.observe([1], [0.4]).conditional_moments()
    for a in (mean, cov, mean_c, cov_c):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_conditional_moments_match_scipy_regression():
    rng = np.random.default_rng(4)
    world = make_gaussian_world(3, 3, 0.4, 0.6)
    obs_idx = np.array([0, 4, 7])
    obs_val = rng.standard_normal(3)
    observed = world.observe(obs_idx, obs_val)
    mean_c, cov_c = observed.conditional_moments()
    hid = observed.hidden_idx
    prior = np.kron(world.spatial, world.temporal)
    s_hh = prior[np.ix_(hid, hid)]
    s_ho = prior[np.ix_(hid, obs_idx)]
    s_oo = prior[np.ix_(obs_idx, obs_idx)]
    expect_mean = s_ho @ np.linalg.solve(s_oo, obs_val)
    expect_cov = s_hh - s_ho @ np.linalg.solve(s_oo, s_ho.T)
    np.testing.assert_allclose(mean_c[hid], expect_mean, atol=1e-12)
    np.testing.assert_allclose(cov_c[np.ix_(hid, hid)], expect_cov, atol=1e-12)


def _law(world):
    """Dense (mean, covariance) of the world's own law: kron(K_s, K_t) for a
    world with no observations, the full Schur Sigma_c otherwise."""
    if world.observed_idx.size:
        return world.conditional_moments()
    return world.mean, np.kron(world.spatial, world.temporal)


def _marginal_moments(world, k, sched):
    """Dense (mean, covariance) of x_k ~ N(sqrt(abar) m', abar Sigma' + (1-abar) I),
    the reference for score and marginal_logpdf."""
    abar = sched.alpha_bar_at(k)
    m, s = _law(world)
    return math.sqrt(abar) * m, abar * s + (1.0 - abar) * np.eye(world.dim)


def _context(world, idx, vals):
    """The conditional context whose observed cells are world.observe(idx, vals)'s."""
    values, mask = np.zeros(world.dim), np.zeros(world.dim, dtype=np.int64)
    values[idx], mask[idx] = vals, 1
    shape = (world.n_nodes, world.n_steps)
    return ConditioningContext(values.reshape(shape), mask.reshape(shape))


def test_marginal_moments_interpolate_to_prior():
    world = make_gaussian_world(2, 2, 0.3, 0.5)
    sched = quadratic_schedule(50)
    mean_k, cov_k = _marginal_moments(world, 50, sched)
    abar = sched.alpha_bar_at(50)
    prior = np.kron(world.spatial, world.temporal)
    np.testing.assert_allclose(cov_k, abar * prior + (1 - abar) * np.eye(4), atol=1e-15)
    np.testing.assert_allclose(mean_k, np.sqrt(abar) * world.mean, atol=1e-15)


def test_score_matches_finite_differences():
    prior = make_gaussian_world(2, 3, 0.5, 0.7)
    sched = quadratic_schedule(50)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    for world in (prior, prior.observe([0, 3], [1.0, -0.5])):
        score = world.score(x, 10, sched)
        h = 1e-6
        for i in range(6):
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            fd = (world.marginal_logpdf(xp, 10, sched)
                  - world.marginal_logpdf(xm, 10, sched)) / (2 * h)
            assert score[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_marginal_logpdf_matches_scipy():
    world = make_gaussian_world(2, 2, 0.4, 0.3)
    sched = quadratic_schedule(50)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4)
    k = 17
    mean_k, cov_k = _marginal_moments(world, k, sched)
    expect = stats.multivariate_normal(mean_k, cov_k).logpdf(x)
    assert world.marginal_logpdf(x, k, sched) == pytest.approx(expect, rel=1e-12)


def test_scores_match_dense_cholesky_reference():
    # reference: a Cholesky factor of each step's dense marginal covariance,
    # built here from the clean law (the oracle itself only decomposes it once)
    world = make_gaussian_world(6, 8, 0.6, 0.7, mean=0.4)
    rng = np.random.default_rng(12)
    obs = np.sort(rng.choice(world.dim, size=world.dim // 2, replace=False))
    observed = world.observe(obs, rng.standard_normal(obs.size))
    sched = quadratic_schedule(50)
    x = rng.standard_normal(world.dim)
    for law in (world, observed):
        m, s = _law(law)
        ref_score, ref_logpdf, score, logpdf = [], [], [], []
        for k in range(1, 51):
            abar = sched.alpha_bar_at(k)
            factor = cho_factor(abar * s + (1 - abar) * np.eye(world.dim), lower=True)
            resid = x - math.sqrt(abar) * m
            ref_score.append(-cho_solve(factor, resid))
            logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
            ref_logpdf.append(-0.5 * (resid @ cho_solve(factor, resid) + logdet
                                      + world.dim * math.log(2 * math.pi)))
            score.append(law.score(x, k, sched))
            logpdf.append(law.marginal_logpdf(x, k, sched))
        for got, ref in ((score, ref_score), (logpdf, ref_logpdf)):
            ref = np.asarray(ref)
            assert np.abs(np.asarray(got) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_oracle_cache_does_not_grow_with_step_count():
    # the oracle keeps one decomposition per law, not one dense factor per step
    def dense_arrays_after_impute(n_steps):
        world = make_gaussian_world(4, 3, 0.5, 0.6)
        truth = world.sample_clean(np.random.Generator(np.random.Philox(key=2)))
        mask = np.ones((4, 3), dtype=np.int64)
        mask[0] = 0
        sched = quadratic_schedule(n_steps)
        backend = OracleBackend(world, sched)
        impute(backend, backend, TrafficGrid(truth), MaskMatrix(mask), sched,
               scale_law(GuidanceConfig(), sched), n_samples=2, seed=4)
        # the world the backend conditioned on the context
        return sum(a.size >= world.dim ** 2 for a in _arrays(backend._last[1]))

    assert dense_arrays_after_impute(10) == dense_arrays_after_impute(50)


def test_sample_clean_covariance_statistics():
    world = make_gaussian_world(2, 2, 0.6, 0.4)
    rng = np.random.default_rng(8)
    flat = np.stack([world.sample_clean(rng).reshape(world.dim)
                     for _ in range(4000)])
    emp = np.cov(flat.T)
    assert np.abs(emp - np.kron(world.spatial, world.temporal)).max() < 0.12


def _dense_draw(world, rng):
    """Reference draw through one dense Cholesky factor of the whole prior."""
    chol = np.linalg.cholesky(np.kron(world.spatial, world.temporal))
    z = rng.standard_normal(world.dim)
    return (world.mean + chol @ z).reshape(world.n_nodes, world.n_steps)


@pytest.mark.parametrize("shape", [(1, 5), (3, 4), (6, 12), (20, 24)])
def test_sample_clean_matches_the_dense_cholesky_draw(shape):
    # L_s Z L_t^T is (L_s (x) L_t) z = chol(K_s (x) K_t) z on the same stream
    world = make_gaussian_world(*shape, 0.7, 0.8, mean=-0.6, seed=3)
    for key in range(3):
        got = world.sample_clean(np.random.Generator(np.random.Philox(key=key)))
        ref = _dense_draw(world, np.random.Generator(np.random.Philox(key=key)))
        assert got.shape == shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=120, deadline=None)
@given(nodes=st.integers(1, 8), rho_s=st.integers(-99, 99).map(lambda c: c / 100))
@example(nodes=3, rho_s=-0.5)  # a singular ring; scipy's eigh reported +1.1e-15
def test_every_accepted_world_can_be_drawn_from(nodes, rho_s):
    try:
        world = make_gaussian_world(nodes, 4, rho_s, 0.6)
    except InvalidInputError:
        return
    np.linalg.cholesky(np.kron(world.spatial, world.temporal))  # the dense draw's factor
    assert np.isfinite(world.sample_clean(np.random.default_rng(0))).all()


def test_singular_temporal_factor_is_rejected_naming_it():
    # singular along (1, -1, 1), yet scipy's eigh reported a smallest eigenvalue of +1.1e-15
    temporal = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.5], [-0.5, 0.5, 1.0]])
    with pytest.raises(InvalidInputError, match="temporal factor is not"):
        GaussianOracleWorld(2, 3, np.zeros(6), np.eye(2), temporal)


@pytest.mark.parametrize("observed", [[], [0, 5, 6, 13, 29], list(range(1, 30))])
def test_schur_reads_its_blocks_from_the_factors_as_kron_does(observed):
    # every entry is the one product np.kron computes, so the conditional
    # law is bit-identical to whitened Schur conditioning on the dense prior
    world = make_gaussian_world(5, 6, 0.6, 0.7, mean=0.2)
    world = world.observe(observed, np.linspace(-1.0, 1.0, len(observed)))
    prior = np.kron(world.spatial, world.temporal)
    mean_c, obs, hid, cov_hh = world._schur
    for rows in (obs, hid):
        for cols in (obs, hid):
            np.testing.assert_array_equal(world._prior_block(rows, cols),
                                          prior[np.ix_(rows, cols)])
    ref_mean, ref_cov = world.mean.copy(), prior[np.ix_(hid, hid)]
    if obs.size:
        lower = world_mod.cho_factor(prior[np.ix_(obs, obs)])
        w = world_mod.cho_solve(lower, np.column_stack(
            [prior[np.ix_(obs, hid)], np.asarray(world.observed_val) - world.mean[obs]]))
        ref_mean[hid] = world.mean[hid] + w[:, :hid.size].T @ w[:, -1]
        ref_mean[obs] = world.observed_val
        ref_cov = ref_cov - w[:, :hid.size].T @ w[:, :hid.size]
    np.testing.assert_array_equal(mean_c, ref_mean)
    np.testing.assert_array_equal(cov_hh, ref_cov)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), t=st.integers(1, 6), rho_s=st.floats(-0.45, 0.95),
       rho_t=st.floats(-0.95, 0.95), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_schur_matches_scipys_cholesky_conditioning(n, t, rho_s, rho_t, share, seed):
    # an independent reference: scipy's cho_factor/cho_solve on the dense prior
    rng = np.random.default_rng(seed)
    world = make_gaussian_world(n, t, rho_s, rho_t, mean=float(rng.normal()))
    count = int(round(share * world.dim))
    obs = np.sort(rng.choice(world.dim, size=count, replace=False))
    vals = rng.standard_normal(count)
    mean_c, _, hid, cov_hh = world.observe(obs, vals)._schur
    prior = np.kron(world.spatial, world.temporal)
    ref_mean, ref_cov = world.mean.copy(), prior[np.ix_(hid, hid)]
    if count:
        s_ho = prior[np.ix_(hid, obs)]
        f_oo = cho_factor(prior[np.ix_(obs, obs)], lower=True)
        ref_mean[hid] += s_ho @ cho_solve(f_oo, vals - world.mean[obs])
        ref_mean[obs] = vals
        ref_cov = ref_cov - s_ho @ cho_solve(f_oo, s_ho.T)
    np.testing.assert_allclose(mean_c, ref_mean, rtol=0, atol=1e-11)
    np.testing.assert_allclose(cov_hh, ref_cov, rtol=0, atol=1e-11)


@pytest.mark.parametrize("share", [0.3, 0.5, 0.7, 0.9])
def test_conditional_covariance_is_exactly_symmetric(share):
    world = make_gaussian_world(20, 24, 0.8, 0.9, mean=0.2)
    rng = np.random.default_rng(23)
    obs = np.flatnonzero(rng.random(world.dim) < share)
    cov_hh = world.observe(obs, rng.standard_normal(obs.size))._schur[3]
    np.testing.assert_array_equal(cov_hh, cov_hh.T)


def _arrays(world):
    arrays, todo = [], list(vars(world).values())
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            todo.extend(item)
        elif isinstance(item, np.ndarray):
            arrays.append(item)
    return arrays


def test_an_observed_world_holds_no_array_of_the_whole_prior():
    world = make_gaussian_world(4, 5, 0.6, 0.7).observe([3], [0.5])
    sched = quadratic_schedule(10)
    x = np.random.default_rng(19).standard_normal((2, world.dim))
    world.score(x, 4, sched)
    node_affinity(world)
    world.sample_clean(np.random.default_rng(20))
    assert world.__dict__.keys() >= {"_schur", "_hidden_eigen"}
    assert all(a.shape != (world.dim, world.dim) for a in _arrays(world))


def test_cho_factor_runs_once_per_observed_world_and_never_to_draw(monkeypatch):
    shapes = []
    real = world_mod.cho_factor

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(world_mod, "cho_factor", counted)
    world = make_gaussian_world(4, 5, 0.6, 0.7)
    sched = quadratic_schedule(10)
    x = np.random.default_rng(21).standard_normal((2, world.dim))
    for key in range(3):
        world.sample_clean(np.random.Generator(np.random.Philox(key=key)))
    node_affinity(world)
    assert shapes == []
    for observed in (world.observe([0, 7], [1.0, -1.0]), world.observe([2], [0.3])):
        for k in (1, 4):
            observed.score(x, k, sched)
            node_affinity(observed)
        observed.conditional_moments()
        observed.sample_clean(np.random.default_rng(22))
    assert shapes == [(2, 2), (1, 1)]


def test_observe_validation():
    world = make_gaussian_world(2, 2, 0.5, 0.5)
    with pytest.raises(InvalidInputError):
        world.observe([4], [1.0])
    with pytest.raises(InvalidInputError):
        world.observe([0, 0], [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        world.observe([0], [np.nan])


@pytest.mark.parametrize("indices, values", [
    pytest.param([1.7], [1.0], id="fractional-index"),
    pytest.param([0, 2.5], [1.0, 2.0], id="fractional-index-among-integers"),
    pytest.param([1.0], [1.0], id="integral-float-index"),
    pytest.param([True], [1.0], id="boolean-index"),
    pytest.param([False, True], [1.0, 2.0], id="boolean-indices"),
    pytest.param([True, 2], [1.0, 2.0], id="boolean-among-integer-indices"),
    pytest.param(["3"], [1.0], id="string-index"),
    pytest.param([None], [1.0], id="none-index"),
    pytest.param([[0, 1]], [[1.0, 2.0]], id="2-d-indices"),
    pytest.param([[0, 1]], [1.0, 2.0], id="2-d-indices-1-d-values"),
    pytest.param(0, 1.0, id="scalar"),
    pytest.param([0, 1], [1.0], id="more-indices"),
    pytest.param([0], [1.0, 2.0], id="more-values"),
    pytest.param([], [1.0], id="values-without-indices"),
    pytest.param([2, 1, 2], [1.0, 2.0, 3.0], id="duplicate"),
    pytest.param([-1], [1.0], id="negative"),
    pytest.param([0, 7], [1.0, 2.0], id="out-of-range"),
    pytest.param(np.array([0, 2 ** 64 - 1], dtype=np.uint64), [1.0, 2.0], id="huge-uint64"),
    pytest.param([0], ["1.0"], id="string-value"),
    pytest.param([0], [None], id="none-value"),
    pytest.param([0], [1j], id="complex-value"),
    pytest.param([0], [True], id="boolean-value"),
    pytest.param([0, 1], [True, 2.0], id="boolean-among-float-values"),
    pytest.param([0, 1], [1.0, np.nan], id="nan-value"),
    pytest.param([0], [np.inf], id="inf-value"),
    pytest.param([0], [-np.inf], id="minus-inf-value"),
])
def test_observe_rejects_every_malformed_observation(indices, values):
    with pytest.raises(InvalidInputError):
        make_gaussian_world(2, 2, 0.5, 0.5).observe(indices, values)


def test_observations_are_one_sorted_read_only_pair():
    world = make_gaussian_world(2, 3, 0.5, 0.5)
    for observed in (world.observe(np.array([4, 0, 2], dtype=np.uint8), [3, 1, 2]),
                     world.observe(range(4, -1, -2), [3, 2, 1])):
        for a, dtype, expected in ((observed.observed_idx, np.intp, [0, 2, 4]),
                                   (observed.observed_val, np.float64, [1.0, 2.0, 3.0]),
                                   (observed.hidden_idx, np.intp, [1, 3, 5])):
            assert a.dtype == dtype and not a.flags.writeable
            np.testing.assert_array_equal(a, expected)
    empty = world.observe([], [])
    assert empty.observed_idx.dtype == np.intp and empty.observed_idx.size == 0
    np.testing.assert_array_equal(empty.hidden_idx, range(6))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), t=st.integers(1, 5), rho_s=st.floats(-0.45, 0.95),
       rho_t=st.floats(-0.95, 0.95), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conditioning_depends_on_the_observed_set_not_its_order(n, t, rho_s, rho_t,
                                                                share, seed):
    rng = np.random.default_rng(seed)
    world = make_gaussian_world(n, t, rho_s, rho_t, mean=float(rng.normal()))
    count = int(round(share * world.dim))
    obs = rng.choice(world.dim, size=count, replace=False)
    vals = rng.standard_normal(count)
    permuted, order = rng.permutation(count), np.argsort(obs)
    shuffled = world.observe(obs[permuted], vals[permuted])
    ordered = world.observe(obs[order], vals[order])
    for a, b in zip((*shuffled._schur, *shuffled._hidden_eigen),
                    (*ordered._schur, *ordered._hidden_eigen)):
        np.testing.assert_array_equal(a, b)
    sched = quadratic_schedule(8)
    x = rng.standard_normal((2, world.dim))
    for k in (1, 5, 8):
        np.testing.assert_array_equal(shuffled.score(x, k, sched), ordered.score(x, k, sched))


def test_a_conditioned_world_runs_eigh_once_and_never_on_the_factors(monkeypatch):
    shapes = []
    real = world_mod.eigh

    def counted(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(world_mod, "eigh", counted)
    world = make_gaussian_world(4, 5, 0.6, 0.7)
    sched = quadratic_schedule(10)
    x = np.random.default_rng(24).standard_normal((2, world.dim))
    observed = world.observe([0, 7, 3], [1.0, -1.0, 0.5])
    for k in (1, 4, 10):
        observed.score(x, k, sched)
        observed.marginal_logpdf(x[0], k, sched)
    node_affinity(observed)
    observed.conditional_moments()
    observed.sample_clean(np.random.default_rng(25))
    world.sample_clean(np.random.default_rng(26))
    assert shapes == [(17, 17)]  # the hidden block only
    # the prior decomposes each factor once, at its first score
    for k in (1, 4):
        world.score(x, k, sched)
    world.marginal_logpdf(x[0], 4, sched)
    assert shapes == [(17, 17), (4, 4), (5, 5)]



def test_replaced_world_scores_like_a_fresh_one():
    world = make_gaussian_world(2, 3, 0.5, 0.6)
    sched = quadratic_schedule(10)
    x = np.random.default_rng(4).standard_normal(world.dim)
    before = world.score(x, 5, sched)  # fills the world's cached factors
    moved = replace(world, mean=np.full(world.dim, 3.0))
    fresh = make_gaussian_world(2, 3, 0.5, 0.6, mean=3.0)
    np.testing.assert_array_equal(moved.score(x, 5, sched), fresh.score(x, 5, sched))
    np.testing.assert_array_equal(world.score(x, 5, sched), before)


def test_observations_from_mask():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[1, 0], [0, 1]])
    idx, vals = observations_from_mask(values, mask)
    np.testing.assert_array_equal(idx, [0, 3])
    np.testing.assert_array_equal(vals, [1.0, 4.0])


def test_conditioning_context_invariants():
    ctx = ConditioningContext(np.array([[1.0, 2.0]]), np.array([[1, 0]]))
    np.testing.assert_array_equal(ctx.observed, [[1.0, 0.0]])
    assert not ctx.is_unconditional
    un = unconditional_context(1, 2)
    assert un.is_unconditional and un.observed.sum() == 0
    with pytest.raises(ValueError):
        ctx.observed[0, 0] = 5.0
    with pytest.raises(InvalidInputError):
        ConditioningContext(np.ones((1, 2)), np.ones((1, 2)), is_unconditional=True)
    with pytest.raises(InvalidInputError):
        ConditioningContext(np.ones((1, 2)), np.full((1, 2), 2))


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                       st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))),
       mask_dtype=st.sampled_from([np.int64, np.float64]), data=st.data())
def test_context_keeps_its_own_zero_filled_copy(shape, mask_dtype, data):
    values = data.draw(arrays(np.float64, shape,
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    mask = data.draw(arrays(mask_dtype, shape, elements=st.sampled_from([0, 1])))
    given_values, given_mask = values.copy(), mask.copy()
    ctx = ConditioningContext(values, mask)
    assert ctx.observed.tobytes() == (values * (mask == 1)).tobytes()
    assert ctx.mask.dtype == np.float64
    np.testing.assert_array_equal(ctx.mask, mask)
    assert not ctx.observed.flags.writeable and not ctx.mask.flags.writeable
    # the caller's arrays are neither frozen nor changed
    assert values.flags.writeable and mask.flags.writeable
    assert values.tobytes() == given_values.tobytes()
    assert mask.tobytes() == given_mask.tobytes()


def test_oracle_backend_returns_noise_scaled_score():
    prior = make_gaussian_world(2, 3, 0.5, 0.5)
    world = prior.observe([0], [1.0])
    sched = quadratic_schedule(50)
    backend = OracleBackend(prior, sched)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 3))
    k = 12
    eps_c, attn = backend.predict(x, k, _context(prior, [0], [1.0]))
    score = world.score(x.reshape(-1), k, sched)
    np.testing.assert_allclose(
        eps_c, noise_from_score(score.reshape(1, 2, 3), k, sched), atol=1e-14)
    eps_u, _ = backend.predict(x, k, unconditional_context(2, 3))
    score_u = prior.score(x.reshape(-1), k, sched)
    np.testing.assert_allclose(
        eps_u, noise_from_score(score_u.reshape(1, 2, 3), k, sched), atol=1e-14)
    assert attn.shape == (2, 2)  # one matrix shared by every row
    np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        backend.predict(np.zeros((1, 3, 2)), k, unconditional_context(3, 2))
    with pytest.raises(InvalidInputError):
        backend.predict(np.zeros((2, 3)), k, unconditional_context(2, 3))  # no batch axis


def _eps(world, x, k, sched):
    """The exact noise prediction of the world's own law for the batch x."""
    score = world.score(x.reshape(len(x), -1), k, sched)
    return noise_from_score(score.reshape(x.shape), k, sched)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), t=st.integers(1, 5), rho_s=st.floats(-0.45, 0.95),
       rho_t=st.floats(-0.95, 0.95), observed=st.sampled_from(["none", "random", "all"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_backend_conditions_on_the_context_it_is_given(n, t, rho_s, rho_t,
                                                              observed, seed):
    rng = np.random.default_rng(seed)
    world = make_gaussian_world(n, t, rho_s, rho_t, mean=float(rng.normal()))
    values = 2.0 * rng.standard_normal((n, t))
    mask = {"none": np.zeros((n, t)), "random": rng.integers(0, 2, (n, t)),
            "all": np.ones((n, t))}[observed].astype(np.int64)
    sched = quadratic_schedule(10)
    backend = OracleBackend(world, sched)
    conditioned = world.observe(*observations_from_mask(values, mask))
    x = 2.0 * rng.standard_normal((3, n, t))
    ctx = ConditioningContext(values, mask)
    affinity = node_affinity(conditioned)
    for k in (10, 5, 1):
        eps, attn = backend.predict(x, k, ctx)
        np.testing.assert_allclose(eps, _eps(conditioned, x, k, sched), rtol=0, atol=1e-12)
        np.testing.assert_allclose(attn, affinity, rtol=0, atol=1e-12)
        # one read-only affinity per conditioned world, returned at every step
        assert not attn.flags.writeable and attn is backend.predict(x, 1, ctx)[1]
        eps_u, attn_u = backend.predict(x, k, unconditional_context(n, t))
        np.testing.assert_allclose(eps_u, _eps(world, x, k, sched), rtol=0, atol=1e-12)
        assert attn_u is None


def test_one_oracle_backend_gives_each_context_its_own_law():
    world = make_gaussian_world(3, 4, 0.6, 0.7, mean=0.3)
    sched = quadratic_schedule(20)
    backend = OracleBackend(world, sched)
    x = np.random.default_rng(24).standard_normal((2, 3, 4))
    laws = [([0, 5], [1.0, -0.5]), ([3, 4, 11], [0.2, 0.3, -1.0])]
    contexts = [_context(world, idx, vals) for idx, vals in laws]
    for k in (20, 19, 18):
        for ctx, (idx, vals) in zip(contexts, laws):
            conditioned = world.observe(idx, vals)
            eps, attn = backend.predict(x, k, ctx)
            np.testing.assert_allclose(eps, _eps(conditioned, x, k, sched),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(attn, node_affinity(conditioned),
                                       rtol=0, atol=1e-12)


def test_oracle_backend_rejects_an_observed_world_and_a_context_of_another_shape():
    world = make_gaussian_world(2, 3, 0.5, 0.5)
    sched = quadratic_schedule(10)
    with pytest.raises(InvalidInputError, match="unobserved world"):
        OracleBackend(world.observe([0], [1.0]), sched)
    backend = OracleBackend(world.observe([], []), sched)  # nothing observed: the prior
    with pytest.raises(InvalidInputError, match="context"):
        backend.predict(np.zeros((1, 2, 3)), 4, ConditioningContext(np.ones((3, 2)),
                                                                    np.ones((3, 2))))


def test_oracle_impute_conditions_the_world_once(monkeypatch):
    observed = []
    real = GaussianOracleWorld.observe

    def counted(self, indices, values):
        observed.append(len(indices))
        return real(self, indices, values)

    monkeypatch.setattr(GaussianOracleWorld, "observe", counted)
    world = make_gaussian_world(4, 5, 0.6, 0.7)
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=3)))
    mask = np.ones((4, 5), dtype=np.int64)
    mask[1, 2:] = 0
    sched = quadratic_schedule(20)
    backend = OracleBackend(world, sched)
    impute(backend, backend, TrafficGrid(truth), MaskMatrix(mask), sched,
           scale_law(GuidanceConfig(mode="fence"), sched, 2), n_samples=3, seed=5)
    assert observed == [17]


def test_node_affinity_is_row_stochastic():
    world = make_gaussian_world(4, 3, 0.6, 0.5)
    a = node_affinity(world)
    assert a.shape == (4, 4) and not a.flags.writeable
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert (a >= 0).all()


def _dense_node_affinity(world):
    # the dense formula on the clean (abar = 1) law; giving each pinned cell
    # a unit variance keeps only its correlation of 1 with itself
    cov = _law(world)[1].copy()
    pinned = list(world.observed_idx)
    cov[pinned, pinned] = 1.0
    std = np.sqrt(np.diag(cov))
    corr = np.abs(cov / np.outer(std, std))
    n, t = world.n_nodes, world.n_steps
    blocks = corr.reshape(n, t, n, t).mean(axis=(1, 3))
    return blocks / blocks.sum(axis=1, keepdims=True)


def test_node_affinity_matches_the_dense_formula():
    world = make_gaussian_world(6, 8, 0.6, 0.7)
    rng = np.random.default_rng(14)
    obs = np.sort(rng.choice(world.dim, size=world.dim // 2, replace=False))
    observed = world.observe(obs, rng.standard_normal(obs.size))
    # the prior law (nothing observed) and a conditional one; the hidden
    # block sums in another order than the dense pass
    for w in (world, observed):
        np.testing.assert_allclose(node_affinity(w), _dense_node_affinity(w),
                                   rtol=0, atol=1e-13)


def _dense_score_and_logpdf(world, x, k, sched):
    """The former dense path: one eigh of the whole (NT, NT) covariance of the
    world's own law."""
    m, s = _law(world)
    w, u = eigh(s)
    abar = sched.alpha_bar_at(k)
    v = abar * w + (1.0 - abar)
    z = (np.atleast_2d(x) - math.sqrt(abar) * m) @ u
    score = -((z / v) @ u.T).reshape(np.shape(x))
    logpdf = -0.5 * ((z * z / v).sum(axis=1) + np.log(v).sum()
                     + world.dim * math.log(2.0 * math.pi))
    return score, logpdf


def _close(got, ref, rel=1e-10):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.abs(got - ref).max() <= rel * max(np.abs(ref).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), t=st.integers(1, 6), rho_s=st.floats(-0.45, 0.95),
       rho_t=st.floats(-0.95, 0.95), observed=st.sampled_from(["none", "random", "all but one"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_factored_oracle_matches_the_dense_reference(n, t, rho_s, rho_t, observed, seed):
    rng = np.random.default_rng(seed)
    prior = make_gaussian_world(n, t, rho_s, rho_t, mean=float(rng.normal()))
    count = {"none": 0, "random": int(rng.integers(0, prior.dim)),
             "all but one": prior.dim - 1}[observed]
    idx = rng.choice(prior.dim, size=count, replace=False)
    world = prior.observe(idx, rng.standard_normal(count))
    sched = quadratic_schedule(20)
    x = 2.0 * rng.standard_normal((3, world.dim))
    for k in (1, 10, 20):
        for law in (prior, world):
            ref_score, ref_logpdf = _dense_score_and_logpdf(law, x, k, sched)
            assert _close(law.score(x, k, sched), ref_score)
            assert _close(law.score(x[0], k, sched), ref_score[0])
            assert _close(law.marginal_logpdf(x[0], k, sched), ref_logpdf[0])
    assert _close(node_affinity(world), _dense_node_affinity(world))


def test_fully_observed_world_still_runs():
    world = make_gaussian_world(3, 4, 0.5, 0.6)
    values = np.random.default_rng(16).standard_normal((3, 4))
    observed = world.observe(range(world.dim), values.reshape(-1))
    sched = quadratic_schedule(8)
    x = np.random.default_rng(17).standard_normal((2, world.dim))
    for k in (1, 8):
        abar = sched.alpha_bar_at(k)
        np.testing.assert_allclose(observed.score(x, k, sched),
                                   -(x - math.sqrt(abar) * values.reshape(-1)) / (1 - abar),
                                   rtol=1e-14)
        assert math.isfinite(observed.marginal_logpdf(x[0], k, sched))
    np.testing.assert_array_equal(node_affinity(observed), np.eye(3))
    backend = OracleBackend(world, sched)
    result = impute(backend, backend, TrafficGrid(values), MaskMatrix(np.ones((3, 4))), sched,
                    scale_law(GuidanceConfig(mode="fence"), sched, 2),
                    n_samples=2, seed=3)
    assert np.isfinite(result.samples).all()


def test_imputing_decomposes_nothing_larger_than_the_hidden_block(monkeypatch):
    # structure, not timing: the prior is decomposed through its factors, the
    # conditional law through its hidden block, and observe() factors nothing dense
    eighs, cholesky = [], []

    def recorded(log, real):
        def call(a, *args, **kwargs):
            log.append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    monkeypatch.setattr(world_mod, "eigh", recorded(eighs, world_mod.eigh))
    monkeypatch.setattr(world_mod, "cho_factor", recorded(cholesky, world_mod.cho_factor))
    world = make_gaussian_world(20, 24, 0.8, 0.9)
    rng = np.random.default_rng(18)
    truth = rng.standard_normal((20, 24))
    mask = (rng.random((20, 24)) > 0.3).astype(np.int64)
    hidden = int((mask == 0).sum())
    idx, vals = observations_from_mask(truth, mask)
    observed = world.observe(idx, vals)
    assert all(shape[0] < world.dim for shape in cholesky)
    sched = quadratic_schedule(5)
    backend = OracleBackend(world, sched)
    impute(backend, backend, TrafficGrid(truth), MaskMatrix(mask), sched,
           scale_law(GuidanceConfig(mode="fence"), sched, 3), n_samples=2, seed=6)
    assert max(shape[0] for shape in eighs) == hidden
    assert eighs.count((hidden, hidden)) == 1
    assert all(shape[0] < world.dim for shape in cholesky)


def test_batched_oracle_predict_matches_single_rows():
    world = make_gaussian_world(5, 6, 0.6, 0.7)
    sched = quadratic_schedule(50)
    backend = OracleBackend(world, sched)
    x = np.random.default_rng(15).standard_normal((7, 5, 6))
    for ctx in (_context(world, [0, 7, 13], [1.0, -0.5, 0.2]),
                unconditional_context(5, 6)):
        for k in (1, 23, 50):
            eps, attn = backend.predict(x, k, ctx)
            assert eps.shape == x.shape
            if ctx.is_unconditional:
                assert attn is None  # only the conditional affinity drives clustering
            else:
                assert attn.shape == (5, 5)  # one matrix shared by every row
            for i in range(len(x)):
                # bit for bit: a lone row takes the batch's BLAS product too
                one, one_attn = backend.predict(x[i:i + 1], k, ctx)
                np.testing.assert_array_equal(one[0], eps[i])
                if attn is None:
                    assert one_attn is None
                else:
                    np.testing.assert_array_equal(attn, one_attn)


def test_oracle_impute_builds_one_affinity_per_run(monkeypatch):
    # the affinity depends on the conditioned world alone, and the
    # unconditional call exports none: K steps build one
    import fence.backends as backends

    worlds = []
    real = backends.node_affinity

    def counted(world):
        worlds.append(world)
        return real(world)

    monkeypatch.setattr(backends, "node_affinity", counted)
    world = make_gaussian_world(4, 5, 0.6, 0.7)
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=3)))
    mask = np.ones((4, 5), dtype=np.int64)
    mask[1, 2:] = 0
    sched = quadratic_schedule(20)
    backend = OracleBackend(world, sched)
    impute(backend, backend, TrafficGrid(truth), MaskMatrix(mask), sched,
           scale_law(GuidanceConfig(mode="fence"), sched, 2), n_samples=3, seed=5)
    assert len(worlds) == 1 and worlds[0].observed_idx.size


def test_oracle_impute_runs_one_kmeans_per_run(monkeypatch):
    # the one shared affinity is clustered once, at the first step, not once
    # per step or per trajectory
    import fence.sampler as sampler

    seeds = []
    real = sampler.kmeans

    def counted(features, k, seed):
        seeds.append(seed)
        return real(features, k, seed)

    monkeypatch.setattr(sampler, "kmeans", counted)
    world = make_gaussian_world(4, 5, 0.6, 0.7)
    truth = world.sample_clean(np.random.Generator(np.random.Philox(key=3)))
    mask = np.ones((4, 5), dtype=np.int64)
    mask[1, 2:] = 0
    sched = quadratic_schedule(20)
    backend = OracleBackend(world, sched)
    result = impute(backend, backend, TrafficGrid(truth), MaskMatrix(mask), sched,
                    scale_law(GuidanceConfig(mode="fence"), sched, 2),
                    n_samples=5, seed=5)
    assert seeds == [(5 << 32) + 20]
    assert (result.cluster_id == result.cluster_id[:1]).all()


class _UlpNudgedAffinity(DenoiserBackend):
    """The inner backend with every entry of each new affinity it exports
    multiplied by 1 + or - one ulp, the sign drawn at random."""

    def __init__(self, inner, rng):
        self.inner, self.rng, self._last = inner, rng, (None, None)

    def predict(self, x_k, k, ctx):
        eps, attn = self.inner.predict(x_k, k, ctx)
        if attn is None:
            return eps, None
        if attn is not self._last[0]:
            ulp = np.where(self.rng.random(attn.shape) < 0.5,
                           np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0))
            nudged = attn * ulp
            nudged.setflags(write=False)
            self._last = (attn, nudged)
        return eps, self._last[1]


# fixed before any run; not the seeds that chose the clustering design
ULP_PROBE_SEEDS = (6241, 6242, 6243)


@pytest.mark.parametrize("seed", ULP_PROBE_SEEDS)
def test_one_ulp_on_the_oracle_affinity_moves_no_label(seed):
    # the benchmark's 20 x 24 world, 12-step patches hidden per node at four
    # missing rates: rounding in the affinity must not flip a k-means label
    world = make_gaussian_world(20, 24, 0.8, 0.95)
    sched = quadratic_schedule(50)
    rng = np.random.default_rng(seed)
    law = scale_law(GuidanceConfig(mode="fence"), sched, 3)
    for rate in (0.3, 0.5, 0.7, 0.9):
        truth = world.sample_clean(rng)
        mask = np.repeat(rng.random((20, 2)) >= rate, 12, axis=1).astype(np.int64)
        runs = [impute(backend, backend, TrafficGrid(truth), MaskMatrix(mask), sched, law,
                       n_samples=10, seed=seed)
                for backend in (OracleBackend(world, sched),
                                _UlpNudgedAffinity(OracleBackend(world, sched), rng))]
        np.testing.assert_array_equal(runs[0].cluster_id, runs[1].cluster_id)
        assert np.abs(runs[0].samples - runs[1].samples).max() <= 1e-9


def test_contaminated_backend_blends_predictions():
    world = make_gaussian_world(2, 2, 0.5, 0.5)
    sched = quadratic_schedule(50)
    inner = OracleBackend(world, sched)
    tainted = ContaminatedBackend(inner, pi_true=0.3)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 2, 2))
    ctx = _context(world, [0], [1.0])
    eps_t, _ = tainted.predict(x, 5, ctx)
    eps_c, _ = inner.predict(x, 5, ctx)
    eps_u, _ = inner.predict(x, 5, unconditional_context(2, 2))
    np.testing.assert_allclose(eps_t, 0.7 * eps_u + 0.3 * eps_c, atol=1e-14)
    # unconditional queries pass through untouched
    eps_tu, _ = tainted.predict(x, 5, unconditional_context(2, 2))
    np.testing.assert_array_equal(eps_tu, eps_u)
    with pytest.raises(InvalidInputError):
        ContaminatedBackend(inner, pi_true=0.0)
