import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fence import (
    GuidanceConfig,
    InvalidInputError,
    cluster_scales,
    guidance_scale,
    kmeans,
)
from fence.clustering import cluster_count


def test_default_cluster_count_rounds_to_nearest():
    assert cluster_count(None, 10) == 1
    assert cluster_count(None, 20) == 1
    assert cluster_count(None, 30) == 2  # 1.5 rounds half-up
    assert cluster_count(None, 50) == 3
    assert cluster_count(None, 307) == 15
    assert cluster_count(None, 5) == 1  # never below 1


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((20, 2)) * 0.1 + np.array([0.0, 0.0])
    b = rng.standard_normal((20, 2)) * 0.1 + np.array([10.0, 10.0])
    pts = np.vstack([a, b])
    labels, centers = kmeans(pts, 2, seed=1)
    assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
    assert labels[0] != labels[20]
    got = sorted(centers[:, 0])
    assert got[0] == pytest.approx(0.0, abs=0.1)
    assert got[1] == pytest.approx(10.0, abs=0.1)


def test_kmeans_determinism_and_bounds():
    rng = np.random.default_rng(16)
    pts = rng.standard_normal((30, 3))
    l1, c1 = kmeans(pts, 4, seed=7)
    l2, c2 = kmeans(pts, 4, seed=7)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(c1, c2)
    assert l1.min() >= 0 and l1.max() < 4
    assert np.bincount(l1, minlength=4).min() >= 1  # no empty cluster survives


def test_kmeans_degenerate_counts():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((6, 2))
    labels, centers = kmeans(pts, 1, seed=0)
    np.testing.assert_array_equal(labels, 0)
    np.testing.assert_allclose(centers[0], pts.mean(axis=0), rtol=1e-12)
    labels_n, _ = kmeans(pts, 6, seed=0)
    assert sorted(labels_n.tolist()) == list(range(6))
    with pytest.raises(InvalidInputError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(InvalidInputError):
        kmeans(pts, 7, seed=0)
    with pytest.raises(InvalidInputError):
        kmeans(pts[0], 1, seed=0)


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_does_not_let_rounding_settle_a_tie(seed):
    # the rows of an identity are equidistant from one another, as the
    # affinity rows of nodes with no hidden cell are: one ulp on every entry
    # must not decide which cluster a row joins
    pts = np.vstack([np.eye(10), np.random.default_rng(seed).dirichlet(np.ones(10), 4)])
    labels, _ = kmeans(pts, 3, seed=seed)
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        ulp = np.where(rng.random(pts.shape) < 0.5, np.nextafter(1.0, 2.0),
                       np.nextafter(1.0, 0.0))
        np.testing.assert_array_equal(kmeans(pts * ulp, 3, seed=seed)[0], labels)


def test_kmeans_identical_points():
    pts = np.ones((5, 2))
    labels, centers = kmeans(pts, 2, seed=3)
    # coincident points: clusters still partition every node
    assert np.bincount(labels, minlength=2).min() >= 1
    np.testing.assert_array_equal(centers, 1.0)


def test_cluster_scales_pool_cluster_means():
    cfg = GuidanceConfig(pi=0.5, lambda_max=10.0)
    logp = np.array([[1.0, 3.0, 5.0, 7.0]])
    lam = cluster_scales(logp, np.array([[0, 0, 1, 1]]), cfg)
    expect = guidance_scale(np.array([2.0, 6.0]), 0.5, 10.0)
    np.testing.assert_array_equal(lam, [[expect[0], expect[0], expect[1], expect[1]]])
    with pytest.raises(InvalidInputError):
        cluster_scales(logp, np.array([[0, 0, 2, 2]]), cfg)  # id 1 unpopulated
    with pytest.raises(InvalidInputError):
        cluster_scales(logp, np.array([[0, 0, 1]]), cfg)
    with pytest.raises(InvalidInputError):
        cluster_scales(logp[0], np.array([0, 0, 1, 1]), cfg)  # no trajectory axis


def test_cluster_scales_inherit_cluster_lambda():
    cfg = GuidanceConfig(pi=0.5, lambda_max=10.0)
    logp = np.array([[np.log(2.0), np.log(0.3), np.log(0.3), np.log(2.0)]])
    labels = np.array([[0, 1, 1, 0]])
    lam = cluster_scales(logp, labels, cfg)
    lam0 = guidance_scale(np.log(2.0), 0.5, 10.0)
    np.testing.assert_allclose(lam, [[lam0, 10.0, 10.0, lam0]], rtol=1e-12)


@st.composite
def _pooling_case(draw):
    s = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    # k-means-style labels: every id 0..k-1 appears in every row
    labels = np.stack([rng.permutation(np.concatenate(
        [np.arange(k), rng.integers(0, k, n - k)])) for _ in range(s)])
    logp = rng.standard_normal((s, n)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    return logp, labels


@settings(max_examples=100, deadline=None)
@given(_pooling_case())
def test_trajectory_pools_only_its_own_clusters(case):
    logp, labels = case
    cfg = GuidanceConfig(pi=0.4, lambda_max=6.0)
    stacked = cluster_scales(logp, labels, cfg)
    rows = np.concatenate([cluster_scales(logp[i:i + 1], labels[i:i + 1], cfg)
                           for i in range(len(logp))])
    np.testing.assert_array_equal(stacked, rows)
