import numpy as np
import pytest

from fence import (
    InvalidInputError,
    MaskPatternConfig,
    mask_sc_tc,
    mask_sr_tc,
    patch_bounds,
    ring_communities,
)


def test_config_validation():
    MaskPatternConfig("SR-TC", 0.5, 12)
    with pytest.raises(InvalidInputError):
        MaskPatternConfig("other", 0.5, 12)
    with pytest.raises(InvalidInputError):
        MaskPatternConfig("SR-TC", 1.5, 12)
    with pytest.raises(InvalidInputError):
        MaskPatternConfig("SR-TC", 0.5, 0)
    with pytest.raises(InvalidInputError):
        MaskPatternConfig("SC-TC", 0.5, 12, n_communities=0)


def test_patch_bounds_ragged_tail():
    assert patch_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert patch_bounds(8, 4) == [(0, 4), (4, 8)]
    assert patch_bounds(3, 4) == [(0, 3)]


def test_sr_tc_patches_are_all_or_nothing():
    cfg = MaskPatternConfig("SR-TC", 0.5, 4, seed=11)
    mask = mask_sr_tc(5, 10, cfg)
    for lo, hi in patch_bounds(10, 4):
        block = mask.entries[:, lo:hi]
        # each node's patch is uniformly kept or dropped
        assert np.all((block.min(axis=1) == block.max(axis=1)))


def test_sr_tc_rate_and_determinism():
    cfg = MaskPatternConfig("SR-TC", 0.3, 6, seed=2)
    a = mask_sr_tc(40, 120, cfg)
    b = mask_sr_tc(40, 120, cfg)
    np.testing.assert_array_equal(a.entries, b.entries)
    missing = 1.0 - a.entries.mean()
    # 40*20 = 800 Bernoulli(0.3) patches; allow 4 sigma
    assert abs(missing - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 800)
    c = mask_sr_tc(40, 120, MaskPatternConfig("SR-TC", 0.3, 6, seed=3))
    assert not np.array_equal(a.entries, c.entries)


def test_sr_tc_extremes_and_short_series():
    none = mask_sr_tc(3, 8, MaskPatternConfig("SR-TC", 0.0, 4))
    assert none.entries.min() == 1
    full = mask_sr_tc(3, 8, MaskPatternConfig("SR-TC", 1.0, 4))
    assert full.entries.max() == 0
    with pytest.raises(InvalidInputError):
        mask_sr_tc(3, 3, MaskPatternConfig("SR-TC", 0.5, 4))


def test_sc_tc_blocks_follow_declared_communities():
    communities = ((0, 1, 2), (3, 4, 5))
    cfg = MaskPatternConfig("SC-TC", 0.5, 4, seed=9)
    mask = mask_sc_tc(communities, 12, cfg)
    for lo, hi in patch_bounds(12, 4):
        block = mask.entries[:, lo:hi]
        for members in communities:
            rows = block[list(members)]
            # all nodes of a community share one fate per patch
            assert np.all(rows == rows[0])


def test_sc_tc_needs_some_community_source():
    with pytest.raises(InvalidInputError):
        ring_communities(6, MaskPatternConfig("SC-TC", 0.5, 4))
    communities = ring_communities(6, MaskPatternConfig("SC-TC", 0.5, 4, n_communities=2,
                                                        seed=1))
    assert len(communities) == 2
    assert mask_sc_tc(communities, 12, MaskPatternConfig("SC-TC", 0.5, 4)).entries.shape \
        == (6, 12)
    with pytest.raises(InvalidInputError):
        ring_communities(6, MaskPatternConfig("SC-TC", 0.5, 4, n_communities=7))


@pytest.mark.parametrize("n_nodes", [1, 6, 9, 20])
def test_ring_communities_are_arcs_of_the_ring(n_nodes):
    # each community is a run of neighbouring nodes, and the runs differ in
    # size by at most one node
    for count in range(1, n_nodes + 1):
        communities = ring_communities(
            n_nodes, MaskPatternConfig("SC-TC", 0.5, 4, n_communities=count, seed=3))
        assert len(communities) == count
        assert [i for arc in communities for i in arc] == list(range(n_nodes))
        for arc in communities:
            assert list(arc) == list(range(arc[0], arc[0] + len(arc)))
        assert max(map(len, communities)) - min(map(len, communities)) <= 1


@pytest.mark.parametrize("communities", [
    ((0, 1), (1, 2, 3)),   # node 1 in two groups
    ((0, 1), (3,)),        # node 2 in none
    ((1, 2), (3,)),        # node 0 in none
    (),                    # no node at all
])
def test_sc_tc_rejects_groups_that_are_not_a_partition(communities):
    with pytest.raises(InvalidInputError):
        mask_sc_tc(communities, 8, MaskPatternConfig("SC-TC", 0.5, 4))


@pytest.mark.parametrize("n_nodes", [0, -1])
def test_generators_reject_a_node_count_below_one(n_nodes):
    cfg = MaskPatternConfig("SC-TC", 0.5, 4, n_communities=1)
    with pytest.raises(InvalidInputError, match=f"node count must be >= 1, got {n_nodes}"):
        mask_sr_tc(n_nodes, 8, cfg)
    with pytest.raises(InvalidInputError, match=f"node count must be >= 1, got {n_nodes}"):
        ring_communities(n_nodes, cfg)


def test_sc_tc_determinism():
    communities = ((0, 1, 2, 3), (4, 5, 6, 7))
    cfg = MaskPatternConfig("SC-TC", 0.4, 5, seed=21)
    a = mask_sc_tc(communities, 23, cfg)
    b = mask_sc_tc(communities, 23, cfg)
    np.testing.assert_array_equal(a.entries, b.entries)
