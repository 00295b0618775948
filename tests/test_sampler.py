import numpy as np
import pytest

from fence import (
    DivergenceError,
    GuidanceConfig,
    InvalidInputError,
    MaskMatrix,
    OracleBackend,
    TrafficGrid,
    emit_trace,
    impute,
    make_gaussian_world,
    quadratic_schedule,
)
from fence.backends import DenoiserBackend
from fence.errors import StateError


def oracle_setup(n=4, t=3, hidden_node=0, seed=1):
    world = make_gaussian_world(n, t, 0.5, 0.6)
    rng = np.random.Generator(np.random.Philox(key=seed))
    truth = world.sample_clean(rng)
    mask = np.ones((n, t), dtype=np.int64)
    mask[hidden_node, :] = 0
    idx = np.flatnonzero(mask.reshape(-1) == 1)
    observed_world = world.observe(idx, truth.reshape(-1)[idx])
    sched = quadratic_schedule(50)
    backend = OracleBackend(observed_world, sched)
    return backend, TrafficGrid(truth), MaskMatrix(mask), sched


def test_result_shape_and_mean_identity():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global")
    result = impute(backend, backend, truth, mask, sched, gcfg, n_samples=4, seed=3)
    assert len(result.samples) == 4
    stack = np.stack([s.values for s in result.samples])
    np.testing.assert_allclose(result.mean_imputation.values, stack.mean(axis=0),
                               atol=1e-12)
    assert result.anchoring == "free"


def test_trace_row_count_and_lambda_bounds():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global", lambda_max=8.0)
    result = impute(backend, backend, truth, mask, sched, gcfg, n_samples=1, seed=3)
    assert len(result.traces) == 50 * 4  # one row per (step, node)
    lams = np.array([r.lam for r in result.traces])
    assert (lams >= 1.0).all() and (lams <= 8.0).all()
    ks = [r.k for r in result.traces]
    assert ks[0] == 50 and ks[-1] == 1


def test_determinism_bit_identical():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global")
    a = impute(backend, backend, truth, mask, sched, gcfg, n_samples=3, seed=9)
    b = impute(backend, backend, truth, mask, sched, gcfg, n_samples=3, seed=9)
    for s1, s2 in zip(a.samples, b.samples):
        np.testing.assert_array_equal(s1.values, s2.values)
    assert a.traces == b.traces
    c = impute(backend, backend, truth, mask, sched, gcfg, n_samples=3, seed=10)
    assert not np.array_equal(a.samples[0].values, c.samples[0].values)


def test_trajectory_is_independent_of_ensemble_size():
    # 2 clusters of 4 nodes: k-means runs at every step of every trajectory
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="cluster")
    small = impute(backend, backend, truth, mask, sched, gcfg, n_clusters=2,
                   n_samples=2, seed=5)
    large = impute(backend, backend, truth, mask, sched, gcfg, n_clusters=2,
                   n_samples=5, seed=5)
    for s1, s2 in zip(small.samples, large.samples):
        np.testing.assert_array_equal(s1.values, s2.values)
    assert small.traces == large.traces[:len(small.traces)]
    head = large.head(2)
    assert head.traces == small.traces
    np.testing.assert_array_equal(head.mean_imputation.values,
                                  small.mean_imputation.values)
    with pytest.raises(InvalidInputError):
        large.head(6)


def test_cfg_mode_traces_constant_lambda():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="cfg", fixed_lambda=2.5)
    result = impute(backend, backend, truth, mask, sched, gcfg, n_samples=1, seed=2)
    assert all(r.lam == 2.5 for r in result.traces)
    assert all(r.log_posterior == 0.0 for r in result.traces)


def test_none_mode_ignores_conditional_backend():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="none")
    result = impute(None, backend, truth, mask, sched, gcfg, n_samples=2, seed=2)
    assert all(r.lam == 0.0 for r in result.traces)
    np.testing.assert_array_equal(
        result.samples[0].values,
        impute(backend, backend, truth, mask, sched, gcfg, n_samples=2,
               seed=2).samples[0].values)


def test_clamp_anchoring_pins_observed_cells():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global")
    result = impute(backend, backend, truth, mask, sched, gcfg, n_samples=2,
                    seed=4, anchoring="clamp")
    for sample in result.samples:
        np.testing.assert_array_equal(sample.values[mask.entries == 1],
                                      truth.values[mask.entries == 1])
    assert result.anchoring == "clamp"
    free = impute(backend, backend, truth, mask, sched, gcfg, n_samples=2, seed=4)
    assert not np.array_equal(free.samples[0].values[mask.entries == 1],
                              truth.values[mask.entries == 1])


def test_input_validation():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global")
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth,
               MaskMatrix(np.ones((2, 2), dtype=np.int64)), sched, gcfg)
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth, mask, sched, gcfg, anchoring="pin")
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth, mask, sched, gcfg, n_samples=0)
    with pytest.raises(InvalidInputError):
        impute(None, backend, truth, mask, sched, gcfg)
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth, mask, sched, gcfg, n_clusters=9)


class _BrokenBackend(DenoiserBackend):
    def __init__(self, fail_at):
        self.fail_at = fail_at

    def predict(self, x_k, k, ctx):
        if k == self.fail_at:
            raise StateError("weights corrupted")
        return np.zeros_like(np.asarray(x_k)), None


class _ExplodingBackend(DenoiserBackend):
    def predict(self, x_k, k, ctx):
        out = np.zeros_like(np.asarray(x_k))
        if k < 40:
            out += 1e308  # reverse mean overflows to inf within a step
        return out, None


def test_backend_failure_reports_step():
    _, truth, mask, sched = oracle_setup()
    broken = _BrokenBackend(fail_at=37)
    gcfg = GuidanceConfig(mode="none")
    with pytest.raises(StateError, match="step 37"):
        impute(None, broken, truth, mask, sched, gcfg, n_samples=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_trajectory_reports_step():
    _, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="none")
    with pytest.raises(DivergenceError) as err:
        impute(None, _ExplodingBackend(), truth, mask, sched, gcfg, n_samples=1)
    assert err.value.step is not None


def test_emit_trace_layout_and_determinism(tmp_path):
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="cfg", fixed_lambda=1.5)
    result = impute(backend, backend, truth, mask, sched, gcfg, n_samples=2, seed=6)
    out = tmp_path / "trace.csv"
    emit_trace(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "k,node,lambda,log_posterior,guidance_norm,cluster_id"
    assert len(lines) == 1 + 2 * 50 * 4
    assert all(line.split(",")[2] == "1.5" for line in lines[1:])
    assert (tmp_path / "trace_sample_0.csv").exists()
    assert (tmp_path / "trace_sample_1.csv").exists()
    emit_trace(result, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == out.read_text()
    with pytest.raises(InvalidInputError):
        emit_trace(
            type(result)(result.samples, result.mean_imputation, (), "free"), out)
