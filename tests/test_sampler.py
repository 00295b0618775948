import hashlib
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from fence import (
    ConditioningContext,
    ContaminatedBackend,
    DivergenceError,
    GuidanceConfig,
    ImputationResult,
    InvalidInputError,
    MaskMatrix,
    NetConfig,
    NeuralDenoiser,
    OracleBackend,
    TrafficGrid,
    emit_trace,
    guidance_scale,
    impute,
    make_gaussian_world,
    quadratic_schedule,
    reverse_mean,
)
from fence.backends import DenoiserBackend
from fence.errors import DataError
from fence.sampler import FenceLaw, ScaleLaw, scale_law

RESULT_ARRAYS = ("samples", "lam", "log_posterior", "guidance_norm", "cluster_id")


def oracle_setup(n=4, t=3, hidden_node=0, seed=1):
    world = make_gaussian_world(n, t, 0.5, 0.6)
    rng = np.random.Generator(np.random.Philox(key=seed))
    truth = world.sample_clean(rng)
    mask = np.ones((n, t), dtype=np.int64)
    mask[hidden_node, :] = 0
    sched = quadratic_schedule(50)
    backend = OracleBackend(world, sched)
    return backend, TrafficGrid(truth), MaskMatrix(mask), sched


def test_result_shape_and_mean_identity():
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="fence", scope="global"), sched)
    result = impute(backend, backend, truth, mask, sched, law, n_samples=4, seed=3)
    assert result.samples.shape == (4, 4, 3)
    np.testing.assert_allclose(result.mean_imputation, result.samples.mean(axis=0),
                               atol=1e-12)
    for name in RESULT_ARRAYS:
        assert not getattr(result, name).flags.writeable
    # a result built from the caller's arrays leaves them writable, and
    # compares by identity rather than elementwise
    arrays = [np.array(getattr(result, name)) for name in RESULT_ARRAYS]
    built = ImputationResult(*arrays)
    assert all(a.flags.writeable for a in arrays)
    assert not built.samples.flags.writeable
    assert built != result and built == built


def test_trace_row_count_and_lambda_bounds():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global", lambda_max=8.0)
    result = impute(backend, backend, truth, mask, sched, scale_law(gcfg, sched),
                    n_samples=1, seed=3)
    assert result.lam.shape == (1, 50, 4)  # one entry per (trajectory, step, node)
    assert result.lam.dtype == np.float64 and result.cluster_id.dtype == np.int64
    assert (result.lam >= 1.0).all() and (result.lam <= 8.0).all()
    # global scope: every node shares cluster 0 and so one scale per step
    assert (result.cluster_id == 0).all()
    assert (result.lam == result.lam[:, :, :1]).all()
    # index j is reverse step k = 50 - j: the first scale reads a fresh tracker
    # (log p = 0), each later one the tracker of the step before, and k = 1
    # makes no update
    assert (result.lam[:, 0] == guidance_scale(0.0, gcfg.pi, gcfg.lambda_max)).all()
    np.testing.assert_allclose(
        result.lam[0, 1:, 0],
        guidance_scale(result.log_posterior[0, :-1].mean(axis=1), gcfg.pi,
                       gcfg.lambda_max), rtol=1e-12)
    np.testing.assert_array_equal(result.log_posterior[:, -1], result.log_posterior[:, -2])
    assert (result.log_posterior[:, -2] != result.log_posterior[:, -3]).all()


def test_determinism_bit_identical():
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="fence", scope="global"), sched)
    a = impute(backend, backend, truth, mask, sched, law, n_samples=3, seed=9)
    b = impute(backend, backend, truth, mask, sched, law, n_samples=3, seed=9)
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = impute(backend, backend, truth, mask, sched, law, n_samples=3, seed=10)
    assert not np.array_equal(a.samples[0], c.samples[0])


def test_trajectory_is_independent_of_ensemble_size():
    # 2 clusters of 4 nodes: k-means runs at every step of every trajectory
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="fence", scope="cluster"), sched, 2)
    small = impute(backend, backend, truth, mask, sched, law, n_samples=2, seed=5)
    large = impute(backend, backend, truth, mask, sched, law, n_samples=5, seed=5)
    head = large.head(2)
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(getattr(small, name), getattr(large, name)[:2])
        np.testing.assert_array_equal(getattr(head, name), getattr(small, name))
    np.testing.assert_array_equal(head.mean_imputation, small.mean_imputation)
    with pytest.raises(InvalidInputError):
        large.head(6)


@pytest.mark.parametrize("anchoring", ["free", "clamp"])
def test_a_lone_trajectory_is_row_0_of_an_ensemble(anchoring):
    # each draw (clamp's anchor noise too) holds one row per trajectory, and the
    # oracle scores a lone grid by the same BLAS product as a batch's rows
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="fence", scope="cluster"), sched, 2)
    one = impute(backend, backend, truth, mask, sched, law, n_samples=1, seed=5,
                 anchoring=anchoring)
    seven = impute(backend, backend, truth, mask, sched, law, n_samples=7, seed=5,
                   anchoring=anchoring)
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(getattr(one, name), getattr(seven, name)[:1])


@pytest.mark.parametrize("n_samples", [1, 4])
@pytest.mark.parametrize("anchoring", ["free", "clamp"])
def test_one_noise_draw_per_step_and_purpose(monkeypatch, anchoring, n_samples):
    # the start x_K, then at each step k >= 2 one reverse draw and, under clamp,
    # one anchor draw: each from a generator of its own, whatever S is
    import fence.sampler as sampler

    keys = []
    real = np.random.SFC64

    def recording(seed_seq):
        keys.append(tuple(seed_seq.entropy))
        return real(seed_seq)

    monkeypatch.setattr(np.random, "SFC64", recording)
    backend, truth, mask, sched = oracle_setup()
    impute(backend, backend, truth, mask, sched,
           scale_law(GuidanceConfig(mode="fence", scope="global"), sched),
           n_samples=n_samples, seed=5, anchoring=anchoring)
    steps = sched.n_steps
    per_step = [sampler.REVERSE] + ([sampler.ANCHOR] if anchoring == "clamp" else [])
    assert len(keys) == 1 + len(per_step) * (steps - 1)
    assert keys == [(5, steps, sampler.START)] + [
        (5, k, purpose) for k in range(steps, 1, -1) for purpose in per_step]


def test_no_two_steps_or_purposes_share_a_stream():
    from fence.sampler import ANCHOR, REVERSE, START, _stream

    keys = list(product((9, 10), range(1, 51), (START, REVERSE, ANCHOR)))
    heads = {tuple(_stream(*key).bit_generator.random_raw(4)) for key in keys}
    assert len(heads) == len(keys)


def test_neural_trajectory_is_independent_of_ensemble_size():
    # the network's rows share one forward per step; 2 clusters of 4 nodes
    # make k-means read each trajectory's own attention row
    _, truth, mask, _ = oracle_setup()
    sched = quadratic_schedule(10)
    model = NeuralDenoiser(NetConfig(n_nodes=4, d_model=8, n_layers=1, n_heads=2), seed=3)
    law = scale_law(GuidanceConfig(mode="fence", scope="cluster"), sched, 2)
    small = impute(model, model, truth, mask, sched, law, n_samples=2, seed=5)
    large = impute(model, model, truth, mask, sched, law, n_samples=5, seed=5)
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(getattr(small, name), getattr(large, name)[:2])
    assert len(np.unique(large.cluster_id)) == 2


class _TwinAttentionBackend(DenoiserBackend):
    """The network's predictions, with row 1's attention replaced by row 0's."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, x_k, k, ctx):
        eps, attn = self.inner.predict(x_k, k, ctx)
        attn = attn.copy()
        attn[1] = attn[0]
        return eps, attn


def test_neural_rows_with_one_attention_share_their_labels(monkeypatch):
    # per-row affinities are clustered one by one, each with the step's stream
    import fence.sampler as sampler

    calls = []
    real = sampler.kmeans

    def counted(features, k, seed):
        calls.append(seed)
        return real(features, k, seed)

    monkeypatch.setattr(sampler, "kmeans", counted)
    _, truth, mask, _ = oracle_setup()
    sched = quadratic_schedule(10)
    model = NeuralDenoiser(NetConfig(n_nodes=4, d_model=8, n_layers=1, n_heads=2), seed=3)
    twins = _TwinAttentionBackend(model)
    result = impute(twins, model, truth, mask, sched,
                    scale_law(GuidanceConfig(mode="fence", scope="cluster"), sched, 2),
                    n_samples=3, seed=5)
    assert calls == [(5 << 32) + k for k in range(10, 0, -1) for _ in range(3)]
    np.testing.assert_array_equal(result.cluster_id[0], result.cluster_id[1])
    assert not np.array_equal(result.cluster_id[0], result.cluster_id[2])


class _FixedAffinityBackend(DenoiserBackend):
    """The oracle's predictions with one set affinity: a fresh copy of it at
    every step, or the same array again."""

    def __init__(self, inner, affinity, fresh):
        self.inner, self.affinity, self.fresh = inner, affinity, fresh

    def predict(self, x_k, k, ctx):
        eps, _ = self.inner.predict(x_k, k, ctx)
        return eps, self.affinity.copy() if self.fresh else self.affinity


@pytest.mark.parametrize("fresh, writeable, steps", [
    (True, True, range(50, 0, -1)),   # a new array each step: clustered each step
    (False, True, range(50, 0, -1)),  # a writable array may have changed in place
    (False, False, [50]),             # the same read-only array: clustered once
], ids=["fresh", "same-writable", "same-read-only"])
def test_kmeans_runs_again_only_for_a_new_affinity(monkeypatch, fresh, writeable, steps):
    import fence.sampler as sampler

    calls = []
    real = sampler.kmeans

    def counted(features, k, seed):
        calls.append(seed)
        return real(features, k, seed)

    monkeypatch.setattr(sampler, "kmeans", counted)
    backend, truth, mask, sched = oracle_setup()
    affinity = np.random.default_rng(8).random((4, 4))
    affinity.setflags(write=writeable)
    fixed = _FixedAffinityBackend(backend, affinity, fresh)
    result = impute(fixed, backend, truth, mask, sched,
                    scale_law(GuidanceConfig(mode="fence", scope="cluster"), sched, 2),
                    n_samples=3, seed=7)
    assert calls == [(7 << 32) + k for k in steps]
    if len(calls) == 1:
        assert (result.cluster_id == result.cluster_id[:, :1]).all()


class _ReshapedAffinityBackend(DenoiserBackend):
    def __init__(self, inner, reshape):
        self.inner, self.reshape = inner, reshape

    def predict(self, x_k, k, ctx):
        eps, attn = self.inner.predict(x_k, k, ctx)
        return eps, attn if attn is None else self.reshape(attn)


@pytest.mark.parametrize("reshape, shape", [
    (lambda a: np.stack([a, a]), (2, 4, 4)),  # neither one matrix nor one per row
    (lambda a: a[:, :2], (4, 2)),             # not N x N
    (lambda a: a[None], (1, 4, 4)),           # one stacked matrix for three rows
], ids=["two-stacked", "not-square", "one-stacked"])
def test_affinity_of_the_wrong_shape_names_step_and_shape(reshape, shape):
    backend, truth, mask, sched = oracle_setup()
    bad = _ReshapedAffinityBackend(backend, reshape)
    with pytest.raises(InvalidInputError, match=re.escape(f"reverse step 50 has shape {shape}")):
        impute(bad, backend, truth, mask, sched,
               scale_law(GuidanceConfig(mode="fence"), sched, 2), n_samples=3, seed=1)


class _CountingBackend(DenoiserBackend):
    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def predict(self, x_k, k, ctx):
        self.batches.append(len(x_k))
        return self.inner.predict(x_k, k, ctx)


@pytest.mark.parametrize("n_samples", [1, 3, 7])
@pytest.mark.parametrize("mode", ["fence", "none"])
def test_one_batched_predict_per_context_and_step(n_samples, mode):
    backend, truth, mask, sched = oracle_setup()
    counting = _CountingBackend(backend)
    impute(counting, counting, truth, mask, sched,
           scale_law(GuidanceConfig(mode=mode), sched, 2), n_samples=n_samples, seed=1)
    calls = 2 * sched.n_steps if mode == "fence" else sched.n_steps
    assert counting.batches == [n_samples] * calls


def test_cfg_mode_traces_constant_lambda():
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="cfg", fixed_lambda=2.5), sched)
    result = impute(backend, backend, truth, mask, sched, law, n_samples=1, seed=2)
    assert (result.lam == 2.5).all()
    assert (result.log_posterior == 0.0).all()
    assert (result.cluster_id == -1).all()


def test_none_mode_ignores_conditional_backend():
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="none"), sched)
    result = impute(None, backend, truth, mask, sched, law, n_samples=2, seed=2)
    assert (result.lam == 0.0).all()
    np.testing.assert_array_equal(
        result.samples,
        impute(backend, backend, truth, mask, sched, law, n_samples=2,
               seed=2).samples)


def test_clamp_anchoring_pins_observed_cells():
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="fence", scope="global"), sched)
    result = impute(backend, backend, truth, mask, sched, law, n_samples=2,
                    seed=4, anchoring="clamp")
    for sample in result.samples:
        np.testing.assert_array_equal(sample[mask.entries == 1],
                                      truth.values[mask.entries == 1])
    free = impute(backend, backend, truth, mask, sched, law, n_samples=2, seed=4)
    assert not np.array_equal(free.samples[0][mask.entries == 1],
                              truth.values[mask.entries == 1])


def test_input_validation():
    backend, truth, mask, sched = oracle_setup()
    gcfg = GuidanceConfig(mode="fence", scope="global")
    law = scale_law(gcfg, sched)
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth,
               MaskMatrix(np.ones((2, 2), dtype=np.int64)), sched, law)
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth, mask, sched, law, anchoring="pin")
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth, mask, sched, law, n_samples=0)
    with pytest.raises(InvalidInputError):
        impute(None, backend, truth, mask, sched, law)
    with pytest.raises(InvalidInputError):
        impute(backend, backend, truth, mask, sched, scale_law(gcfg, sched, 9))


def test_seeds_lie_in_the_philox_key_range():
    # (seed << 32) + k keys a step's k-means stream and must stay below 2**128
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="fence"), sched, 2)
    for seed in (-1, 2**64, 2**100):
        with pytest.raises(InvalidInputError, match="seed"):
            impute(backend, backend, truth, mask, sched, law, n_samples=1, seed=seed)
    result = impute(backend, backend, truth, mask, sched, law, n_samples=2, seed=2**64 - 1)
    assert np.isfinite(result.samples).all()


class _BrokenBackend(DenoiserBackend):
    def __init__(self, fail_at):
        self.fail_at = fail_at

    def predict(self, x_k, k, ctx):
        if k == self.fail_at:
            raise DataError("weights corrupted")
        return np.zeros_like(np.asarray(x_k)), None


class _ExplodingBackend(DenoiserBackend):
    def predict(self, x_k, k, ctx):
        out = np.zeros_like(np.asarray(x_k))
        if k < 40:
            out += 1e308  # reverse mean overflows to inf within a step
        return out, None


class _RowNaNBackend(DenoiserBackend):
    def predict(self, x_k, k, ctx):
        out = np.zeros_like(np.asarray(x_k))
        if k == 30:
            out[2] = np.nan
        return out, None


def test_divergence_names_its_trajectory():
    _, truth, mask, sched = oracle_setup()
    with pytest.raises(DivergenceError, match="trajectory 2 ") as err:
        impute(None, _RowNaNBackend(), truth, mask, sched,
               scale_law(GuidanceConfig(mode="none"), sched), n_samples=4)
    assert err.value.step == 30


def test_backend_failure_reports_step():
    _, truth, mask, sched = oracle_setup()
    broken = _BrokenBackend(fail_at=37)
    law = scale_law(GuidanceConfig(mode="none"), sched)
    with pytest.raises(DataError, match="step 37"):
        impute(None, broken, truth, mask, sched, law, n_samples=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_trajectory_reports_step():
    _, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="none"), sched)
    with pytest.raises(DivergenceError) as err:
        impute(None, _ExplodingBackend(), truth, mask, sched, law, n_samples=1)
    assert err.value.step is not None


def test_a_network_whose_head_sees_nan_diverges():
    # relu keeps a NaN pre-activation NaN, so it reaches eps and the sampler's
    # finiteness check instead of leaving the head's bias as the prediction
    _, truth, mask, _ = oracle_setup()
    sched = quadratic_schedule(10)
    model = NeuralDenoiser(NetConfig(n_nodes=4, d_model=8, n_layers=1, n_heads=2), seed=3)
    model.params["head/1/b"].value[:] = np.nan
    law = scale_law(GuidanceConfig(mode="none"), sched)
    with pytest.raises(DivergenceError) as err:
        impute(None, model, truth, mask, sched, law, n_samples=2, seed=5)
    assert err.value.step == 10


def _row_by_row_trace(result, path):
    """The trace CSV as emit_trace wrote it one row at a time."""
    n_steps = result.lam.shape[1]
    columns = (result.lam, result.log_posterior, result.guidance_norm, result.cluster_id)
    rows = zip(product(*map(range, result.lam.shape)),
               *(c.reshape(-1).tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("traj,k,node,lambda,log_posterior,guidance_norm,cluster_id\n")
        for (traj, j, node), lam, logp, gnorm, cluster in rows:
            fh.write(f"{traj},{n_steps - j},{node},{lam!r},{logp!r},{gnorm!r},{cluster}\n")


def _random_result(rng, s, k, n, t=4):
    """An ImputationResult of S = s, K = k, N = n, T = t with random fields;
    the log-posteriors span sixteen orders of magnitude."""
    trace = (s, k, n)
    return ImputationResult(rng.standard_normal((s, n, t)), 1.0 + 9.0 * rng.random(trace),
                            rng.standard_normal(trace) * 10.0 ** rng.integers(-8, 8, trace),
                            rng.random(trace), rng.integers(-1, n, trace))


@pytest.mark.parametrize("shape", [(1, 2, 1), (3, 5, 4), (12, 7, 3)])
def test_emit_trace_writes_the_row_by_row_bytes(tmp_path, shape):
    result = _random_result(np.random.default_rng(sum(shape)), *shape)
    emit_trace(result, tmp_path / "trace.csv")
    _row_by_row_trace(result, tmp_path / "rows.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_emit_trace_holds_one_trajectory_at_a_time(tmp_path):
    # neural-staged's shape, S = 50, K = 50, N = 6: 15,000 rows and about 1 MB;
    # the row-by-row writer's peak inside the call was 1.63 MiB
    result = _random_result(np.random.default_rng(0), 50, 50, 6, 12)
    tracemalloc.start()
    try:
        emit_trace(result, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.63 * 2**20


def test_emit_trace_layout_and_determinism(tmp_path):
    backend, truth, mask, sched = oracle_setup()
    law = scale_law(GuidanceConfig(mode="cfg", fixed_lambda=1.5), sched)
    result = impute(backend, backend, truth, mask, sched, law, n_samples=2, seed=6)
    out = tmp_path / "trace.csv"
    emit_trace(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "traj,k,node,lambda,log_posterior,guidance_norm,cluster_id"
    assert len(lines) == 1 + 2 * 50 * 4
    assert all(line.split(",")[3] == "1.5" for line in lines[1:])
    assert (tmp_path / "trace_sample_0.csv").exists()
    assert (tmp_path / "trace_sample_1.csv").exists()
    emit_trace(result, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == out.read_text()

    # the file parses back to the trace arrays, rows in (traj, k descending, node) order
    law = scale_law(GuidanceConfig(mode="fence", scope="cluster"), sched, 2)
    result = impute(backend, backend, truth, mask, sched, law, n_samples=2, seed=6)
    emit_trace(result, out)
    columns = list(zip(*(line.split(",") for line in out.read_text().splitlines()[1:])))
    shape = result.lam.shape

    def column(i, kind):
        return np.array([kind(v) for v in columns[i]]).reshape(shape)

    traj, step, node = np.indices(shape)
    np.testing.assert_array_equal(column(0, int), traj)
    np.testing.assert_array_equal(column(1, int), 50 - step)
    np.testing.assert_array_equal(column(2, int), node)
    np.testing.assert_array_equal(column(3, float), result.lam)
    np.testing.assert_array_equal(column(4, float), result.log_posterior)
    np.testing.assert_array_equal(column(5, float), result.guidance_norm)
    np.testing.assert_array_equal(column(6, int), result.cluster_id)
    assert len(np.unique(result.cluster_id)) == 2


PINNED_LAWS = {
    "fence-cluster": GuidanceConfig(mode="fence", scope="cluster"),
    "fence-global": GuidanceConfig(mode="fence", scope="global"),
    "fence-per_node": GuidanceConfig(mode="fence", scope="per_node"),
    "fence-pi1": GuidanceConfig(mode="fence", pi=1.0),
    "cfg:2": GuidanceConfig(mode="cfg", fixed_lambda=2.0),
    "none": GuidanceConfig(mode="none"),
}

# sha256 (first 16 hex) over the five result fields of each (backend,
# anchoring, law); they held with one and with two BLAS threads
LAW_DIGESTS = {
    ("oracle", "free", "fence-cluster"): "890d5165e44b116a",
    ("oracle", "free", "fence-global"): "f9687c1b1349777c",
    ("oracle", "free", "fence-per_node"): "2fca8a7785da789c",
    ("oracle", "free", "fence-pi1"): "683621dacda9e6e1",
    ("oracle", "free", "cfg:2"): "b1bd958e8c3a4549",
    ("oracle", "free", "none"): "80c6758f2ab571f0",
    ("oracle", "clamp", "fence-cluster"): "cfaa9dd4a6882fcd",
    ("oracle", "clamp", "fence-global"): "0cddc8a9e10666ae",
    ("oracle", "clamp", "fence-per_node"): "7db2a81e625aa0f5",
    ("oracle", "clamp", "fence-pi1"): "3872a753486c5d40",
    ("oracle", "clamp", "cfg:2"): "747bb0790881383a",
    ("oracle", "clamp", "none"): "e0c4413197f16117",
    ("neural", "free", "fence-cluster"): "6eeac8d1c571db30",
    ("neural", "free", "fence-global"): "f9d6d999ce4f490e",
    ("neural", "free", "fence-per_node"): "f3cc74eaab9b61c8",
    ("neural", "free", "fence-pi1"): "9ab2c8e5bfe9f8bb",
    ("neural", "free", "cfg:2"): "7b3920175d87584f",
    ("neural", "free", "none"): "9c266c9ba228df77",
    ("neural", "clamp", "fence-cluster"): "c33d6847d9241a30",
    ("neural", "clamp", "fence-global"): "0e3aa542f6fd768e",
    ("neural", "clamp", "fence-per_node"): "af02c4cacc57e8cd",
    ("neural", "clamp", "fence-pi1"): "cb98d6e60a3506cc",
    ("neural", "clamp", "cfg:2"): "fd755e60d27c202c",
    ("neural", "clamp", "none"): "4f057f87a0e10525",
}


def _result_digest(result) -> str:
    h = hashlib.sha256()
    for name in RESULT_ARRAYS:
        a = getattr(result, name)
        h.update(f"{name}{a.shape}{a.dtype}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _pinned_world():
    """(truth, mask, sched, backends) of the pins: a 6x8 oracle world and a
    random-weights network, K = 30."""
    world = make_gaussian_world(6, 8, 0.5, 0.6)
    truth = TrafficGrid(world.sample_clean(np.random.Generator(np.random.Philox(key=4))))
    mask = np.random.Generator(np.random.Philox(key=5)).integers(0, 2, (6, 8))
    mask[0] = 0
    sched = quadratic_schedule(30)
    backends = {
        "oracle": OracleBackend(world, sched),
        "neural": NeuralDenoiser(NetConfig(n_nodes=6, d_model=8, n_layers=1, n_heads=2),
                                 seed=3),
    }
    return truth, MaskMatrix(mask), sched, backends


def _law_digests() -> dict:
    truth, mask, sched, backends = _pinned_world()
    got = {}
    for (name, backend), anchoring, (law, gcfg) in product(
            backends.items(), ("free", "clamp"), PINNED_LAWS.items()):
        result = impute(backend, backend, truth, mask, sched, scale_law(gcfg, sched, 2),
                        n_samples=3, seed=11, anchoring=anchoring)
        got[name, anchoring, law] = _result_digest(result)
    return got


def test_every_scale_law_is_pinned():
    # any change to a law's arithmetic, its RNG streams or its k-means rule
    # changes these digests: 2 clusters, S = 3
    assert _law_digests() == LAW_DIGESTS


@pytest.mark.parametrize("name", ["oracle", "neural"])
def test_one_law_runs_any_number_of_imputations(name):
    # impute starts the law it is given: a run resumes nothing of the run
    # before it, and k-means draws from impute's own seed
    truth, mask, sched, backends = _pinned_world()
    backend, law = backends[name], scale_law(PINNED_LAWS["fence-cluster"], sched, 2)
    digests = [_result_digest(impute(backend, backend, truth, mask, sched, law,
                                     n_samples=3, seed=seed))
               for seed in (11, 11, 12, 11)]
    assert digests[0] == digests[1] == digests[3] == LAW_DIGESTS[name, "free", "fence-cluster"]
    assert digests[2] != digests[0]


class _RecordingFenceLaw(FenceLaw):
    """fence's law, recording the x_k, eps_u, eps_c, scales and log p that each
    step's ``scales`` sees."""

    def start(self, n_samples, n_nodes, seed):
        super().start(n_samples, n_nodes, seed)
        self.seen = {}

    def scales(self, k, x, eps_u, eps_c, attn):
        lam = super().scales(k, x, eps_u, eps_c, attn)
        self.seen[k] = (x, eps_u, eps_c, lam, self.logp)
        return lam


@pytest.mark.parametrize("anchoring", ["free", "clamp"])
@pytest.mark.parametrize("name", ["oracle", "neural"])
def test_the_tracker_increment_is_the_reverse_kernels_log_ratio(name, anchoring):
    # Finding 11 on real chains: the update from the step's gap equals the grid
    # form -tau/(2 sigma_k^2) (|x_{k-1} - mu_c|^2 - |x_{k-1} - mu_u|^2) - delta
    # at the x_{k-1} the chain keeps, clamped or not
    truth, mask, sched, backends = _pinned_world()
    law = _RecordingFenceLaw(GuidanceConfig(mode="fence", scope="per_node"), sched, None)
    impute(backends[name], backends[name], truth, mask, sched, law, n_samples=3, seed=11,
           anchoring=anchoring)
    for k in range(2, sched.n_steps + 1):
        x, eps_u, eps_c, _, logp = law.seen[k]
        x_prev, logp_next = law.seen[k - 1][0], law.seen[k - 1][4]
        far_c, far_u = (np.sum((x_prev - reverse_mean(x, eps, k, sched)) ** 2, axis=-1)
                        for eps in (eps_c, eps_u))
        scale = law.tau / (2.0 * sched.sigma2_at(k))
        expect = -scale * (far_c - far_u) - law.delta
        bound = 1e-12 * (scale * (far_c + far_u) + abs(law.delta))
        assert (np.abs(logp_next - logp - expect) <= bound).all(), k


class _OpenLoopLaw(ScaleLaw):
    """An open-loop scale path: step k's (S, N) scales are path[k], whatever
    the samples do."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def scales(self, k, x, eps_u, eps_c, attn):
        return np.broadcast_to(self.path[k], self.logp.shape)


class _ProjectionLaw(ScaleLaw):
    """Each node's scale is the projection of the oracle's conditional
    prediction on the guidance direction, lam*_g = <eps_o - eps_u, eps_c -
    eps_u> / |eps_c - eps_u|^2 over node g's row, from an oracle the law
    calls itself; lam = 1 where the direction is 0."""

    def __init__(self, oracle, ctx):
        super().__init__()
        self.oracle, self.ctx, self.gaps = oracle, ctx, []

    def scales(self, k, x, eps_u, eps_c, attn):
        eps_o, _ = self.oracle.predict(x, k, self.ctx)
        direction = eps_c - eps_u
        gap = np.sum(direction * direction, axis=-1)
        self.gaps.append(gap)
        dot = np.sum((eps_o - eps_u) * direction, axis=-1)
        return np.divide(dot, gap, out=np.ones_like(gap), where=gap > 0)


def test_a_test_side_law_runs_through_the_unmodified_loop():
    backend, truth, mask, sched = oracle_setup()
    steps = sched.n_steps

    # a constant law is cfg at that scale, bit for bit
    constant = _OpenLoopLaw(np.full(steps + 1, 2.0))
    cfg = impute(backend, backend, truth, mask, sched,
                 scale_law(GuidanceConfig(mode="cfg", fixed_lambda=2.0), sched),
                 n_samples=3, seed=4)
    ran = impute(backend, backend, truth, mask, sched, constant, n_samples=3, seed=4)
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(getattr(ran, name), getattr(cfg, name))

    # fence's recorded scales, replayed open loop, give fence's samples: the
    # loop sees a law only through its scales
    fence = impute(backend, backend, truth, mask, sched,
                   scale_law(GuidanceConfig(mode="fence"), sched, 2), n_samples=3, seed=4)
    path = {steps - j: fence.lam[:, j] for j in range(steps)}
    replay = impute(backend, backend, truth, mask, sched, _OpenLoopLaw(path),
                    n_samples=3, seed=4)
    for name in ("samples", "lam", "guidance_norm"):
        np.testing.assert_array_equal(getattr(replay, name), getattr(fence, name))
    assert (replay.log_posterior == 0).all() and (replay.cluster_id == -1).all()


@pytest.mark.parametrize("pi_true", [1.0, 0.4, 0.75])
def test_the_projection_law_recovers_the_contamination(pi_true):
    # on the oracle the guidance direction is the oracle's own, so lam* = 1;
    # the contaminated backend shrinks it by pi_true, so lam* = 1 / pi_true
    backend, truth, mask, sched = oracle_setup()
    cond = backend if pi_true == 1.0 else ContaminatedBackend(backend, pi_true)
    law = _ProjectionLaw(OracleBackend(backend.world, sched),
                         ConditioningContext(truth.values, mask.entries))
    result = impute(cond, backend, truth, mask, sched, law, n_samples=3, seed=6)
    gaps = np.stack(law.gaps, axis=1)
    assert gaps.shape == result.lam.shape and (gaps > 0).mean() > 0.9
    np.testing.assert_allclose(result.lam[gaps > 0], 1.0 / pi_true, rtol=0, atol=1e-9)


def test_cluster_scope_needs_an_exported_affinity():
    backend, truth, mask, sched = oracle_setup()
    with pytest.raises(InvalidInputError, match="exports no attention"):
        impute(_BrokenBackend(fail_at=0), backend, truth, mask, sched,
               scale_law(GuidanceConfig(mode="fence"), sched, 2), n_samples=1)
