"""The benchmark's span tracer finds every callable it wraps.

``perfbench/spans.install`` wraps fence functions by name and reports the
ones it cannot find; a hook that no longer fits the program's arguments
lands in ``Recorder.lost``. Either way a per-layer metric silently reads 0,
so a rename or a signature change must fail here instead. The tracer
rebinds names in every fence module, so it runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TRACED_IMPUTE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import fence.cli
import spans
from fence import (GuidanceConfig, MaskMatrix, OracleBackend, TrafficGrid,
                   make_gaussian_world, mode_from_string, quadratic_schedule)
from fence import sampler

rec = spans.Recorder()
missing = spans.install(rec)
world = make_gaussian_world(4, 3, 0.5, 0.6)
truth = world.sample_clean(np.random.default_rng(1))
mask = np.ones((4, 3), dtype=np.int64)
mask[0] = 0
sched = quadratic_schedule(5)
backend = OracleBackend(world, sched)
law = sampler.scale_law(GuidanceConfig(*mode_from_string(sys.argv[3]), clusters=2), sched)
sampler.impute(backend, backend, TrafficGrid(truth * mask), MaskMatrix(mask), sched, law,
               n_samples=2, seed=3)
metrics = rec.metrics()
print(json.dumps({"missing": missing, "lost": sorted(rec.lost),
                  "updates": metrics["guidance.posterior_update.calls"],
                  "scales": metrics["clustering.scales.calls"],
                  "predict_cond": metrics["backends.predict_cond.calls"],
                  "predict_uncond": metrics["backends.predict_uncond.calls"],
                  "affinities": metrics["backends.node_affinity.calls"],
                  "kmeans": metrics["clustering.kmeans.calls"],
                  "reverse_means": metrics["diffusion.reverse_mean.calls"],
                  "combines": metrics["guidance.combine.calls"],
                  "gradient_norms": metrics["guidance.gradient_norm.calls"]}))
"""


TRACED_TRAINING_STEP = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import fence.cli
import spans
from fence import ConditioningContext, NetConfig, NeuralDenoiser
from fence import autodiff as ad
from fence.training import Adam

rec = spans.Recorder()
missing = spans.install(rec)
model = NeuralDenoiser(NetConfig(n_nodes=3, d_model=4, n_layers=1, n_heads=2), seed=1)
rng = np.random.default_rng(2)
ctx = ConditioningContext(rng.standard_normal((3, 4)), rng.integers(0, 2, (3, 4)))
eps_hat, _ = model.forward_tensor(rng.standard_normal((2, 3, 4)), 3, ctx)
ad.backward(ad.sum_all(ad.multiply(eps_hat, eps_hat)))
Adam(model.parameters(), lr=1e-3).step()
metrics = rec.metrics()
print(json.dumps({"missing": missing, "lost": sorted(rec.lost),
                  "nodes": metrics["autodiff.nodes"],
                  "forwards": metrics["neural.forward.calls"],
                  "backwards": metrics["autodiff.backward.calls"],
                  "adam_steps": metrics["training.adam_step.calls"]}))
"""


def _traced(script: str, *args: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench"), *args],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# every law combines the predictions, measures their gap and takes one
# reverse mean per step, K = 5
PER_STEP = {"reverse_means": 5, "combines": 5, "gradient_norms": 5}


def test_perfbench_traces_every_layer_of_a_fence_impute():
    steps = 5
    # spans._by_context names each predict by the context's is_unconditional:
    # one conditional and one unconditional call per step; the oracle's one
    # affinity is built and clustered once per run; the tracker reads the
    # step's gap, so the guided mean is the step's only reverse mean
    assert _traced(TRACED_IMPUTE, "fence") == {"missing": [], "lost": [],
                                               "updates": steps - 1, "scales": steps,
                                               "predict_cond": steps,
                                               "predict_uncond": steps, "affinities": 1,
                                               "kmeans": 1, **PER_STEP}


@pytest.mark.parametrize("mode, predict_cond, affinities", [("cfg:2", 5, 1), ("none", 0, 0)])
def test_fixed_scale_laws_run_no_tracker_and_no_clustering(mode, predict_cond, affinities):
    # cfg and none run through the same loop as fence but pool nothing and
    # track nothing; none skips the conditional backend altogether
    assert _traced(TRACED_IMPUTE, mode) == {"missing": [], "lost": [], "updates": 0,
                                            "scales": 0, "predict_cond": predict_cond,
                                            "predict_uncond": 5, "affinities": affinities,
                                            "kmeans": 0, **PER_STEP}


def test_perfbench_traces_a_neural_training_step():
    # the tape's node counter wraps Tensor.__init__, so a change of its
    # signature or of backward's would zero the neural per-layer metrics
    got = _traced(TRACED_TRAINING_STEP)
    assert got.pop("nodes") > 0
    assert got == {"missing": [], "lost": [], "forwards": 1, "backwards": 1,
                   "adam_steps": 1}
