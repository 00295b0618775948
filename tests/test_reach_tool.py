"""tools/reach.py reports which lines of src/fence a test run reaches."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _line_of(module: str, text: str) -> int:
    lines = (ROOT / "src" / "fence" / module).read_text(encoding="utf-8").splitlines()
    return next(i for i, line in enumerate(lines, 1) if text in line)


def test_reach_of_the_metrics_tests(tmp_path):
    out = tmp_path / "reach.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), str(ROOT / "tests" / "test_metrics.py"),
         "--no-workloads", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["workloads"] == [] and report["pytest_exit"] == 0
    metrics, training = report["modules"]["metrics.py"], report["modules"]["training.py"]
    quantiles = _line_of("metrics.py", "quantiles = np.quantile(")
    assert quantiles in metrics["tests_only"] and quantiles not in metrics["unreached"]
    # no metrics test trains a network
    assert _line_of("training.py", "optimizer = Adam(") in training["unreached"]
