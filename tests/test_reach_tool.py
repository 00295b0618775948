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


def test_reach_records_the_digest_of_every_output_file(tmp_path):
    out = tmp_path / "reach.json"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import reach;"
              " reach.WORKLOADS = ('oracle-ensemble',);"
              " sys.exit(reach.main(['--out', sys.argv[2]]))")
    run = subprocess.run([sys.executable, "-c", script, str(ROOT / "tools"), str(out)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["failed_commands"] == []
    files = report["outputs"]["oracle-ensemble"]["run"]
    assert {"config.resolved", "report.csv", "trace.csv", "trace_sample_0.csv"} <= set(files)
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest in files.values())
