"""The program runs on numpy alone; scipy is only a test dependency.

Every ``fence`` command is a fresh process, so whatever the program imports
is paid before any work starts. The check runs perfbench's warm-up command,
a 2x4 oracle imputation, in a child process, whose modules are not shared
with the tests that import scipy as a reference.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WARMUP = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
import fence.cli
assert fence.cli.main(run._warmup(Path(sys.argv[3]) / "warmup")["argv"]) in (0, None)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, "the warm-up imputation imported " + ", ".join(loaded[:5])
"""


def test_an_oracle_imputation_imports_no_scipy(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", WARMUP, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
