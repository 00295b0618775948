"""Every benchmark workload can still build its inputs against this program.

``perfbench/workloads.py`` reads the program through a few public names: the
mask generators' ``.entries``, ``conditional_moments()[0]`` and
``load_world_spec``. A change that breaks one of them must fail here, not in
a benchmark run. The benchmark's modules are imported from its own directory,
so the build runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BUILD = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
out = {}
for name in workloads.WORKLOADS:
    plan = workloads.build(name, 1, Path(sys.argv[3]) / name)
    out[name] = [[op["check"]["mae_exact"], op["check"]["mae_zero_fill"]]
                 for ops in plan["rounds"] for op in ops]
print(json.dumps(out))
"""


def test_every_workload_builds_its_inputs(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", BUILD, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True)
    maes = json.loads(out.stdout.strip().splitlines()[-1])
    assert {name: len(ops) for name, ops in maes.items()} == \
        {"oracle-windows": 12, "oracle-ensemble": 1, "neural-staged": 1}
    exact, zero_fill = (sum(pair[k] for ops in maes.values() for pair in ops)
                        for k in (0, 1))
    # the exact conditional mean is a reference only if it beats zero-fill
    assert 0 < exact < zero_fill
