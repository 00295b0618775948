"""Make the benchmark modules and the program importable in its tests:

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
for path in (BENCH, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
