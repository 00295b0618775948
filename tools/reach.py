"""Which lines of src/fence the tests and the benchmark workloads reach.

    python tools/reach.py tests --out reach.json
    python tools/reach.py tests/test_metrics.py --no-workloads --out reach.json

A ``sys.settrace`` line trace records every line of src/fence that runs,
first while each perfbench workload runs (unless ``--no-workloads``), then
while pytest runs on the given paths, if any. A workload's inputs and plan
come from ``perfbench/workloads.build`` (seed ``SEED``) in a temporary
directory; every command of every round runs through ``fence.cli.main``
after its ``out`` directory is made. Nothing under perfbench/ is written.
The report keeps the sha256 of every file each operation wrote
(``outputs``: workload -> operation -> file -> digest), so two trees' reports
show whether their outputs are bit-identical.

The executable lines of a module are the lines its compiled code objects
carry bytecode for (``co_lines()``), as ``python -m trace --missing`` counts
them: docstrings and bare ``else:``/``try:`` headers are not among them. The
JSON report names, for each module, the executable lines that nothing
reached (``unreached``) and those that pytest reached but no workload did
(``tests_only``). The workloads run first, so the lines that run on import
count as reached by them.

Only this process is traced. Code that a test runs only in a child process
(the tests that start ``python`` or ``fence`` in a subprocess) counts as
unreached, so check those tests before deleting a line the report lists.

Standard library only. Tracing makes the test suite about 2.5x slower: on a
2-core machine, pytest timed 488 tests at 62 s traced and 25 s untraced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fence"
WORKLOADS = ("oracle-windows", "oracle-ensemble", "neural-staged")
SEED = 5


class LineTrace:
    """(file, line) pairs of PACKAGE that ran, one set per phase."""

    def __init__(self):
        self.hits: dict[str, set[tuple[str, int]]] = {}
        self._current: set[tuple[str, int]] = set()
        self._prefix = str(PACKAGE) + os.sep

    def _local(self, frame, event, arg):
        if event == "line":
            self._current.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _call(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self._prefix) else None

    @contextlib.contextmanager
    def phase(self, name: str):
        self._current = self.hits.setdefault(name, set())
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)

    def lines(self, name: str, path: Path) -> set[int]:
        return {line for file, line in self.hits.get(name, ()) if file == str(path)}


def executable_lines(path: Path) -> set[int]:
    """Lines that carry bytecode in the module or any code object nested in it."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def file_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by its relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_workloads(trace: LineTrace) -> tuple[list[str], dict]:
    """Run every command of each workload's plan; the failed commands and
    the digests of the files each operation wrote."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    failures, outputs = [], {}
    with tempfile.TemporaryDirectory() as tmp, trace.phase("workloads"):
        import workloads
        import fence.cli

        for name in WORKLOADS:
            plan = workloads.build(name, SEED, Path(tmp) / name)
            for ops in plan["rounds"]:
                for op in ops:
                    Path(op["out"]).mkdir(parents=True, exist_ok=True)
                    for _, argv in op["steps"]:
                        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                            code = fence.cli.main(argv)
                        if code:
                            failures.append(f"{name} {op['id']}: fence {argv[0]} exited {code}")
                    outputs.setdefault(name, {})[op["id"]] = file_digests(Path(op["out"]))
    return failures, outputs


def report(trace: LineTrace) -> dict:
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        by_workloads = trace.lines("workloads", path)
        by_tests = trace.lines("tests", path)
        modules[path.name] = {
            "executable": len(executable),
            "unreached": sorted(executable - by_workloads - by_tests),
            "tests_only": sorted(executable & by_tests - by_workloads),
        }
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_paths", nargs="*", help="paths pytest runs under the trace")
    parser.add_argument("--no-workloads", action="store_true",
                        help="do not run the perfbench workloads")
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args(argv)

    trace = LineTrace()
    failures, outputs = ([], {}) if args.no_workloads else run_workloads(trace)
    pytest_exit = None
    if args.pytest_paths:
        import pytest

        with trace.phase("tests"):
            pytest_exit = int(pytest.main(["-q", "-p", "no:cacheprovider",
                                           *args.pytest_paths]))
    modules = report(trace)
    Path(args.out).write_text(json.dumps({
        "workloads": [] if args.no_workloads else list(WORKLOADS), "seed": SEED,
        "failed_commands": failures, "pytest_paths": args.pytest_paths,
        "pytest_exit": pytest_exit, "outputs": outputs, "modules": modules}, indent=1) + "\n", encoding="utf-8")
    for name, entry in modules.items():
        print(f"{name:16s} {entry['executable']:4d} lines"
              f" {len(entry['unreached']):4d} unreached"
              f" {len(entry['tests_only']):4d} tests only", file=sys.stderr)
    return 1 if failures or pytest_exit else 0


if __name__ == "__main__":
    sys.exit(main())
