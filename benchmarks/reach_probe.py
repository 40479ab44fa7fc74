"""Reach probe: which functions under ``src/repro`` does nothing drive?

Runs every driver that produces a number or an artifact here, in this
one process under a ``cProfile`` call collector:

* each ``repro`` CLI subcommand, every ``loadtest --arrival`` choice, the
  ``--json`` writers and ``crashtest --plan`` replay;
* every ``BENCH_*.json`` grid, through ``repro bench`` (which rewrites
  ``benchmarks/output/`` as any bench run does) and ``bench-diff``;
* the lint CLI over what CI lints (``src``, ``tests``, ``benchmarks``),
  one pass of each ``perfbench`` workload, every example.

It then prints each function defined under ``src/repro`` whose code never
started, and the share of function-body lines those functions hold.  A
function's body lines run from its first body statement to its last
line; lines of a nested function count for the nested function only.
Unit tests are deliberately not a driver: a capability that only tests
reach is what this probe looks for.

Run from the repository root (about seven minutes on two vCPUs; every
driver runs with one worker so the collector sees all of its calls)::

    PYTHONPATH=src python benchmarks/reach_probe.py

A driver that raises or exits non-zero is listed as failed; the probe
still counts what it reached.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
PERFBENCH = os.path.join(REPO_ROOT, "perfbench")
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")
#: What CI lints: the BENCH02 helpers only run on ``bench_*.py`` files.
LINTED = [os.path.join(REPO_ROOT, path) for path in ("src", "tests", "benchmarks")]

#: (path, first line as the code object reports it, name) of a function.
FunctionKey = Tuple[str, int, str]


def defined_functions() -> Dict[FunctionKey, int]:
    """Every function and method under ``src/repro``, with its body lines."""
    functions: Dict[FunctionKey, int] = {}
    for directory, _subdirs, files in sorted(os.walk(SRC)):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                with open(path) as handle:
                    tree = ast.parse(handle.read(), path)
                functions.update(_functions_of(path, tree))
    return functions


def _functions_of(path: str, tree: ast.AST) -> Dict[FunctionKey, int]:
    lines: Dict[FunctionKey, int] = {}
    owner: Dict[int, FunctionKey] = {}
    nodes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Outer functions first, so a nested function's lines overwrite them.
    for node in sorted(nodes, key=lambda node: node.lineno):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        key = (path, first, node.name)
        lines[key] = 0
        for line in range(node.body[0].lineno, node.end_lineno + 1):
            owner[line] = key
    for key in owner.values():
        lines[key] += 1
    return lines


def started_functions(profile: cProfile.Profile) -> Set[FunctionKey]:
    started = set()
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str):
            started.add((os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name))
    return started


class _Recorder:
    """The span recorder perfbench units take, recording nothing."""

    def span(self, name, **fields):
        return contextlib.nullcontext()


def _repro(*argv: str) -> Callable[[], int]:
    def run() -> int:
        from repro.cli import main

        return main(list(argv))

    run.__name__ = "repro " + " ".join(argv)
    return run


def _lint(*argv: str) -> Callable[[], int]:
    def run() -> int:
        from repro.lint.cli import main

        return main(list(argv))

    run.__name__ = "repro.lint " + " ".join(argv)
    return run


def _perfbench(name: str) -> Callable[[], int]:
    def run() -> int:
        if PERFBENCH not in sys.path:
            sys.path.insert(0, PERFBENCH)
        import workloads

        workload = workloads.WORKLOADS[name]
        recorder = _Recorder()
        failures = []
        for unit in workload.units(workload.inputs(1985, 0, recorder)):
            failures.extend(unit.run(recorder).failures)
        return 1 if failures else 0

    run.__name__ = f"perfbench {name} (one pass)"
    return run


def _example(path: str) -> Callable[[], int]:
    def run() -> int:
        runpy.run_path(path, run_name="__main__")
        return 0

    run.__name__ = "example " + os.path.relpath(path, REPO_ROOT)
    return run


def drivers(scratch: str) -> List[Callable[[], int]]:
    from repro.experiments.tables import ABLATIONS, TABLES
    from repro.faults import FaultKind, FaultPlan, FaultSpec
    from repro.loadgen.arrivals import PROCESSES

    def out(name: str) -> str:
        return os.path.join(scratch, name)

    plan = out("plan.json")
    with open(plan, "w") as handle:
        handle.write(FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*", occurrence=5)).to_json())
    runs = [_repro("tables")]
    runs += [_repro("table", str(n), "-n", "6") for n in sorted(TABLES)]
    runs += [_repro("ablation", name, "-n", "6") for name in sorted(ABLATIONS)]
    runs += [
        _repro("fidelity", "-n", "6"),
        _repro("crashtest", "--arch", "all", "--budget", "40", "--json", out("crash.json")),
        _repro("crashtest", "--arch", "wal", "--plan", plan),
        _repro("survivetest", "--arch", "all", "--json", out("survive.json")),
        _repro("scrubtest", "--arch", "all", "--json", out("scrub.json")),
        _repro(
            "loadtest", "--arch", "wal", "--states", "healthy,dead-lp,mirrored-degraded",
            "--json", out("load-wal.json"),
        ),
        _repro("loadtest", "--arch", "shadow", "--states", "healthy,mirrored-degraded"),
    ]
    small = ("--arch", "wal", "-n", "6", "--states", "healthy")
    runs += [_repro("loadtest", "--arrival", a, *small) for a in PROCESSES]
    runs += [
        _repro("trace", "--arch", "all", "-n", "4", "-o", out("trace.json"), "--timeline"),
        _repro("trace-diff", "logging", "shadow-pt", "-n", "4"),
        _repro("predict"),
        _repro("predict", "--parallel", "--sequential"),
        _repro("bench", "--list", "--dir", BENCHMARKS),
        # Writes benchmarks/output/, as ``repro bench`` always does.
        _repro("bench", "--dir", BENCHMARKS),
        _repro("bench-diff", "--dir", BENCHMARKS),
        _lint("--list-rules"),
        _lint(*LINTED),
        _lint("--format", "json", "--call-graph", out("callgraph.json"), *LINTED),
    ]
    runs += [_perfbench(name) for name in ("paper-batch", "crash-sweep", "traced-open")]
    examples = os.path.join(REPO_ROOT, "examples")
    runs += [_example(os.path.join(examples, f)) for f in sorted(os.listdir(examples)) if f.endswith(".py")]
    return runs


def main() -> int:
    # Code objects name their files as the import found them.
    sys.path[:] = [os.path.abspath(entry) for entry in sys.path]
    functions = defined_functions()
    profile = cProfile.Profile()
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        # drivers() makes the first repro imports: collect them too, or
        # module bodies' import-time helpers would read as unreached.
        profile.enable()
        try:
            runs = drivers(scratch)
        finally:
            profile.disable()
        for run in runs:
            start = time.perf_counter()
            status: object = 0
            with contextlib.redirect_stdout(io.StringIO()):
                profile.enable()
                try:
                    status = run()
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # noqa: BLE001 - reported, then go on
                    traceback.print_exc()
                    status = f"{type(exc).__name__}: {exc}"
                finally:
                    profile.disable()
            seconds = time.perf_counter() - start
            if status not in (0, None):
                failed.append(f"{run.__name__}: {status}")
            print(f"# {seconds:7.1f} s  {run.__name__}", file=sys.stderr)
    started = started_functions(profile)
    unreached = sorted(key for key in functions if key not in started)
    for path, line, name in unreached:
        print(f"{os.path.relpath(path, REPO_ROOT)}:{line}: {name} ({functions[path, line, name]} lines)")
    for line in failed:
        print(f"driver failed: {line}")
    total = sum(functions.values())
    dead = sum(functions[key] for key in unreached)
    print(
        f"{len(unreached)} of {len(functions)} functions unreached: "
        f"{dead} of {total} function-body lines ({100.0 * dead / total:.1f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
