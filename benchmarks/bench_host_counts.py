"""Host work counts: how many calls each host-speed workload makes.

``perfbench/run.py --trace 1`` profiles the first five passes of a
workload and reports exact call counts per layer; CI pins a few of them
as constants.  This grid commits the same kind of count as a trajectory,
so a change that moves one shows the count and its delta in
``bench-diff`` and in the artifact's history.  One cell per workload at
perfbench's pinned seed runs those five passes unit by unit, with no
timing loop and no profiler: each count wraps the function it counts,
so it is a plain number of calls and does not depend on the interpreter
version.

The ``crash-sweep`` cell counts

* ``checksums`` — :func:`~repro.integrity.page_checksum` and
  :func:`~repro.integrity.record_checksum` calls (perfbench's
  ``integrity.checksums``);
* ``crossings`` — :meth:`~repro.faults.FaultInjector.reached` calls,
  hook crossings run under an injector (perfbench's
  ``faults.crossings``);
* ``states_observed`` — crashed states whose recovery the crash harness
  observed;
* ``recovery_runs`` — ``RecoveryManager.recover`` calls, interrupted
  ones included;
* ``pickles`` — pickle encodes and decodes: the crash harness's crashed
  views (:func:`~repro.faults.harness._view`), any ``pickle.dumps`` and
  every ``pickle.loads``.
"""

import collections
import contextlib
import importlib.util
import os
import pickle
import sys
from typing import Any, Callable, Dict, Iterator
from unittest import mock

from benchmarks._harness import REPO_ROOT
from repro.bench import Grid, GridResult
from repro.faults import harness
from repro.faults.injector import FaultInjector
from repro.storage import stable
from repro.storage.interface import RecoveryManager

#: perfbench's pinned seed and the passes its ``--trace 1`` run profiles.
SEED = 1985
PASSES = 5


def _perfbench_workloads():
    """``perfbench/workloads.py``, the unit definitions perfbench times
    (a script directory, not a package, so it is loaded by path)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = os.path.join(REPO_ROOT, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


class _NoSpans:
    """A span recorder that records nothing."""

    def span(self, name: str, unit: Any = None):
        del name, unit
        return contextlib.nullcontext()


def _counting(counts: collections.Counter, name: str, func: Callable) -> Callable:
    def counted(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    return counted


#: metric -> the (owner, attribute) pairs whose calls it counts.
COUNTED = {
    "checksums": [(stable, "page_checksum"), (stable, "record_checksum")],
    "crossings": [(FaultInjector, "reached")],
    "states_observed": [(harness, "_recover")],
    "recovery_runs": [(RecoveryManager, "recover")],
    "pickles": [(harness, "_view"), (pickle, "dumps"), (pickle, "loads")],
}


@contextlib.contextmanager
def _counted() -> Iterator[collections.Counter]:
    counts: collections.Counter = collections.Counter()
    with contextlib.ExitStack() as stack:
        for name, targets in COUNTED.items():
            counts[name] = 0
            for owner, attribute in targets:
                wrapper = _counting(counts, name, getattr(owner, attribute))
                stack.enter_context(mock.patch.object(owner, attribute, wrapper))
        yield counts


def host_counts_cell(params: Dict[str, Any], seed: int) -> Dict[str, int]:
    workload = _perfbench_workloads().WORKLOADS[params["workload"]]
    rec = _NoSpans()
    units = failures = 0
    with _counted() as counts:
        for index in range(PASSES):
            for unit in workload.units(workload.inputs(seed, index, rec)):
                failures += len(unit.run(rec).failures)
                units += 1
    if failures:
        raise AssertionError(f"{params['workload']}: {failures} unit failures")
    return dict(counts, units=units)


def host_counts_check(result: GridResult) -> None:
    """The passes ran units, and every observed state was recovered."""
    counts = result.cell(workload="crash-sweep").metrics
    assert counts["units"] > 0
    assert counts["recovery_runs"] >= counts["states_observed"]


GRID = Grid(
    name="host_counts",
    title="Host work counts: calls made by perfbench's profiled passes",
    seed=SEED,
    runner=host_counts_cell,
    check=host_counts_check,
    parameters={"workload": ["crash-sweep"]},
    primary_metric="checksums",
    tolerance=0.0,
)
