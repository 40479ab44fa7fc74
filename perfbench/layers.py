"""Per-layer attribution: in-memory spans and profiler self time by package.

Two sources, both recorded from the benchmark's own files:

* :class:`Recorder` keeps a span (name, start, end, parent, unit id)
  around each public call the workloads make; spans of one unit share
  its id.  They stay in memory and are written once at exit.
* :func:`self_time_by_layer` groups a ``cProfile`` run's self time by the
  ``repro`` package that defines each function.  C builtins are charged
  to the package that called them; other standard-library code is
  ``stdlib``, and the remaining ``repro`` packages plus the benchmark's
  own code are ``other``.  :func:`call_counts` reads exact profiler call
  counts of chosen functions.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "LAYERS",
    "Recorder",
    "call_counts",
    "now",
    "percentile",
    "self_time_by_layer",
]

#: Layers reported by name; any other ``repro`` package lands in ``other``.
LAYERS = (
    "sim",
    "hardware",
    "machine",
    "core",
    "trace",
    "loadgen",
    "storage",
    "integrity",
    "faults",
    "checkpoint",
)


def now() -> float:
    """Host seconds from a monotonic clock."""
    return time.perf_counter()  # reprolint: disable-line=DET01


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent) of unsorted samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


class _Span:
    __slots__ = ("recorder", "name", "unit", "record")

    def __init__(self, recorder: "Recorder", name: str, unit: Optional[str]):
        self.recorder = recorder
        self.name = name
        self.unit = unit

    def __enter__(self) -> None:
        stack = self.recorder.stack
        parent = stack[-1] if stack else None
        unit = self.unit if self.unit is not None or parent is None else parent[3]
        self.record = [
            len(self.recorder.spans),
            parent[0] if parent is not None else None,
            self.name,
            unit,
            now(),
            None,
        ]
        self.recorder.spans.append(self.record)
        stack.append(self.record)

    def __exit__(self, *exc) -> bool:
        self.record[5] = now()
        self.recorder.stack.pop()
        return False


_NO_SPAN = contextlib.nullcontext()


class Recorder:
    """Spans around public calls; a disabled recorder records nothing.

    Each span is ``[id, parent id, name, unit id, start s, end s]``.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self.stack: List[list] = []

    def span(self, name: str, unit: Optional[str] = None):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, unit)

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of the closed spans called ``name``."""
        return [s[5] - s[4] for s in self.spans if s[2] == name and s[5] is not None]

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "unit": s[3],
             "start_s": s[4], "end_s": s[5]}
            for s in self.spans
        ]


def _layer_of_file(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at >= 0:
        head = path[at + len(marker):].split("/", 1)[0]
        package = head[:-3] if head.endswith(".py") else head
        return package if package in LAYERS else "other"
    if "/perfbench/" in path:
        return "other"
    return "stdlib"


def self_time_by_layer(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    totals = {layer: 0.0 for layer in LAYERS + ("stdlib", "other")}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if func[0] != "~":
            totals[_layer_of_file(func[0])] += tt
            continue
        # A C builtin: split its self time over its callers by how much
        # of it each caller's calls took.
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if not weights:
            totals["stdlib"] += tt
            continue
        for caller, weight in weights.items():
            share = tt * (weight / total if total > 0 else 1.0 / len(weights))
            layer = "stdlib" if caller[0] == "~" else _layer_of_file(caller[0])
            totals[layer] += share
    return totals


def call_counts(stats: Dict[tuple, tuple], functions: Dict[str, List[Callable]]) -> Dict[str, int]:
    """Exact profiler call counts, summed over each name's functions.

    A generator function counts one call per entry (its start and each
    resume), as ``cProfile`` does.
    """
    counts = {}
    for name, funcs in functions.items():
        total = 0
        for func in funcs:
            code = func.__code__
            entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            if entry is not None:
                total += entry[1]
        counts[name] = total
    return counts
