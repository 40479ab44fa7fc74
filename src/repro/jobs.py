"""Process fan-out shared by experiments, benchmarks, and the linter.

Lives at the very bottom of the layering (below even ``sim`` — see
``_LAYERS`` in the API02 rule): it imports nothing from ``repro``, so any
layer may use it without tangling the graph.  It is the one process
fan-out in the package: experiments, the bench runner, the checkpoint
sweep and the linter all map their cells through it.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["map_jobs"]


def map_jobs(func: Callable, items, jobs: int = 1) -> list:
    """Order-preserving map, optionally fanned out over worker processes.

    ``jobs <= 1`` runs serially in-process.  With more jobs a
    ``multiprocessing`` pool maps ``func`` over ``items`` — results come
    back in input order, and each cell is seeded independently of the
    others, so the output is byte-identical to the serial path.  ``func``
    and the items must be picklable (module-level functions, plain data).
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(items))) as pool:
        return pool.map(func, items)
