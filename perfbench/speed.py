"""Host-speed normalisation: a fixed reference kernel timed between units.

On a shared cloud vCPU the core's speed switches, for seconds at a time,
between states about 1.7x apart (load from other tenants on the sibling
hardware thread).  Raw wall-clock then varies by 20-30% between runs of
identical code, which is wider than any useful regression bound.  So the
timed loop runs :func:`reference_kernel` about every
:data:`PROBE_INTERVAL_S` between units, and scales each unit's wall time
by ``REFERENCE_S / t_ref``, where ``t_ref`` is the mean of the kernel
times just before and just after the unit.  The result is the unit's time
on a core that runs the kernel in exactly ``REFERENCE_S``; on an
uncontended core of the machine the baseline was measured on, normalised
and raw seconds agree to a few percent.

The kernel is the benchmark's own code and shaped like the simulator's
hot path (a heap of generator processes, dict updates), so a change to
the program cannot move it, and contention slows both alike.
"""

from __future__ import annotations

import heapq
import os

from layers import now

__all__ = [
    "PROBE_INTERVAL_S",
    "REFERENCE_S",
    "SpeedProbe",
    "pin_to_one_cpu",
    "reference_kernel",
]

#: Kernel time that defines one normalised second's scale (the kernel's
#: uncontended time on the 2 GHz Xeon vCPU the baseline was measured on).
REFERENCE_S = 0.002
#: Wall time between probes; each probe costs about 2% of it.
PROBE_INTERVAL_S = 0.1
_PROCESSES = 114
_STEPS = 20


def _process(ident: int):
    tally = {}
    for step in range(_STEPS):
        tally[step % 7] = tally.get(step % 7, 0) + ident
        yield (ident * 7 + step) % 13 + 1


def reference_kernel() -> int:
    """Run a fixed discrete-event loop; returns the events it processed."""
    queue = []
    seq = 0
    for ident in range(_PROCESSES):
        heapq.heappush(queue, (0, seq, _process(ident)))
        seq += 1
    events = 0
    while queue:
        at, _seq, process = heapq.heappop(queue)
        events += 1
        try:
            delay = next(process)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (at + delay, seq, process))
    return events


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU.

    The vCPUs change speed independently, so a probe says nothing about a
    unit that ran on the other one.  No-op where affinity is unsupported.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples the reference kernel; turns wall seconds into normalised ones."""

    def __init__(self) -> None:
        reference_kernel()  # the first call pays for cold caches
        self._last = self._kernel_s()
        self._at = now()

    @staticmethod
    def _kernel_s() -> float:
        start = now()
        reference_kernel()
        return now() - start

    def due(self) -> bool:
        return now() - self._at >= PROBE_INTERVAL_S

    def scale(self) -> float:
        """Probe now; the factor for the units run since the last probe."""
        current = self._kernel_s()
        factor = REFERENCE_S / ((self._last + current) / 2.0)
        self._last = current
        self._at = now()
        return factor
