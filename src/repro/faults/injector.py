"""The runtime half of fault injection: counts crossings, fires faults.

One :class:`FaultInjector` serves both layers of the reproduction:

* the **functional** storage managers call :meth:`reached` from their
  ``_fault_point`` hooks — a matching CRASH spec *raises*
  :class:`InjectedCrash`, modeling the machine dying exactly there;
* the **simulation** layer (machine, disks, interconnect, log
  processors) calls the non-raising predicates (:meth:`poll`,
  :meth:`torn_write`, :meth:`drop_message`, ...) and reacts in-model —
  a dropped message is retransmitted, a dead log processor is skipped.

Every random decision draws from a ``RandomStreams``-derived stream, so a
``(seed, plan)`` pair replays bit-for-bit (DET01).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.sim.rng import RandomStreams
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["FaultInjector", "InjectedCrash"]


class InjectedCrash(Exception):
    """Raised at the exact hook crossing where a planned crash fires."""

    def __init__(self, hook: str, crossing: int):
        super().__init__(f"injected crash at hook {hook!r} (crossing #{crossing})")
        self.hook = hook
        self.crossing = crossing


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a running system."""

    def __init__(self, plan: FaultPlan, streams: Optional[RandomStreams] = None):
        self.plan = plan
        #: The streams and the ``faults`` stream are made on the first
        #: probabilistic draw: crash-only plans never draw, and a stream
        #: is keyed by its name alone, so making it late changes no draw.
        self._streams = streams
        self._rng = None
        #: Dedicated stream for silent-corruption draws, created lazily so
        #: plans without BIT_ROT specs leave the stream table — and every
        #: fault-free trace — byte-identical to pre-integrity runs.
        self._corrupt_rng = None
        #: Every hook crossing so far, in order.
        self.trail: List[str] = []
        #: The CRASH specs, split out once (hook crossings only ever look
        #: for a due crash), and per-spec counts of matching crossings.
        self._crash_specs = [s for s in plan.specs if s.kind is FaultKind.CRASH]
        self._crash_hits = [0] * len(self._crash_specs)
        #: record of fired faults: (kind, hook-or-target, crossing).
        self.fired: List[Tuple[str, str, int]] = []
        #: The machine :meth:`arm` scheduled on, bound only while it runs.
        self.machine = None

    @property
    def crossings(self) -> int:
        """Total hook crossings so far (the clock "*"-specs count against)."""
        return len(self.trail)

    # -- hook crossings -------------------------------------------------------
    def _crash_due(self, name: str) -> bool:
        """Advance per-spec counters; True if a CRASH spec fires now."""
        due = False
        for slot, spec in enumerate(self._crash_specs):
            if spec.matches_hook(name):
                self._crash_hits[slot] += 1
                if self._crash_hits[slot] == spec.occurrence:
                    due = True
        return due

    def reached(self, name: str) -> None:
        """A functional-layer hook crossing: raises on a due CRASH spec."""
        self.trail.append(name)
        if self._crash_due(name):
            self.fired.append(("crash", name, self.crossings))
            raise InjectedCrash(name, self.crossings)

    def poll(self, name: str) -> bool:
        """A simulation-layer hook crossing: True if a CRASH spec is due.

        Non-raising: the simulation reacts by scheduling its crash event
        rather than unwinding the current process with an exception.
        """
        self.trail.append(name)
        if self._crash_due(name):
            self.fired.append(("crash", name, self.crossings))
            return True
        return False

    # -- media / component predicates ----------------------------------------
    def _stream(self, name: str) -> random.Random:
        """The named stream of this injector's seed (or given streams)."""
        if self._streams is None:
            self._streams = RandomStreams(self.plan.seed)
        return self._streams.stream(name)

    def _probabilistic(self, kind: FaultKind, target: Optional[int]) -> bool:
        for spec in self.plan.specs:
            if spec.kind is not kind:
                continue
            if spec.target is not None and target is not None and spec.target != target:
                continue
            if spec.probability >= 1.0:
                return True
            if self._rng is None:
                self._rng = self._stream("faults")
            if self._rng.random() < spec.probability:
                return True
        return False

    def torn_write(self, target: Optional[int] = None) -> bool:
        """Should this page write tear (reach the platter partially)?"""
        if self._probabilistic(FaultKind.TORN_WRITE, target):
            self.fired.append(("torn-write", str(target), self.crossings))
            return True
        return False

    def bit_rot(self, target: Optional[int] = None) -> bool:
        """Should this sector write rot in place (latent sector error)?

        Draws from the dedicated ``corrupt`` stream, *not* the shared
        ``faults`` stream: corruption injection must never perturb the
        torn-write/message-loss draws of an otherwise identical plan.
        """
        specs = [
            spec
            for spec in self.plan.specs
            if spec.kind is FaultKind.BIT_ROT
            and (spec.target is None or target is None or spec.target == target)
        ]
        if not specs:
            return False
        if self._corrupt_rng is None:
            self._corrupt_rng = self._stream("corrupt")
        for spec in specs:
            if spec.probability >= 1.0 or self._corrupt_rng.random() < spec.probability:
                self.fired.append(("bit-rot", str(target), self.crossings))
                return True
        return False

    def drop_message(self, target: Optional[int] = None) -> bool:
        """Should the interconnect drop this message?"""
        if self._probabilistic(FaultKind.MSG_LOSS, target):
            self.fired.append(("msg-loss", str(target), self.crossings))
            return True
        return False

    def timed_faults(self, kind: FaultKind) -> List[FaultSpec]:
        """Specs of ``kind`` scheduled at absolute simulation times."""
        return [
            s for s in self.plan.specs if s.kind is kind and s.at_time is not None
        ]

    # -- machine integration --------------------------------------------------
    def arm(self, machine) -> None:
        """Schedule this plan's timed faults on a ``DatabaseMachine``.

        * timed CRASH specs trigger the machine's crash event;
        * timed LP_FAIL / DISK_FAIL / QP_FAIL specs call the architecture's
          ``fail_log_processor`` / the machine's ``fail_data_disk`` /
          ``fail_query_processor``;
        * a spec with ``repair_after`` schedules the matching repair that
          many ms later (a replacement mirror side starts rebuilding, a
          repaired query processor rejoins the pool).

        The faults reach the machine through ``self.machine``, bound only
        while it runs, so a fault still pending keeps no finished run alive.
        """
        env = machine.env
        machine.armed_faults = self

        def fire(spec: FaultSpec):
            yield env.timeout(spec.at_time)
            if spec.kind is FaultKind.CRASH:
                self.fired.append(("crash", f"t={spec.at_time}", self.crossings))
                self.machine.trigger_crash(f"timed@{spec.at_time}")
            elif spec.kind is FaultKind.LP_FAIL:
                self.fired.append(("lp-fail", str(spec.target), self.crossings))
                self.machine.arch.fail_log_processor(spec.target or 0)
            elif spec.kind is FaultKind.DISK_FAIL:
                self.fired.append(("disk-fail", str(spec.target), self.crossings))
                self.machine.fail_data_disk(spec.target or 0)
            elif spec.kind is FaultKind.QP_FAIL:
                self.fired.append(("qp-fail", str(spec.target), self.crossings))
                self.machine.fail_query_processor(spec.target or 0)
            if spec.repair_after is not None:
                yield env.timeout(spec.repair_after)
                if spec.kind is FaultKind.DISK_FAIL:
                    self.fired.append(
                        ("disk-repair", str(spec.target), self.crossings)
                    )
                    self.machine.attach_disk_replacement(spec.target or 0)
                elif spec.kind is FaultKind.QP_FAIL:
                    self.fired.append(
                        ("qp-repair", str(spec.target), self.crossings)
                    )
                    self.machine.repair_query_processor(spec.target or 0)

        for kind in (
            FaultKind.CRASH, FaultKind.LP_FAIL, FaultKind.DISK_FAIL, FaultKind.QP_FAIL
        ):
            for spec in self.timed_faults(kind):
                env.process(fire(spec))
