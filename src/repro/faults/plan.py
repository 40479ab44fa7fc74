"""Declarative fault plans: what fails, where, and when.

A :class:`FaultPlan` is a small, JSON-serializable value object listing
:class:`FaultSpec` entries plus the seed of the run it applies to.  The
pair ``(seed, plan)`` fully reproduces any failure the crash-recovery
harness finds: feed the JSON back through ``repro crashtest --plan`` (or
:func:`repro.faults.harness.run_scenario`) and the identical schedule of
injected faults replays.

Specs name *hook points* — stable string labels compiled into the code
paths they guard (``wal.commit.pre-record``, ``machine.writeback``, ...);
``docs/FAULTS.md`` catalogues them.  A spec matches a hook crossing when

* ``hook`` equals the crossing's name,
* ``hook`` is ``"*"`` (any crossing), or
* ``hook`` ends with ``"*"`` and is a prefix match (``"wal.commit.*"``).

``occurrence`` selects the n-th matching crossing (1-based), so a plan can
say "crash the *third* time any commit path is crossed".  Probabilistic
faults (message loss, torn writes) use ``probability`` instead and draw
from the injector's :class:`~repro.sim.rng.RandomStreams`-derived stream.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, NamedTuple, Optional, Tuple

__all__ = ["FaultKind", "FaultPlan", "FaultSpec"]


class FaultKind(enum.Enum):
    """The fault taxonomy (see docs/FAULTS.md)."""

    #: Whole-machine / whole-manager crash: volatile state is lost.
    CRASH = "crash"
    #: A page write reaches stable storage partially (media fault).
    TORN_WRITE = "torn-write"
    #: A disk stops serving; queued and in-service requests error out.
    DISK_FAIL = "disk-fail"
    #: A log processor dies: its disk fails and buffered fragments orphan.
    LP_FAIL = "lp-fail"
    #: The interconnect drops a message (sender must retransmit).
    MSG_LOSS = "msg-loss"
    #: A query processor dies; its in-flight transaction aborts via normal
    #: undo and the work redistributes to the surviving processors.
    QP_FAIL = "qp-fail"
    #: Silent corruption: a stored sector/record rots in place (latent
    #: sector error); nothing fails until a checksum-verified read or the
    #: scrubber finds it.
    BIT_ROT = "bit-rot"


class FaultSpec(NamedTuple):
    """One fault: what (``kind``), where (``hook``/``target``), when
    (``occurrence``-th matching crossing, or simulation time ``at_time``,
    or per-event ``probability``).

    ``repair_after`` schedules a repair that many ms after a timed
    permanent fault fires: a replacement disk arrives and the mirror
    rebuild starts, or a repaired query processor rejoins the pool.
    """

    kind: FaultKind
    hook: Optional[str] = None
    occurrence: int = 1
    at_time: Optional[float] = None
    target: Optional[int] = None
    probability: float = 0.0
    repair_after: Optional[float] = None

    def matches_hook(self, name: str) -> bool:
        if self.hook is None:
            return False
        if self.hook == "*" or self.hook == name:
            return True
        if self.hook.endswith("*"):
            return name.startswith(self.hook[:-1])
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind.value,
            "hook": self.hook,
            "occurrence": self.occurrence,
            "at_time": self.at_time,
            "target": self.target,
            "probability": self.probability,
            "repair_after": self.repair_after,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(
            kind=FaultKind(data["kind"]),
            hook=data.get("hook"),
            occurrence=data.get("occurrence", 1),
            at_time=data.get("at_time"),
            target=data.get("target"),
            probability=data.get("probability", 0.0),
            repair_after=data.get("repair_after"),
        )


class FaultPlan(NamedTuple):
    """An immutable schedule of faults for one seeded run."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def of(cls, *specs: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(specs=tuple(specs), seed=seed)

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in data.get("specs", ())),
            seed=data.get("seed", 0),
        )
