"""The integrity harness: silent corruption everywhere, verify the scrub.

Third sibling of the crashtest and the survivetest: where those kill the
machine (or one component), the scrubtest *lies* to it — it rots stored
bits in place and checks the integrity layer's three oracles:

* **detection before committed reads** — every injected corruption is
  caught by a checksum verdict (a typed :class:`IntegrityError` on the
  functional read path, a scrub detection in the simulation) before any
  committed read returns wrong bytes silently;
* **zero false positives** — a corruption-free run scrubs completely
  clean: no checksum failure, no repair mutation;
* **no committed loss after repair** — after automated detect-and-repair
  (``repair_corruption()``: targeted restore from the archive, or
  escalation to the architecture's archive+log media recovery), every
  committed page reads back exactly, and a crash/recover round still
  converges (the repaired log replays).

The functional sweep drives every architecture × every corruption target
(data page, log record, checkpoint record, archive); the simulation
scenario runs a mirrored machine under probabilistic ``BIT_ROT`` faults
with the background :class:`~repro.resilience.scrubber.Scrubber` patrol
and checks detection/repair accounting.  Reports are deterministic:
the same ``(seed, plan)`` produces byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.checkpoint import CHECKPOINT_FILE
from repro.faults.harness import (
    DEFAULT_CHECKPOINT_EVERY,
    apply_op,
    generate_ops,
    make_manager,
)
from repro.faults.plan import FaultKind, FaultSpec
from repro.hardware.params import IBM_3350
from repro.integrity import IntegrityError
from repro.machine.testbed import build_survive_machine
from repro.resilience.scrubber import Scrubber
from repro.resilience.survivetest import Outcome
from repro.sim.rng import RandomStreams
from repro.workload.transaction import TransactionStatus

__all__ = [
    "CORRUPTION_TARGETS",
    "ScrubReport",
    "run_clean_scenario",
    "run_corruption_scenario",
    "run_scrub_sim_scenario",
    "run_scrubtest",
]

#: Where the functional sweep injects rot.
CORRUPTION_TARGETS = ("data-page", "log-record", "checkpoint", "archive")

#: Files on the archive medium for every manager layout.
_ARCHIVE_NAMES = ("archive_pages", "archive_files", "archive_log")

#: The ``repair_corruption()`` stats that each count one repair action.
_REPAIR_KEYS = ("pages_repaired", "records_repaired", "archives_rebuilt", "escalations")

#: Functional-workload shape (crashtest conventions).
SCRUB_TRANSACTIONS = 8
SCRUB_PAGES = 6

#: Sim-scenario shape: enough traffic that rot lands on hot sectors.
SIM_TRANSACTIONS = 10
_SIM_ROT_PROBABILITY = 0.05
#: A small drive so a full scrub patrol fits inside the workload's
#: makespan (a production pass over a 555-cylinder 3350 takes hours of
#: simulated time; the patrol mechanics are identical).
SIM_DISK = IBM_3350.with_overrides(cylinders=12)
SIM_RESERVED_CYLINDERS = 3
SIM_DB_PAGES = 1_000
#: Idle time simulated after the workload so the patrol catches up —
#: during the run the scrubber yields to foreground queues, so the
#: repair guarantee is "by the end of the next quiet patrol window".
_SIM_DRAIN_MS = 10_000.0


@dataclass
class ScrubReport:
    """Integrity verdict of one architecture across every scenario."""

    architecture: str
    seed: int
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_json(self) -> str:
        return json.dumps(
            {
                "architecture": self.architecture,
                "seed": self.seed,
                "ok": self.ok,
                "scenarios": [o.to_dict("target") for o in self.outcomes],
            },
            sort_keys=True,
            indent=2,
        )

    def summary(self) -> str:
        """The CLI line: detections and repairs summed over every
        scenario, functional and sim (docs/INTEGRITY.md lists the keys)."""
        detections = repairs = 0
        for o in self.outcomes:
            details = o.details
            detections += details.get("detected", 0)
            detections += details.get("scrub_detections", 0)
            repairs += details.get("scrub_repairs", 0)
            repairs += sum(details.get(key, 0) for key in _REPAIR_KEYS)
        status = "ok" if self.ok else "VIOLATIONS"
        lines = [
            f"{self.architecture:>12}: {len(self.outcomes)} scenarios "
            f"detections={detections} repairs={repairs} {status}"
        ]
        for o in self.outcomes:
            for violation in o.violations[:5]:
                lines.append(f"    {o.scenario}: {violation}")
        return "\n".join(lines)


# -- functional sweep ---------------------------------------------------------
def _run_workload(arch: str, seed: int):
    """Drive one manager through the seeded script; returns committed map."""
    ops = generate_ops(
        seed, SCRUB_TRANSACTIONS, SCRUB_PAGES,
        checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
    )
    manager = make_manager(arch)
    tids: Dict[int, int] = {}
    committed: Dict[int, bytes] = {}
    pending: Dict[int, Dict[int, bytes]] = {}
    for op in ops:
        apply_op(manager, op, tids, committed, pending)
    return manager, committed


def _verify_committed_reads(
    manager, committed: Dict[int, bytes], outcome: Outcome, when: str
) -> int:
    """The before-committed-read oracle: typed failure or right bytes.

    Returns how many reads raised a typed integrity error (detections);
    a read silently returning *wrong* bytes is the violation.
    """
    detected = 0
    for page in range(SCRUB_PAGES):
        expected = committed.get(page, b"")
        try:
            value = manager.read_committed(page)
        except IntegrityError:
            detected += 1
            continue
        if value != expected:
            outcome.violations.append(
                f"silent corruption reached a committed read {when}: "
                f"page {page} expected {expected!r}, got {value!r}"
            )
    return detected


def _inject(manager, target: str, rng) -> Dict[str, Any]:
    """Rot one stored value of ``target``'s kind; returns the site, or
    ``{"skipped": reason}`` when the architecture stores none."""
    stable = manager.stable
    if target == "data-page":
        pages = sorted(stable.pages)
        if not pages:
            return {"skipped": "no stable data pages (differential layout)"}
        page = pages[rng.randrange(len(pages))]
        data = stable.pages[page]
        position = rng.randrange(len(data)) if data else 0
        stable.corrupt_page(page, position)
        return {"page": page, "position": position}
    if target == "checkpoint":
        length = stable.file_length(CHECKPOINT_FILE)
        if not length:
            return {"skipped": "no durable checkpoint records"}
        index = rng.randrange(length)
        stable.corrupt_record(CHECKPOINT_FILE, index)
        return {"file": CHECKPOINT_FILE, "index": index}
    if target == "log-record":
        candidates = [
            name
            for name in stable.files()
            if name not in _ARCHIVE_NAMES
            and name != CHECKPOINT_FILE
            and stable.file_length(name)
        ]
        if not candidates:
            return {"skipped": "no online records to corrupt"}
        name = candidates[rng.randrange(len(candidates))]
        index = rng.randrange(stable.file_length(name))
        stable.corrupt_record(name, index)
        return {"file": name, "index": index}
    if target == "archive":
        candidates = [
            name for name in _ARCHIVE_NAMES if stable.file_length(name)
        ]
        if not candidates:
            return {"skipped": "empty archive"}
        name = candidates[rng.randrange(len(candidates))]
        index = rng.randrange(stable.file_length(name))
        stable.corrupt_record(name, index)
        return {"file": name, "index": index}
    raise ValueError(f"unknown corruption target {target!r}")


def run_corruption_scenario(arch: str, target: str, seed: int) -> Outcome:
    """Inject one corruption, then detect / repair / verify."""
    outcome = Outcome(arch, target)
    manager, committed = _run_workload(arch, seed)
    stable = manager.stable
    # The archive is current as of the injection point: dump after the
    # workload (plus, for WAL, the continuously-appended archive log),
    # so targeted repair restores the exact committed state — the
    # "no committed loss" oracle holds with no rollback caveat.
    manager.dump()
    archive_append = getattr(manager, "archive_append", None)
    if archive_append is not None:
        archive_append()
    rng = RandomStreams(seed).stream(f"scrubtest.{arch}.{target}")
    site = _inject(manager, target, rng)
    outcome.details["injected"] = site
    if "skipped" in site:
        return outcome
    # Oracle: the scrub detects the rot...
    report = stable.scrub()
    detected = len(report["pages"]) + sum(
        len(indexes) for indexes in report["files"].values()
    )
    outcome.details["detected"] = detected
    if detected == 0:
        outcome.violations.append(
            f"injected corruption at {site} was not detected by the scrub"
        )
    # ...and nothing reaches a committed read silently in the meantime.
    _verify_committed_reads(manager, committed, outcome, "before repair")
    stats = manager.repair_corruption()
    outcome.details.update(stats)
    after = stable.scrub()
    if after["pages"] or after["files"]:
        outcome.violations.append(
            f"stable image still corrupt after repair: {after}"
        )
    if not sum(stats[key] for key in _REPAIR_KEYS):
        outcome.violations.append("repair reported no action taken")
    # No committed loss: every page reads back exactly, with no raise.
    for page in range(SCRUB_PAGES):
        expected = committed.get(page, b"")
        try:
            value = manager.read_committed(page)
        except IntegrityError as exc:
            outcome.violations.append(
                f"committed read of page {page} still fails after repair: {exc}"
            )
            continue
        if value != expected:
            outcome.violations.append(
                f"committed loss after repair: page {page} expected "
                f"{expected!r}, got {value!r}"
            )
    # The repaired recovery data must still replay: a crash/recover
    # round converges to the same committed state.
    manager.crash()
    manager.recover()
    _verify_committed_reads(manager, committed, outcome, "after restart")
    outcome.details["corruptions_injected"] = stable.corruptions_injected
    return outcome


def run_clean_scenario(arch: str, seed: int) -> Outcome:
    """The false-positive oracle: a clean run must scrub clean."""
    outcome = Outcome(arch, "clean")
    manager, committed = _run_workload(arch, seed)
    manager.dump()
    report = manager.stable.scrub()
    if report["pages"] or report["files"]:
        outcome.violations.append(f"false positive on a clean run: {report}")
    if manager.stable.checksum_failures:
        outcome.violations.append(
            f"{manager.stable.checksum_failures} checksum failures on a "
            "clean run"
        )
    stats = manager.repair_corruption()
    if any(stats.values()):
        outcome.violations.append(
            f"repair mutated a clean store: {stats}"
        )
    _verify_committed_reads(manager, committed, outcome, "on a clean run")
    outcome.details["checksum_failures"] = manager.stable.checksum_failures
    return outcome


# -- simulation scenario ------------------------------------------------------
def run_scrub_sim_scenario(
    arch: str, seed: int, n_transactions: int = SIM_TRANSACTIONS
) -> Outcome:
    """Mirrored machine under probabilistic bit rot, scrubber patrolling.

    Oracle: the workload completes, the mirror masks every foreground
    read that hit a rotted side, and every scrub detection was repaired
    (detection latency recorded per sector).
    """
    outcome = Outcome(arch, "sim-scrubber")
    machine, transactions = build_survive_machine(
        arch,
        seed,
        n_transactions,
        (FaultSpec(FaultKind.BIT_ROT, probability=_SIM_ROT_PROBABILITY),),
        mirrored_data_disks=True,
        scrub_enabled=True,
        scrub_io_share=1.0,
        scrub_interval_ms=5.0,
        # The small-drive testbed wins over any per-architecture db sizing.
        disk=SIM_DISK,
        reserved_cylinders=SIM_RESERVED_CYLINDERS,
        db_pages=SIM_DB_PAGES,
    )
    scrubber = Scrubber(machine)
    result = machine.run(transactions)
    # Let the patrol catch up over the now-idle machine: during the run
    # the scrubber yields to foreground queues, so the repair guarantee
    # is "by the end of the next quiet patrol window".
    machine.idle(_SIM_DRAIN_MS)
    lost = [
        t.tid for t in transactions if t.status is not TransactionStatus.COMMITTED
    ]
    if lost:
        outcome.violations.append(
            f"{len(lost)} transactions failed to commit under rot: {lost[:5]}"
        )
    if machine.crashed:
        outcome.violations.append(
            f"machine crashed ({machine.crash_reason}) under rot"
        )
    counters = scrubber.extra_counters()
    rotted = sum(
        side.rotted_sectors.count
        for disk in machine.data_disks
        for side in disk.sides
    )
    remaining = sum(
        len(side.corrupt_sectors)
        for disk in machine.data_disks
        for side in disk.sides
        if not side.failed
    )
    outcome.details["rotted_sectors"] = rotted
    outcome.details["rotted_remaining"] = remaining
    outcome.details["corrupt_masked"] = result.counters.get(
        "mirror_corrupt_masked", 0
    )
    outcome.details.update(counters)
    if counters["scrub_passes"] < 1:
        outcome.violations.append("scrubber never completed a patrol pass")
    if rotted and not counters["scrub_detections"]:
        outcome.violations.append(
            f"{rotted} sectors rotted but the scrubber detected none"
        )
    if counters["scrub_detections"] != counters["scrub_repairs"]:
        outcome.violations.append(
            f"{counters['scrub_detections']} detections but "
            f"{counters['scrub_repairs']} repairs"
        )
    if remaining:
        outcome.violations.append(
            f"{remaining} rotted sectors survived the post-workload patrol"
        )
    latencies = scrubber.detection_latencies()
    if latencies:
        outcome.details["max_detection_latency_ms"] = round(max(latencies), 3)
        if min(latencies) < 0:
            outcome.violations.append("negative detection latency recorded")
    outcome.details["makespan_ms"] = result.makespan_ms
    return outcome


# -- the full sweep -----------------------------------------------------------
def run_scrubtest(arch: str, seed: int = 1985) -> ScrubReport:
    """Every corruption scenario against one architecture.

    The first scenario's :func:`make_manager` rejects an unknown ``arch``.
    """
    report = ScrubReport(architecture=arch, seed=seed)
    report.outcomes.append(run_clean_scenario(arch, seed))
    for target in CORRUPTION_TARGETS:
        report.outcomes.append(run_corruption_scenario(arch, target, seed))
    report.outcomes.append(run_scrub_sim_scenario(arch, seed))
    return report
