"""The parallel-logging recovery architecture (paper Section 3.1).

Flow for every updated page:

1. the query processor builds a log fragment (CPU, charged to the QP);
2. a log processor is chosen by the selection policy;
3. the fragment travels over the dedicated link — or through the disk
   cache, briefly occupying a frame and extra QP time (Section 4.1.3);
4. the log processor assembles it into a log page and writes full pages;
5. the updated data page stays blocked in the cache until its fragment is
   durable (write-ahead logging), then streams home;
6. commit forces the partial log pages of every involved log processor and
   completes when the last updated page is on disk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.checkpoint import sim_checkpointer
from repro.core.base import RecoveryArchitecture
from repro.core.logging.log_processor import LogFragment, LogProcessor
from repro.core.logging.selection import (
    NoLiveLogProcessor,
    SelectionPolicy,
    SelectorState,
    select_log_processor,
)
from repro.hardware.disk import ConventionalDisk
from repro.hardware.interconnect import Interconnect, MessageLost
from repro.hardware.params import IBM_3350
from repro.sim.monitor import CounterStat

__all__ = ["FragmentRouting", "LogMode", "LoggingConfig", "ParallelLoggingArchitecture"]

#: Delivery attempts per fragment (each attempt re-selects a live log
#: processor; each link attempt itself retransmits with backoff).
MAX_SHIP_ATTEMPTS = 4

#: Linear backoff between shipping attempts, in ms.
SHIP_RETRY_BACKOFF_MS = 2.0

#: Drive model of every log processor's private log disk.
LOG_DISK = IBM_3350

#: Cache-routing overhead: two extra cache operations by the QP.
CACHE_ROUTE_CPU_INSTRUCTIONS = 2_000


class LogMode(enum.Enum):
    """What a fragment contains."""

    #: Record-level redo/undo entries; several fragments fit one log page.
    LOGICAL = "logical"
    #: Full before + after page images; two log pages per update.
    PHYSICAL = "physical"


class FragmentRouting(enum.Enum):
    """How fragments move from query processors to log processors."""

    #: A dedicated interconnect (paper evaluates 1.0 / 0.1 / 0.01 MB/s).
    LINK = "link"
    #: Through the disk cache: no extra hardware, one frame in transit and
    #: extra query-processor work (Section 4.1.3 finds this free in practice).
    CACHE = "cache"


@dataclass(frozen=True)
class LoggingConfig:
    """Parameters of the parallel-logging architecture."""

    n_log_processors: int = 1
    mode: LogMode = LogMode.LOGICAL
    selection: SelectionPolicy = SelectionPolicy.CYCLIC
    routing: FragmentRouting = FragmentRouting.LINK
    link_bandwidth_mb_s: float = 1.0
    #: Logical fragment size; ~6 fragments fill a 4 KB log page.
    fragment_bytes: int = 600
    #: Period of background checkpoints, in ms (None disables them).  The
    #: paper (Section 3.1, ref [13]) claims checkpointing can run in
    #: parallel with normal processing without quiescing: each checkpoint
    #: forces every log processor's partial page and writes one checkpoint
    #: page per log disk, and nothing ever stops.
    checkpoint_interval_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_log_processors < 1:
            raise ValueError("need at least one log processor")
        if self.fragment_bytes < 1:
            raise ValueError("fragment must have positive size")

    @property
    def fragments_per_log_page(self) -> int:
        return max(1, LOG_DISK.page_size // self.fragment_bytes)


class ParallelLoggingArchitecture(RecoveryArchitecture):
    """N log processors with private log disks; see module docstring."""

    name = "logging"

    def __init__(self, config: Optional[LoggingConfig] = None):
        super().__init__()
        self.config_log = config or LoggingConfig()
        self.log_processors: List[LogProcessor] = []
        self._link: Optional[Interconnect] = None
        self._selector_state = SelectorState()
        self._rng = None
        self.ship_retries = CounterStat("logging.ship_retries")
        self.fragments_reshipped = CounterStat("logging.reshipped")

    # -- wiring -----------------------------------------------------------------
    def attach(self, machine) -> None:
        super().attach(machine)
        cfg = self.config_log
        self._rng = machine.streams.stream("logging.selection")
        self.log_processors = []
        for i in range(cfg.n_log_processors):
            disk = ConventionalDisk(
                machine.env,
                LOG_DISK,
                name=f"log{i}",
                rng=machine.streams.stream(f"disk.log{i}"),
            )
            self.log_processors.append(
                LogProcessor(
                    machine.env,
                    i,
                    disk,
                    fragments_per_page=cfg.fragments_per_log_page,
                    name=f"lp{i}",
                    monitor=machine.monitor,
                )
            )
        faults = getattr(machine, "faults", None)
        for lp in self.log_processors:
            lp.on_orphan = self._reship_orphan
            lp.disk.faults = faults
        if cfg.routing is FragmentRouting.LINK:
            # Dedicated connections: one lane per query processor, so a slow
            # link delays fragments without congesting its neighbours.
            self._link = Interconnect(
                machine.env,
                bandwidth_mb_per_s=cfg.link_bandwidth_mb_s,
                channels=machine.config.n_query_processors,
                name="qp-lp-link",
            )
            self._link.faults = faults
        self.checkpoints_taken = 0
        if cfg.checkpoint_interval_ms is not None:
            machine.env.process(
                sim_checkpointer(machine.env, self, cfg.checkpoint_interval_ms),
                name="checkpointer",
            )

    # -- log-processor failure (graceful degradation) ------------------------------
    def alive_mask(self) -> List[bool]:
        return [lp.alive for lp in self.log_processors]

    def fail_log_processor(self, index: int) -> List[LogFragment]:
        """Kill log processor ``index``; its buffered fragments re-ship to
        surviving peers via :meth:`_reship_orphan`.  Returns the orphans.

        The membership-change half of failover — forcing the survivors so
        re-shipped fragments become durable promptly — runs immediately
        when no health monitor is attached, or at the monitor's detection
        instant when one is.
        """
        machine = self.machine
        already_dead = not self.log_processors[index].alive
        orphans = self.log_processors[index].fail()
        if machine is not None and not already_dead:
            machine._tinstant("component.fail", kind="lp", index=index)
            if machine.health is None:
                self.failover_log_processor(index)
        return orphans

    def failover_log_processor(self, index: int) -> None:
        """Surviving log processors take over the dead one's stream.

        The orphaned fragments were already re-shipped by the
        :meth:`_reship_orphan` callback; what membership change adds is a
        force on every survivor, so transactions whose commits were gated
        on the dead processor see their re-homed fragments durable within
        a bounded window — the paper's no-merge property holds because
        each fragment lives wholly on whichever log it landed on.
        """
        machine = self.machine
        machine.fault_hook("machine.failover.lp")
        machine._tinstant("failover.lp", index=index)
        for lp in self.log_processors:
            if lp.alive:
                lp.force()

    def _pick_alive(self, tid: int) -> int:
        """Deterministic fallback selection among surviving log processors."""
        candidates = [lp.index for lp in self.log_processors if lp.alive]
        if not candidates:
            raise NoLiveLogProcessor("all log processors are dead")
        return candidates[tid % len(candidates)]

    def _reship_orphan(self, fragment: LogFragment) -> None:
        """Route an orphaned fragment to a surviving log processor.

        The owning transaction may already be inside commit processing,
        waiting on ``fragment.durable`` — so after re-delivery the new log
        processor is forced immediately, bounding the extra commit latency
        to one shipping hop plus one forced log write.
        """
        self.fragments_reshipped.increment()
        self.machine.env.process(
            self._reship(fragment), name=f"reship.t{fragment.tid}.p{fragment.page}"
        )

    def _reship(self, fragment: LogFragment):
        yield from self._ship_attempts(fragment, self._pick_alive(fragment.tid))
        self.log_processors[fragment.lp_index].force()

    # -- CPU overhead -------------------------------------------------------------
    def _fragment_mode(self, tid: int) -> LogMode:
        """Record mode for one transaction's fragments.

        The base architecture logs every transaction in the configured
        mode; subclasses (adaptive command logging) override this to
        switch individual transactions between logical and physical
        records.
        """
        return self.config_log.mode

    def page_cpu_ms(self, txn, page, is_update: bool) -> float:
        cost = self.machine.config.cost
        cpu = self.machine.config.cpu
        ms = super().page_cpu_ms(txn, page, is_update)
        if is_update:
            if self._fragment_mode(txn.tid) is LogMode.LOGICAL:
                ms += cpu.ms(cost.build_log_fragment)
            else:
                ms += cpu.ms(2 * cost.copy_page_image)
            if self.config_log.routing is FragmentRouting.CACHE:
                ms += cpu.ms(CACHE_ROUTE_CPU_INSTRUCTIONS)
        return ms

    # -- fragment shipping -----------------------------------------------------------
    def on_page_updated(self, txn, page, qp_index: int):
        """Pick a log processor and ship the fragment *asynchronously*.

        The query processor hands the fragment to the link (or drops it in
        the cache) and moves on — it does not wait out the wire time, which
        is why the paper finds the machine insensitive to link bandwidth:
        the delay is absorbed in the fragment inter-arrival gap.
        """
        cfg = self.config_log
        machine = self.machine
        fragment = LogFragment(machine.env, txn.tid, page)
        lp_index = select_log_processor(
            cfg.selection,
            cfg.n_log_processors,
            qp_index,
            txn,
            self._selector_state,
            self._rng,
            alive=self.alive_mask(),
        )
        self._fragments_of(txn)[page] = fragment
        if machine.monitor is not None:
            machine.monitor.protect("wal", page, fragment)
        machine.env.process(
            self._ship(txn, fragment, lp_index),
            name=f"frag.t{txn.tid}.p{page}",
        )
        return
        yield  # pragma: no cover - hook stays a generator

    def _ship(self, txn, fragment: LogFragment, lp_index: int):
        span = self.machine._tspan(
            "log.ship", tid=txn.tid, page=fragment.page, lp=lp_index
        )
        yield from self._ship_attempts(fragment, lp_index)
        self.machine._tend(span, lp=fragment.lp_index)
        # Record the processor that actually took delivery (it can differ
        # from the selected one if that one died mid-flight): commit and
        # abort force exactly the processors holding this transaction's
        # fragments.
        txn.recovery_state.setdefault("log_processors", set()).add(fragment.lp_index)

    def _ship_attempts(self, fragment: LogFragment, lp_index: int):
        """Deliver ``fragment``, retrying with bounded backoff.

        Each attempt re-checks that the target log processor is still alive
        (it may die while the fragment is on the wire) and re-selects among
        the survivors; link loss is absorbed by the interconnect's own
        bounded retransmission.  After ``MAX_SHIP_ATTEMPTS`` tries the
        machine gives up and the failure surfaces from ``run()``.
        """
        cfg = self.config_log
        machine = self.machine
        payload = (
            cfg.fragment_bytes
            if self._fragment_mode(fragment.tid) is LogMode.LOGICAL
            else 2 * LOG_DISK.page_size
        )
        last_error: Optional[Exception] = None
        for attempt in range(MAX_SHIP_ATTEMPTS):
            if attempt:
                self.ship_retries.increment()
                yield machine.env.timeout(SHIP_RETRY_BACKOFF_MS * attempt)
                lp_index = self._pick_alive(fragment.tid)
            lp = self.log_processors[lp_index]
            if not lp.alive:
                continue
            if cfg.routing is FragmentRouting.LINK:
                try:
                    yield self._link.reliable_transfer(payload)
                except MessageLost as lost:
                    last_error = lost
                    continue
            else:
                # Through the disk cache: a frame holds the in-transit
                # fragment for the duration of the two cache operations.
                yield machine.cache.acquire(1)
                yield machine.env.timeout(
                    machine.config.cpu.ms(CACHE_ROUTE_CPU_INSTRUCTIONS)
                )
                machine.cache.release(1)
            if not lp.alive:
                # Died while the fragment was in transit; next attempt
                # re-selects a survivor.
                continue
            if self._fragment_mode(fragment.tid) is LogMode.LOGICAL:
                lp.deliver(fragment)
            else:
                lp.deliver_physical(fragment)
            if not fragment.delivered.triggered:
                fragment.delivered.succeed()
            return
        raise last_error or NoLiveLogProcessor(
            f"fragment t{fragment.tid}.p{fragment.page} undeliverable "
            f"after {MAX_SHIP_ATTEMPTS} attempts"
        )

    def _fragments_of(self, txn) -> Dict[int, LogFragment]:
        return self.machine.runtime(txn).scratch.setdefault("fragments", {})

    # -- parallel checkpointing (Section 3.1 / ref [13]) ---------------------------
    def take_checkpoint(self):
        """One fuzzy checkpoint: force partial log pages and write one
        checkpoint page per log disk — fully overlapped with processing."""
        span = self.machine._tspan("checkpoint", kind="fuzzy")
        writes = []
        for lp in self.log_processors:
            if not lp.alive:
                continue
            lp.force()
            writes.append(lp.write_checkpoint_page())
        yield self.machine.env.all_of(writes)
        self.checkpoints_taken += 1
        self.machine._tend(span)

    # -- durability -----------------------------------------------------------------
    def writeback(self, txn, page):
        """WAL: the data page may only go home after its fragment is durable."""
        machine = self.machine
        fragment = self._fragments_of(txn)[page]
        if not fragment.durable.triggered:
            span = machine._tspan("wal.wait", tid=txn.tid, page=page)
            machine.cache.mark_blocked(1)
            yield fragment.durable
            machine.cache.unmark_blocked(1)
            machine._tend(span)
        disk_idx, addr = self.write_address(txn, page)
        if machine.monitor is not None:
            machine.monitor.check("wal", page)
        request = machine.data_disks[disk_idx].write([addr], tag="writeback")
        yield request.done
        machine.note_page_written(txn, page=page)
        machine.cache.release(1)

    def on_commit(self, txn):
        """Force every involved log processor, then drain the write-backs.

        Fragments still in flight on the interconnect must land first, or
        the force would miss them.
        """
        fragments = self._fragments_of(txn)
        in_flight = [
            fragment.delivered
            for fragment in fragments.values()
            if not fragment.delivered.triggered
        ]
        if in_flight:
            yield self.machine.env.all_of(in_flight)
        for lp_index in sorted(txn.recovery_state.get("log_processors", ())):
            if not self.log_processors[lp_index].alive:
                # A dead processor has nothing left to force: its buffered
                # fragments were orphaned and re-shipped (and re-forced) on
                # a survivor, whose durable event gates us below.
                continue
            self.log_processors[lp_index].force()
        pending = [
            fragment.durable
            for fragment in fragments.values()
            if not fragment.durable.triggered
        ]
        if pending:
            yield self.machine.env.all_of(pending)
        yield from self.machine.wait_writebacks(txn)

    def on_abort(self, txn):
        """Unblock the aborted transaction's write-backs.

        Its updated pages are gated on WAL fragments; forcing the involved
        log processors lets them drain (the fragments themselves are
        harmless — restart treats the transaction as uncommitted).
        """
        fragments = self._fragments_of(txn)
        in_flight = [
            fragment.delivered
            for fragment in fragments.values()
            if not fragment.delivered.triggered
        ]
        if in_flight:
            yield self.machine.env.all_of(in_flight)
        for lp_index in sorted(txn.recovery_state.get("log_processors", ())):
            if self.log_processors[lp_index].alive:
                self.log_processors[lp_index].force()

    # -- reporting -----------------------------------------------------------------
    def extra_utilizations(self, t_end: float) -> Dict[str, float]:
        out = {}
        for lp in self.log_processors:
            out[f"{lp.disk.name}"] = lp.disk.utilization(t_end)
        if self.log_processors:
            out["log_disks"] = sum(
                lp.disk.utilization(t_end) for lp in self.log_processors
            ) / len(self.log_processors)
        if self._link is not None:
            out["qp_lp_link"] = self._link.busy.utilization(t_end)
        return out

    def extra_counters(self) -> Dict[str, int]:
        return {
            "log_pages_written": sum(
                lp.log_pages_written.count for lp in self.log_processors
            ),
            "log_fragments": sum(
                lp.fragments_received.count for lp in self.log_processors
            ),
            "log_forces": sum(lp.forced_writes.count for lp in self.log_processors),
            "log_fragments_orphaned": sum(
                lp.fragments_orphaned.count for lp in self.log_processors
            ),
            "log_fragments_reshipped": self.fragments_reshipped.count,
            "log_ship_retries": self.ship_retries.count,
        }

    def extra_averages(self, t_end: float) -> Dict[str, float]:
        waits = [lp.fragment_wait_ms for lp in self.log_processors]
        n = sum(w.n for w in waits)
        mean = sum(w.mean * w.n for w in waits) / n if n else 0.0
        return {"fragment_wait_ms": mean}

    def describe(self) -> str:
        cfg = self.config_log
        return (
            f"logging[{cfg.mode.value}, {cfg.n_log_processors} lp, "
            f"{cfg.selection.value}, {cfg.routing.value}]"
        )
