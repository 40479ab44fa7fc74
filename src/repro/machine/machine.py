"""The database machine: back-end controller, pipelines, and the run loop.

One :class:`DatabaseMachine` instance owns a simulation environment, the
hardware (data disks, cache, query-processor pool), the page-level-locking
scheduler, and a recovery architecture.  ``run(transactions)`` executes a
transaction load to completion and returns a :class:`~repro.metrics.RunResult`.

Execution model (paper Sections 2 and 4):

* the back-end controller admits up to ``mpl`` transactions concurrently;
* each transaction's reference string is pipelined through a read-ahead
  window: lock -> (architecture indirection) -> cache frame -> disk read ->
  query processor -> optional update -> write-back;
* write-backs run detached; the recovery architecture owns the durability
  path (WAL barriers, scratch writes, ...);
* transaction completion time runs from the first cache-frame allocation to
  the last updated page reaching disk, exactly the paper's metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import AuxRead, DataPage, RecoveryArchitecture
from repro.hardware.disk import Disk, DiskAddress, make_disk, split_by_cylinder
from repro.hardware.mirror import MirroredDisk
from repro.hardware.placement import ClusteredPlacement, Placement
from repro.machine.admission import ADMITTED, AdmissionQueue
from repro.machine.cache import DiskCache
from repro.machine.config import MachineConfig
from repro.machine.locks import DeadlockAbort, LockManager, LockMode
from repro.machine.processors import ProcessorFailure, ProcessorPool
from repro.metrics.collectors import RunResult
from repro.sim.core import Environment, Event, Process
from repro.sim.monitor import CounterStat, OrderingMonitor, SampleStat
from repro.sim.resources import Container, Resource
from repro.sim.rng import RandomStreams
from repro.workload.transaction import Transaction, TransactionStatus

__all__ = ["DatabaseMachine"]

#: Delay before a deadlock victim restarts, in ms.
RESTART_BACKOFF_MS = 50.0


class _TxnRuntime:
    """Per-attempt bookkeeping the machine and architectures share."""

    __slots__ = ("aborted", "abort_cause", "writebacks", "started", "scratch")

    def __init__(self) -> None:
        self.aborted = False
        #: Why the attempt aborted (a DeadlockAbort, a ProcessorFailure, ...).
        self.abort_cause: Optional[Exception] = None
        self.writebacks: List[Process] = []
        self.started = False
        #: Free-form per-attempt state for the recovery architecture.
        self.scratch: dict = {}


class DatabaseMachine:
    """A multiprocessor-cache database machine with pluggable recovery."""

    def __init__(
        self,
        config: MachineConfig,
        architecture: Optional[RecoveryArchitecture] = None,
        placement: Optional[Placement] = None,
        monitor: Optional[OrderingMonitor] = None,
        faults=None,
        tracer=None,
    ):
        self.config = config
        #: Optional :class:`repro.trace.Tracer` (duck-typed: the machine
        #: calls only ``begin``/``end``/``instant``, each behind an
        #: ``is not None`` test — never a truthiness test, since an empty
        #: tracer has length 0).
        self.tracer = tracer
        #: Optional runtime checker of the ordering rules: write-backs
        #: after their recovery data, installs after their versions
        #: (see sim.monitor.OrderingMonitor).
        self.monitor = monitor
        #: Optional :class:`repro.faults.FaultInjector` (duck-typed: the
        #: machine only calls ``poll``; disks/links use their own
        #: predicates).  Wired into the data disks here and into the
        #: architecture's private hardware during ``attach``.
        self.faults = faults
        self.env = Environment()
        # Bind the tracer to this machine's clock; disks and interconnects
        # pick it up from the environment.
        if tracer is not None:
            tracer.env = self.env
        self.env.tracer = tracer
        self.streams = RandomStreams(config.seed)
        self.placement = placement or ClusteredPlacement(
            config.disk, config.n_data_disks, config.db_pages
        )
        if config.mirrored_data_disks:
            # Mirror pairs draw from their own named streams (derived
            # independently of ``disk.data{i}``), so flipping mirroring on
            # never perturbs an unmirrored run with the same seed.
            self.data_disks: List[Disk] = [
                MirroredDisk(
                    self.env,
                    config.disk,
                    streams=self.streams,
                    parallel=config.parallel_data_disks,
                    name=f"data{i}",
                    scheduling=config.disk_scheduling,
                )
                for i in range(config.n_data_disks)
            ]
        else:
            self.data_disks = [
                make_disk(
                    self.env,
                    config.disk,
                    parallel=config.parallel_data_disks,
                    name=f"data{i}",
                    rng=self.streams.stream(f"disk.data{i}"),
                    scheduling=config.disk_scheduling,
                )
                for i in range(config.n_data_disks)
            ]
        self.cache = DiskCache(self.env, config.cache_frames)
        self.qps = ProcessorPool(
            self.env, config.n_query_processors, config.cpu, name="qp"
        )
        self.locks = LockManager(self.env)
        self.pages_read = CounterStat("pages_read")
        self.pages_written = CounterStat("pages_written")
        self.qp_failures = CounterStat("qp_failures")
        self.completions = SampleStat("completion_ms", keep=True)
        self._runtimes: Dict[int, _TxnRuntime] = {}
        self._restarts = 0
        #: QP index -> (transaction, runtime) currently executing there,
        #: so a processor failure knows which transaction to fail over.
        self._qp_holders: Dict[int, Tuple[Transaction, _TxnRuntime]] = {}
        #: Optional duck-typed health monitor (repro.resilience attaches
        #: itself here); with one attached, component failover waits for
        #: the monitor's detection instead of firing instantly.
        self.health = None
        #: Optional duck-typed integrity scrubber (repro.resilience
        #: attaches itself here when ``config.scrub_enabled``); its
        #: ``extra_counters()`` are folded into the run result.
        self.scrubber = None
        #: Bounded admission queue; built by :meth:`run_open` only, so the
        #: closed-batch path never touches the overload-protection code.
        self.admission: Optional[AdmissionQueue] = None
        #: Fires when an injected whole-machine crash halts the run.
        self._crash_event: Event = self.env.event()
        self.crashed = False
        self.crash_reason: Optional[str] = None
        if faults is not None:
            for disk in self.data_disks:
                disk.faults = faults
        self.arch = architecture if architecture is not None else RecoveryArchitecture()
        self.arch.attach(self)

    # ------------------------------------------------------------------ tracing
    def _tspan(self, name: str, parent=None, tid: Optional[int] = None, **args):
        """Open a trace span, or return None when tracing is disabled.

        Recording is a synchronous append — no simulation events, no RNG
        draws — so a traced run's event calendar is identical to an
        untraced one (the zero-perturbation acceptance criterion).
        """
        if self.tracer is None:
            return None
        # The forwarding site itself; callers pass catalogue literals.
        return self.tracer.begin(name, parent, tid, **args)  # reprolint: disable-line=TRACE01

    def _tend(self, span, **args) -> None:
        if span is not None:
            self.tracer.end(span, **args)

    def _tinstant(self, name: str, tid: Optional[int] = None, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, tid=tid, **args)  # reprolint: disable-line=TRACE01

    # ------------------------------------------------------------------ helpers
    def locate(self, page: int) -> Tuple[int, DiskAddress]:
        """Home disk and address of logical ``page`` under the placement."""
        return self.placement.locate(page)

    def runtime(self, txn: Transaction) -> _TxnRuntime:
        """The per-attempt runtime record for ``txn``."""
        return self._runtimes[txn.tid]

    def note_page_written(
        self, txn: Transaction, n: int = 1, page: Optional[int] = None
    ) -> None:
        """Record that ``n`` updated pages of ``txn`` reached the disk.

        Architectures that install versions (shadow paging) pass ``page``
        so the monitor learns the version became durable.
        """
        self.pages_written.increment(n)
        txn.last_durable_write = self.env.now
        if page is not None and self.monitor is not None:
            self.monitor.durable("install", (txn.tid, page))
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("page.durable", tid=txn.tid, pages=n)
        self.fault_hook("machine.writeback")

    def wait_writebacks(self, txn: Transaction):
        """Generator: wait for every outstanding write-back of ``txn``."""
        runtime = self.runtime(txn)
        if runtime.writebacks:
            yield self.env.all_of(runtime.writebacks)

    def spawn_writeback(self, txn: Transaction, page: int, parent=None) -> Process:
        """Start the architecture's durability path for an updated page."""
        if self.monitor is not None:
            self.monitor.protect("install", page, (txn.tid, page))
        proc = self.env.process(
            self._traced_writeback(txn, page, parent), name=f"wb.t{txn.tid}.p{page}"
        )
        self.runtime(txn).writebacks.append(proc)
        return proc

    def _traced_writeback(self, txn: Transaction, page: int, parent=None):
        tracer = self.tracer
        if tracer is not None:
            span = tracer.begin("writeback", parent=parent, tid=txn.tid, page=page)
        try:
            yield from self.arch.writeback(txn, page)
        finally:
            if tracer is not None:
                tracer.end(span)

    def read_batched(self, disk_idx: int, addresses: Sequence[DiskAddress], tag: str):
        """Generator: read ``addresses``, split per cylinder for parallel
        drives (their requests must be single-cylinder)."""
        yield from self._io_batched(disk_idx, "read", addresses, tag)

    def write_batched(self, disk_idx: int, addresses: Sequence[DiskAddress], tag: str):
        """Generator: write ``addresses``, split per cylinder when needed."""
        yield from self._io_batched(disk_idx, "write", addresses, tag)

    def _io_batched(self, disk_idx, kind, addresses, tag):
        disk = self.data_disks[disk_idx]
        if disk.parallel_access:
            groups = split_by_cylinder(addresses)
        else:
            groups = [list(addresses)]
        requests = [disk.submit(kind, group, tag) for group in groups]
        yield self.env.all_of([r.done for r in requests])

    # ------------------------------------------------------------------ faults
    def trigger_crash(self, reason: str) -> None:
        """A whole-machine crash: the run loop stops at the current instant.

        Volatile state (cache contents, unforced log pages, monitor
        bookkeeping) is gone; what survives is whatever already reached
        the disks — exactly the state a recovery pass starts from.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_reason = reason
        if self.monitor is not None:
            self.monitor.reset()
        self._tinstant("machine.crash", reason=reason)
        if not self._crash_event.triggered:
            self._crash_event.succeed(reason)

    def fault_hook(self, name: str) -> None:
        """A simulation-layer fault point: crash here if the plan says so."""
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("fault.point", hook=name)
        if self.faults is not None and not self.crashed and self.faults.poll(name):
            self.trigger_crash(name)

    # ------------------------------------------------------------------ failover
    def fail_query_processor(self, index: int) -> None:
        """Query processor ``index`` dies permanently (fail-stop).

        The pool stops dispatching to it at once (the hardware is gone);
        the *failover* — aborting whatever transaction was caught on it —
        runs immediately when no health monitor is attached, or at the
        monitor's detection instant when one is (bounding the window in
        which the victim's pipeline keeps waiting on a dead processor).
        """
        self.qps.fail(index)
        self.qp_failures.increment()
        self._tinstant("component.fail", kind="qp", index=index)
        if self.health is None:
            self.failover_query_processor(index)

    def failover_query_processor(self, index: int) -> None:
        """Abort, via the normal undo path, the transaction running on a
        dead query processor; surviving processors absorb its restart."""
        self.fault_hook("machine.failover.qp")
        holder = self._qp_holders.get(index)
        if holder is None:
            return
        txn, runtime = holder
        if not runtime.aborted:
            runtime.aborted = True
            runtime.abort_cause = ProcessorFailure(txn.tid, index)
            self._tinstant("failover.qp", tid=txn.tid, index=index)

    def repair_query_processor(self, index: int) -> None:
        """A repaired or replacement processor rejoins the pool."""
        self.qps.repair(index)

    def fail_data_disk(self, index: int) -> None:
        """Permanent media failure of data disk ``index``.

        On a mirrored machine this kills one physical side and the mirror
        keeps serving off its twin; on an unmirrored machine every later
        request errors out — only an archive restore helps (the functional
        layer's ``recover_from_media_failure``).
        """
        self._tinstant("component.fail", kind="disk", index=index)
        self.data_disks[index].fail()

    def attach_disk_replacement(self, index: int) -> None:
        """A replacement drive arrives for mirrored disk ``index``; the
        background rebuild starts at the configured I/O share."""
        disk = self.data_disks[index]
        attach = getattr(disk, "attach_replacement", None)
        if attach is None:
            raise ValueError(
                f"data disk {index} is not mirrored; nothing to rebuild "
                "a replacement from"
            )
        self.fault_hook("machine.rebuild.start")
        attach()

    # ------------------------------------------------------------------ running
    def run(self, transactions: Sequence[Transaction]) -> RunResult:
        """Execute the load to completion and collect the paper's metrics.

        With a fault injector armed the run also ends at an injected
        whole-machine crash; the result then carries ``crashed_at`` in its
        ``extras`` and reflects only the work finished before the crash.
        """
        if not transactions:
            raise ValueError("empty transaction load")
        done = self.env.process(self._driver(transactions), name="driver")
        if self.faults is not None:
            self.env.run(until=self.env.any_of([done, self._crash_event]))
        else:
            self.env.run(until=done)
        return self._collect(transactions)

    def run_open(
        self,
        transactions: Sequence[Transaction],
        arrival_times_ms: Sequence[float],
        spike_times_ms: Sequence[float] = (),
    ) -> RunResult:
        """Open-system run: one client per transaction, arriving on schedule.

        Each offered transaction arrives at its scheduled instant and runs
        the admission protocol (:mod:`repro.machine.admission`): it ends
        **admitted** (and then always executes to commit), **rejected**,
        or **shed**.  Admitted transactions wait in the bounded admission
        queue for a multiprogramming slot; backpressure turns arrivals
        away while the lock table or cache is saturated.  The accounting
        counters land in ``RunResult.counters`` (``admission_*``).

        ``spike_times_ms`` marks scripted load-spike starts with
        ``arrival.spike`` trace instants (schedule generation itself lives
        in :mod:`repro.loadgen`).
        """
        if not transactions:
            raise ValueError("empty transaction load")
        if len(arrival_times_ms) != len(transactions):
            raise ValueError(
                f"{len(transactions)} transactions but "
                f"{len(arrival_times_ms)} arrival times"
            )
        self.admission = AdmissionQueue(self)
        done = self.env.process(
            self._open_driver(transactions, arrival_times_ms, spike_times_ms),
            name="open-driver",
        )
        if self.faults is not None:
            self.env.run(until=self.env.any_of([done, self._crash_event]))
        else:
            self.env.run(until=done)
        return self._collect(transactions)

    def _open_driver(self, transactions, arrival_times_ms, spike_times_ms):
        mpl = Resource(self.env, capacity=self.config.mpl)
        if self.tracer is not None:
            for at in spike_times_ms:
                self.env.process(self._spike_marker(at), name="spike")
        clients = [
            self.env.process(
                self._open_client(txn, at, mpl), name=f"client{txn.tid}"
            )
            for txn, at in zip(transactions, arrival_times_ms)
        ]
        yield self.env.all_of(clients)

    def _spike_marker(self, at_ms: float):
        yield self.env.timeout(max(0.0, at_ms - self.env.now))
        self._tinstant("arrival.spike", at=at_ms)

    def _open_client(self, txn: Transaction, arrival_ms: float, mpl: Resource):
        """One open-system client: arrive, seek admission, execute."""
        if arrival_ms > self.env.now:
            yield self.env.timeout(arrival_ms - self.env.now)
        disposition = yield from self.admission.admit(txn, arrival_ms)
        if disposition is not ADMITTED:
            return
        grant = mpl.request()
        yield grant
        # The multiprogramming slot is granted: the transaction leaves the
        # admission queue, freeing a slot for the next arrival.
        self.admission.start()
        yield from self._run_transaction(txn, mpl, grant)
        self.admission.note_completion()

    def _driver(self, transactions: Sequence[Transaction]):
        mpl = Resource(self.env, capacity=self.config.mpl)
        running = []
        for txn in transactions:
            grant = mpl.request()
            yield grant
            proc = self.env.process(
                self._run_transaction(txn, mpl, grant), name=f"txn{txn.tid}"
            )
            running.append(proc)
        if running:
            yield self.env.all_of(running)

    def _run_transaction(self, txn: Transaction, mpl: Resource, grant) -> None:
        try:
            while True:
                self._runtimes[txn.tid] = _TxnRuntime()
                completed = yield from self._attempt(txn)
                if completed:
                    break
                txn.restarts += 1
                self._restarts += 1
                backoff = self._tspan("restart.wait", tid=txn.tid, restarts=txn.restarts)
                yield self.env.timeout(RESTART_BACKOFF_MS * txn.restarts)
                self._tend(backoff)
        finally:
            mpl.release(grant)

    def _attempt(self, txn: Transaction):
        """One execution attempt; returns True on commit, False on abort."""
        env = self.env
        runtime = self.runtime(txn)
        txn.status = TransactionStatus.ACTIVE
        tspan = self._tspan("txn", tid=txn.tid, attempt=txn.restarts + 1)
        yield from self.arch.on_begin(txn)

        window = Container(
            env, capacity=self.config.prefetch_window, init=self.config.prefetch_window
        )
        pipelines: List[Process] = []
        for item in self.arch.read_sequence(txn):
            yield window.get(1)
            if runtime.aborted:
                window.release(1)
                break
            if isinstance(item, DataPage):
                pipeline = self._data_page_pipeline(txn, runtime, item.page, window, tspan)
            elif isinstance(item, AuxRead):
                pipeline = self._aux_read_pipeline(txn, runtime, item, window, tspan)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown work item {item!r}")
            pipelines.append(env.process(pipeline, name=f"pipe.t{txn.tid}"))
        if pipelines:
            yield env.all_of(pipelines)

        if runtime.aborted:
            # The architecture's abort hook runs first: it must unblock any
            # write-backs gated on recovery data (e.g. force the log pages
            # holding this transaction's fragments).
            aspan = self._tspan("abort", parent=tspan)
            yield from self.arch.on_abort(txn)
            yield from self.wait_writebacks(txn)
            self._tend(aspan)
            self.locks.release_all(txn.tid)
            txn.status = TransactionStatus.ABORTED
            self._tend(tspan, status="aborted")
            txn.reset_runtime()
            return False

        self.fault_hook("machine.commit")
        cspan = self._tspan("commit", parent=tspan)
        yield from self.arch.on_commit(txn)
        self._tend(cspan)
        self.locks.release_all(txn.tid)
        txn.status = TransactionStatus.COMMITTED
        if txn.write_pages and txn.last_durable_write is not None:
            txn.finish_time = txn.last_durable_write
        else:
            txn.finish_time = env.now
        if txn.start_time is not None:
            self.completions.add(txn.finish_time - txn.start_time)
            self._tend(
                tspan,
                status="committed",
                window_start=txn.start_time,
                window_end=txn.finish_time,
            )
        else:
            self._tend(tspan, status="committed")
        return True

    # ------------------------------------------------------------------ pipelines
    # Each pipeline holds one prefetch-window slot and returns it in its own
    # ``finally``: the window is released after everything else the
    # pipeline does, on every path.
    def _data_page_pipeline(self, txn, runtime, page: int, window: Container, tspan=None):
        env = self.env
        # Span sites test ``tracer is not None`` inline: an untraced run
        # pays one comparison per site and builds no span arguments.
        tracer = self.tracer
        tid = txn.tid
        is_update = page in txn.write_pages
        mode = LockMode.X if is_update else LockMode.S
        try:
            if tracer is not None:
                lspan = tracer.begin("lock.wait", parent=tspan, tid=tid, page=page)
            try:
                yield self.locks.acquire(tid, page, mode)
            except DeadlockAbort as abort:
                if tracer is not None:
                    tracer.end(lspan, outcome="deadlock")
                runtime.aborted = True
                runtime.abort_cause = abort
                return
            if tracer is not None:
                tracer.end(lspan, outcome="granted")
            if runtime.aborted:
                return
            if tracer is not None:
                ispan = tracer.begin("indirection", parent=tspan, tid=tid, page=page)
            yield from self.arch.before_page_read(txn, page)
            if tracer is not None:
                tracer.end(ispan)
            if runtime.aborted:
                return
            if tracer is not None:
                fspan = tracer.begin("cache.wait", parent=tspan, tid=tid, frames=1)
            yield self.cache.acquire(1)
            if not runtime.started:
                runtime.started = True
                txn.start_time = env.now
            disk_idx, addresses = self.arch.read_addresses(txn, page)
            if tracer is not None:
                tracer.end(fspan)
                rspan = tracer.begin("io.data.read", parent=tspan, tid=tid, page=page)
            yield self.data_disks[disk_idx].read(addresses, tag="data").done
            if tracer is not None:
                tracer.end(rspan)
            self.pages_read.increment()
            self.fault_hook("machine.page-read")
            if runtime.aborted:
                self.cache.release(1)
                return
            if tracer is not None:
                qspan = tracer.begin("qp.wait", parent=tspan, tid=tid)
            qp_index, grant = yield from self.qps.acquire()
            if tracer is not None:
                tracer.end(qspan)
                xspan = tracer.begin(
                    "qp.exec", parent=tspan, tid=tid, page=page, update=is_update
                )
            self._qp_holders[qp_index] = (txn, runtime)
            try:
                yield env.timeout(self.arch.page_cpu_ms(txn, page, is_update))
                if is_update and not runtime.aborted:
                    yield from self.arch.on_page_updated(txn, page, qp_index)
            finally:
                self._qp_holders.pop(qp_index, None)
                self.qps.release(qp_index, grant)
                if tracer is not None:
                    tracer.end(xspan)
            if is_update and not runtime.aborted:
                self.spawn_writeback(txn, page, parent=tspan)
            else:
                self.cache.release(1)
        finally:
            window.release(1)

    def _aux_read_pipeline(self, txn, runtime, item: AuxRead, window: Container, tspan=None):
        tracer = self.tracer
        tid = txn.tid
        n_frames = len(item.addresses)
        try:
            if tracer is not None:
                fspan = tracer.begin("cache.wait", parent=tspan, tid=tid, frames=n_frames)
            yield self.cache.acquire(n_frames)
            if not runtime.started:
                runtime.started = True
                txn.start_time = self.env.now
            if tracer is not None:
                tracer.end(fspan)
                rspan = tracer.begin(
                    "io.aux.read", parent=tspan, tid=tid, tag=item.tag, pages=n_frames
                )
            yield from self.read_batched(item.disk_idx, item.addresses, item.tag)
            if tracer is not None:
                tracer.end(rspan)
            if item.cpu_ms > 0 and not runtime.aborted:
                if tracer is not None:
                    xspan = tracer.begin("qp.exec", parent=tspan, tid=tid, cpu_ms=item.cpu_ms)
                yield from self.qps.execute_ms(item.cpu_ms)
                if tracer is not None:
                    tracer.end(xspan)
            self.cache.release(n_frames)
        finally:
            window.release(1)

    # ------------------------------------------------------------------ results
    def _collect(self, transactions: Sequence[Transaction]) -> RunResult:
        t_end = self.env.now
        pages_processed = sum(t.pages_processed for t in transactions)
        utilizations = {"qp": self.qps.utilization(t_end)}
        counters = {
            "data_disk_accesses": 0,
            "data_pages_read": self.pages_read.count,
            "data_pages_written": self.pages_written.count,
            "lock_blocks": self.locks.blocks.count,
            "lock_deadlocks": self.locks.deadlocks.count,
        }
        for disk in self.data_disks:
            utilizations[disk.name] = disk.utilization(t_end)
            counters["data_disk_accesses"] += disk.accesses.count
            mirror_counters = getattr(disk, "extra_counters", None)
            if mirror_counters is not None:
                for key, value in mirror_counters().items():
                    counters[key] = counters.get(key, 0) + value
        if self.qp_failures.count:
            counters["qp_failures"] = self.qp_failures.count
        if self.scrubber is not None:
            counters.update(self.scrubber.extra_counters())
        if self.data_disks:
            utilizations["data_disks"] = sum(
                d.utilization(t_end) for d in self.data_disks
            ) / len(self.data_disks)
        averages = {
            "blocked_pages": self.cache.mean_blocked(t_end),
            "free_frames": self.cache.mean_free(t_end),
        }
        utilizations.update(self.arch.extra_utilizations(t_end))
        counters.update(self.arch.extra_counters())
        averages.update(self.arch.extra_averages(t_end))
        if self.admission is not None:
            self.admission.backpressure.finish()
            counters.update(self.admission.counters())
        extras: Dict[str, float] = {}
        if self.admission is not None:
            extras["backpressure_ms"] = self.admission.backpressure.asserted_ms
        if self.crashed:
            extras["crashed_at"] = t_end
        percentiles = {
            f"p{q:g}": self.completions.percentile(q) for q in (50.0, 95.0, 99.0)
        }
        return RunResult(
            architecture=self.arch.describe(),
            makespan_ms=t_end,
            pages_processed=pages_processed,
            mean_completion_ms=self.completions.mean,
            max_completion_ms=self.completions.max,
            n_transactions=len(transactions),
            n_restarts=self._restarts,
            utilizations=utilizations,
            counters=counters,
            averages=averages,
            extras=extras,
            completion_percentiles=percentiles,
        )
