"""Property-based tests for the discrete-event kernel.

The kernel is the foundation of every result in this repository; these
properties pin down the guarantees the models rely on: monotonic time,
deterministic tie-breaking, FIFO resources, and conservation in containers.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Environment, Event, Resource, SimulationError
from repro.sim.resources import ContainerGet


@settings(max_examples=60)
@given(delays=st.lists(st.floats(min_value=0, max_value=1000), max_size=30))
def test_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=60)
@given(delays=st.lists(st.floats(min_value=0, max_value=100), max_size=20))
def test_clock_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def ticker(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(ticker(env, delay))
    last = -1.0
    while env.peek() != float("inf"):
        env.step()
        assert env.now >= last
        last = env.now


@settings(max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=15),
)
def test_same_program_same_trace(seed, n):
    """Determinism: running the identical program twice gives the identical
    event trace (the property the experiments' comparability rests on)."""
    import random

    def run():
        rng = random.Random(seed)
        env = Environment()
        trace = []

        def worker(env, name):
            for _ in range(3):
                yield env.timeout(rng.random() * 10)
                trace.append((env.now, name))

        for i in range(n):
            env.process(worker(env, i))
        env.run()
        return trace

    assert run() == run()


@settings(max_examples=40)
@given(holds=st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=15))
def test_unit_resource_is_fifo_and_work_conserving(holds):
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def worker(env, index, hold):
        with resource.request() as grant:
            yield grant
            order.append(index)
            yield env.timeout(hold)

    for index, hold in enumerate(holds):
        env.process(worker(env, index, hold))
    env.run()
    assert order == list(range(len(holds)))  # FIFO
    assert env.now == sum(holds)  # no idle gaps with a full queue


@settings(max_examples=40)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(st.floats(min_value=0.1, max_value=5), min_size=1, max_size=20),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    peak = [0]

    def worker(env, hold):
        with resource.request() as grant:
            yield grant
            peak[0] = max(peak[0], resource.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(worker(env, hold))
    env.run()
    assert peak[0] <= capacity


@settings(max_examples=40)
@given(
    amounts=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=20)
)
def test_container_conserves_level(amounts):
    env = Environment()
    box = Container(env, capacity=1000, init=100)

    def churn(env, amount):
        yield box.get(amount)
        yield env.timeout(1)
        box.release(amount)

    for amount in amounts:
        env.process(churn(env, amount))
    env.run()
    assert box.level == 100


class _SoupError(Exception):
    """Raised by soup processes; unhandled ones must surface from run()."""


class _HeapOnlyEnvironment(Environment):
    """The calendar before it had lanes, kept as the reference kernel.

    Every entry, due now or later, goes through one heap ordered by
    ``(time, key, event)``.  The key folds the old ``(priority, eid)``
    pair into one number: urgent entries (process starts) carry
    ``eid - 2**62`` and ordinary ones ``eid``, so at equal times urgent
    entries come first and each kind keeps insertion order.  The
    lanes the event classes append to are stand-ins that push onto that
    heap; ``peek``, ``step`` and ``run`` are the heap-only ones.
    """

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._urgent = _HeapLane(self, -(2**62))
        self._normal = _HeapLane(self, 0)

    def peek(self):
        return self._queue[0][0] if self._queue else float("inf")

    def step(self):
        if not self._queue:
            raise SimulationError("step() on empty schedule")
        self.now, _, event = heappop(self._queue)
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        queue = self._queue
        if isinstance(until, Event):
            while not until._processed:
                if not queue:
                    raise SimulationError("schedule ran dry before the awaited event fired")
                self.step()
            if not until._ok:
                raise until._value
            return until._value
        horizon = float("inf") if until is None else float(until)
        if horizon < self.now:
            raise SimulationError(f"until={horizon} lies in the past (now={self.now})")
        while queue and queue[0][0] <= horizon:
            self.step()
        if until is not None:
            self.now = horizon
        return None


class _HeapLane:
    """A lane of the reference kernel: pushes onto its heap at ``now``."""

    def __init__(self, env, offset):
        self.env = env
        self.offset = offset

    def append(self, event):
        env = self.env
        heappush(env._queue, (env.now, env._eid + self.offset, event))


#: Timeout delays.  From a clock at 1e17 (where one ulp is 16) the first
#: four do not move the clock: 1 and 3 are sub-ulp, 8 rounds back to even.
_DELAYS = (0, 1, 3, 8, 16, 40)
_DELAY = st.integers(min_value=0, max_value=len(_DELAYS) - 1)
_SHARED = st.integers(min_value=0, max_value=3)
_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAY),
    st.tuples(st.just("wait"), _SHARED),
    st.tuples(st.just("trigger"), _SHARED, st.booleans(), st.booleans()),
    st.tuples(st.just("spawn"), _DELAY),
    st.tuples(st.just("spawn-on"), _SHARED, _DELAY),
    st.tuples(st.sampled_from(["all", "any"]), _SHARED, _DELAY),
    st.tuples(st.just("raise")),
)
_SOUPS = st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=6)
_UNTIL = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("time"), st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("process"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("shared"), st.integers(min_value=0, max_value=3)),
)
_CLOCKS = st.sampled_from([0.0, 1e17])


def _soup_run(soup, until, drive, kernel=Environment, initial_time=0.0):
    """Build a random process soup, drive it, and return what happened.

    Every processed event the soup yields on is logged as ``(time, label)``
    by a callback, and every process step as ``(time, pid, op)``; the
    outcome is the value ``drive`` returned or the error it raised.
    ``drive(env, target, log)`` may log too.
    """
    env = kernel(initial_time)
    log = []
    shared = [env.event() for _ in range(4)]
    procs = []

    def watch(event, label):
        if event.callbacks is not None:
            event.callbacks.append(lambda _evt: log.append((env.now, label)))
        return event

    for index, event in enumerate(shared):
        watch(event, f"shared{index}")

    def child(delay):
        yield watch(env.timeout(_DELAYS[delay]), "child-timeout")

    def spawn_on(event, delay, label):
        # A process started from a callback, at whatever instant ``event``
        # is processed.
        if event.callbacks is not None:
            event.callbacks.append(lambda _evt: watch(env.process(child(delay)), label))

    def proc(pid, ops):
        for step, op in enumerate(ops):
            log.append((env.now, pid, step))
            try:
                if op[0] == "timeout":
                    yield watch(env.timeout(_DELAYS[op[1]]), f"timeout{pid}")
                elif op[0] == "wait":
                    yield shared[op[1]]
                elif op[0] == "trigger":
                    event = shared[op[1]]
                    if not event.triggered:
                        if op[2]:
                            event.succeed(pid)
                        else:
                            event.fail(_SoupError(f"shared{op[1]}"))
                            if op[3]:
                                event.defuse()
                elif op[0] == "spawn":
                    yield watch(env.process(child(op[1])), f"child{pid}")
                elif op[0] == "spawn-on":
                    spawn_on(shared[op[1]], op[2], f"cb-child{pid}")
                    timer = watch(env.timeout(_DELAYS[op[2]]), f"timer{pid}")
                    spawn_on(timer, op[2], f"timer-child{pid}")
                elif op[0] in ("all", "any"):
                    parts = [shared[op[1]], env.timeout(_DELAYS[op[2]])]
                    condition = env.all_of(parts) if op[0] == "all" else env.any_of(parts)
                    value = yield watch(condition, f"{op[0]}{pid}")
                    log.append((env.now, pid, "got", len(value)))
                else:
                    raise _SoupError(f"proc{pid}")
            except _SoupError as exc:
                if op[0] == "raise":
                    raise
                log.append((env.now, pid, "caught", str(exc)))
        return pid

    for pid, ops in enumerate(soup):
        procs.append(watch(env.process(proc(pid, ops)), f"proc{pid}"))
    if until[0] == "none":
        target = None
    elif until[0] == "time":
        target = env.now + until[1]
    elif until[0] == "process":
        target = procs[until[1] % len(procs)]
    else:
        target = shared[until[1]]
    try:
        outcome = ("ok", drive(env, target, log))
    except (SimulationError, _SoupError) as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return log, outcome, env.now, env.scheduled, env.peek()


def _run(env, until, log):
    return env.run(until=until)


def _stepwise(env, until, log):
    """``Environment.run`` spelled out with the public single-step API
    (the soup never schedules at +inf, so ``peek`` tells an empty calendar)."""
    if until is None:
        while env.peek() != float("inf"):
            env.step()
        return None
    if isinstance(until, Event):
        while not until.processed:
            if env.peek() == float("inf"):
                raise SimulationError("schedule ran dry before the awaited event fired")
            env.step()
        if not until.ok:
            raise until.value
        return until.value
    while env.peek() <= until:
        env.step()
    return env.run(until=until)  # nothing left to process: lands the clock


def _peeking(env, until, log):
    """Step while logging what ``peek`` promised before each step, then
    hand the rest to ``run``."""
    for _ in range(8):
        if env.peek() == float("inf"):
            break
        log.append(("peek", env.peek()))
        env.step()
    if isinstance(until, Event) and until.processed:
        return env.run(until=until)
    if until is not None and not isinstance(until, Event) and until < env.now:
        return None
    return env.run(until=until)


@settings(max_examples=150, deadline=None)
@given(soup=_SOUPS, until=_UNTIL)
def test_run_matches_stepping(soup, until):
    """The inlined loops of ``run`` process exactly what ``step`` would, in
    the same order, and end the same way — dry schedule and unhandled
    failures included."""
    assert _soup_run(soup, until, _run) == _soup_run(soup, until, _stepwise)


@settings(max_examples=300, deadline=None)
@given(
    soup=_SOUPS,
    until=_UNTIL,
    clock=_CLOCKS,
    drive=st.sampled_from([_run, _stepwise, _peeking]),
)
def test_lanes_match_heap_only_calendar(soup, until, clock, drive):
    """The laned calendar processes every entry in the heap-only order,
    counts the same entries and peeks the same times: zero and sub-ulp
    delays, callback-started processes, conditions, failed and defused
    events, and every way of driving the run."""
    assert _soup_run(soup, until, drive, Environment, clock) == _soup_run(
        soup, until, drive, _HeapOnlyEnvironment, clock
    )


class _GeneralPathContainer(Container):
    """Oracle for the container's fast grants: every ``get`` and
    ``release`` goes through a private copy of the general dispatch loop,
    exactly as before ``Container`` learned to grant and release without
    it."""

    def get(self, amount):
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        evt = ContainerGet(self.env, amount)
        self._getters.append(evt)
        self._dispatch()
        return evt

    def release(self, amount):
        if amount <= 0:
            raise SimulationError("release amount must be positive")
        if self._level + amount > self.capacity:
            raise SimulationError("release overflows")
        self._level += amount
        self._dispatch()

    def _dispatch(self):
        progress = True
        while progress:
            progress = False
            if self._getters:
                get = self._getters[0]
                if get.triggered:
                    self._getters.popleft()
                    progress = True
                elif self._level >= get.amount:
                    self._getters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progress = True


_CONTAINER_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["get", "release"]), st.integers(1, 3)),
        # Withdraw the k-th still-pending get (a cancelled waiter's
        # leftover, which dispatch must skip).
        st.tuples(st.just("cancel"), st.integers(0, 5)),
        st.tuples(st.just("step"), st.integers(1, 3)),
    ),
    max_size=40,
)


def _container_script(cls, capacity, init, ops):
    """Replay ``ops`` on a fresh ``cls``; the observable history."""
    env = Environment()
    box = cls(env, capacity=capacity, init=init)
    issued = []
    processed = []
    history = []
    for op, arg in ops:
        outcome = None
        if op == "get":
            evt = box.get(arg)
            evt.callbacks.append(lambda e, i=len(issued): processed.append(i))
            issued.append(evt)
        elif op == "release":
            try:
                box.release(arg)
            except SimulationError:
                outcome = "refused"
        elif op == "cancel":
            pending = [e for e in issued if not e.triggered]
            if pending:
                pending[arg % len(pending)].succeed("cancelled")
        else:
            for _ in range(arg):
                if env.peek() == float("inf"):
                    break
                env.step()
        history.append(
            (outcome, box.level, env.scheduled, [e.triggered for e in issued])
        )
    env.run()
    return history, processed, box.level, env.scheduled


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 6),
    init_share=st.floats(0, 1),
    ops=_CONTAINER_OPS,
)
def test_container_fast_grants_match_general_dispatch(capacity, init_share, ops):
    """``get`` granting at once with nothing queued, and ``release``
    skipping dispatch with no getter waiting, change nothing observable:
    after every operation the level, the calendar count and which events
    have been granted equal the general path's, and the events are
    processed in the same order."""
    init = round(capacity * init_share)
    assert _container_script(Container, capacity, init, ops) == _container_script(
        _GeneralPathContainer, capacity, init, ops
    )
