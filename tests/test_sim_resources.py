"""Unit tests for resources, stores, and containers."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, SimulationError, Store


class TestResource:
    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        env.run()
        assert r1.processed and r2.processed
        assert not r3.triggered
        assert res.count == 2

    def test_release_grants_next_fifo(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, res, name, hold):
            with res.request() as req:
                yield req
                order.append((env.now, name))
                yield env.timeout(hold)

        env.process(worker(env, res, "a", 3))
        env.process(worker(env, res, "b", 2))
        env.process(worker(env, res, "c", 1))
        env.run()
        assert order == [(0, "a"), (3, "b"), (5, "c")]

    def test_context_manager_releases(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def worker(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        env.process(worker(env, res))
        env.run()
        assert res.count == 0

    def test_cancel_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        queued.cancel()
        res.release(held)
        env.run()
        assert not queued.triggered
        assert res.count == 0

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestPriorityResource:
    def test_lower_priority_number_served_first(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def worker(env, res, name, priority):
            with res.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        def submit(env):
            # Occupy, then queue others while held.
            with res.request(priority=0) as req:
                yield req
                order.append("first")
                env.process(worker(env, res, "low", 5))
                env.process(worker(env, res, "high", 1))
                yield env.timeout(1)

        env.process(submit(env))
        env.run()
        assert order == ["first", "high", "low"]

    def test_fifo_within_priority(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        held = res.request(priority=0)
        a = res.request(priority=1)
        b = res.request(priority=1)
        res.release(held)
        env.run()
        assert a.processed and not b.triggered


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            yield store.put("x")
            item = yield store.get()
            return item

        assert env.run(until=env.process(proc(env))) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(4)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(4, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        out = []

        def proc(env):
            for i in range(3):
                yield store.put(i)
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        env.process(proc(env))
        env.run()
        assert out == [0, 1, 2]

    def test_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            times.append(env.now)
            yield store.put("b")
            times.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0, 5]

    def test_filtered_get(self):
        env = Environment()
        store = Store(env)
        out = []

        def proc(env):
            yield store.put({"to": 1})
            yield store.put({"to": 2})
            item = yield store.get(lambda m: m["to"] == 2)
            out.append(item)

        env.process(proc(env))
        env.run()
        assert out == [{"to": 2}]
        assert store.items == [{"to": 1}]

    def test_filtered_get_does_not_block_others(self):
        env = Environment()
        store = Store(env)
        out = []

        def picky(env):
            item = yield store.get(lambda m: m == "never")
            out.append(item)

        def normal(env):
            item = yield store.get()
            out.append(item)

        def producer(env):
            yield store.put("x")

        env.process(picky(env))
        env.process(normal(env))
        env.process(producer(env))
        env.run()
        assert out == ["x"]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store(Environment(), capacity=0)


class TestContainer:
    def test_level_tracking(self):
        env = Environment()
        box = Container(env, capacity=10, init=4)
        assert box.level == 4

        def proc(env):
            yield box.get(3)
            yield box.put(5)

        env.process(proc(env))
        env.run()
        assert box.level == 6

    def test_get_blocks_until_enough(self):
        env = Environment()
        box = Container(env, capacity=10, init=0)
        times = []

        def consumer(env):
            yield box.get(2)
            times.append(env.now)

        def producer(env):
            yield env.timeout(1)
            yield box.put(1)
            yield env.timeout(1)
            yield box.put(1)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [2]

    def test_put_blocks_at_capacity(self):
        env = Environment()
        box = Container(env, capacity=2, init=2)
        times = []

        def producer(env):
            yield box.put(1)
            times.append(env.now)

        def consumer(env):
            yield env.timeout(3)
            yield box.get(1)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [3]

    def test_init_validation(self):
        with pytest.raises(SimulationError):
            Container(Environment(), capacity=2, init=3)

    def test_nonpositive_amounts_rejected(self):
        env = Environment()
        box = Container(env, capacity=5, init=1)
        with pytest.raises(SimulationError):
            box.get(0)
        with pytest.raises(SimulationError):
            box.put(-1)


class TestContainerRelease:
    @staticmethod
    def _waiters(give_back):
        """Three getters queue on an empty box; ``give_back`` refills it at
        t=2.  Returns the (time, getter) grant order and calendar size."""
        env = Environment()
        box = Container(env, capacity=10, init=0)
        grants = []

        def getter(name, amount):
            yield box.get(amount)
            grants.append((env.now, name))

        def giver():
            yield env.timeout(2)
            give_back(box, 3)
            give_back(box, 2)

        for name, amount in (("a", 2), ("b", 1), ("c", 2)):
            env.process(getter(name, amount))
        env.process(giver())
        env.run()
        return grants, box.level, env.scheduled

    def test_grants_like_put(self):
        put = self._waiters(lambda box, n: box.put(n))
        release = self._waiters(lambda box, n: box.release(n))
        # Same getters, same instant, same order, same final level ...
        assert release[:2] == put[:2] == ([(2, "a"), (2, "b"), (2, "c")], 0)
        # ... minus exactly the two put events.
        assert put[2] - release[2] == 2

    def test_schedules_nothing_itself(self):
        env = Environment()
        box = Container(env, capacity=5, init=1)
        before = env.scheduled
        box.release(2)
        assert box.level == 3
        assert env.scheduled == before
        grant = box.get(4)
        box.release(1)  # grants the queued getter: its event, not ours
        assert grant.triggered and box.level == 0
        assert env.scheduled == before + 1

    def test_overflow_raises(self):
        box = Container(Environment(), capacity=3, init=2)
        with pytest.raises(SimulationError):
            box.release(2)
        assert box.level == 2

    def test_pending_putters_raise(self):
        box = Container(Environment(), capacity=2, init=2)
        box.put(1)  # blocks: the box is full
        with pytest.raises(SimulationError):
            box.release(1)

    def test_nonpositive_amount_rejected(self):
        box = Container(Environment(), capacity=2, init=0)
        with pytest.raises(SimulationError):
            box.release(0)
