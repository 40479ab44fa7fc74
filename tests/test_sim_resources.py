"""Unit tests for resources and containers."""

import pytest

from repro.sim import Container, Environment, Resource, SimulationError


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


class TestContainer:
    def test_level_tracking(self):
        env = Environment()
        box = Container(env, capacity=10, init=4)
        assert box.level == 4

        def proc(env):
            yield box.get(3)
            box.release(5)

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
            box.release(1)
            yield env.timeout(1)
            box.release(1)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [2]

    def test_init_validation(self):
        with pytest.raises(SimulationError):
            Container(Environment(), capacity=2, init=3)

    def test_nonpositive_amounts_rejected(self):
        env = Environment()
        box = Container(env, capacity=5, init=1)
        with pytest.raises(SimulationError):
            box.get(0)
        with pytest.raises(SimulationError):
            box.get(-1)


class TestContainerRelease:
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

    def test_nonpositive_amount_rejected(self):
        box = Container(Environment(), capacity=2, init=0)
        with pytest.raises(SimulationError):
            box.release(0)
