"""Unit tests for the interconnect model."""

import pytest

from repro.hardware import Interconnect
from repro.sim import Environment


class TestInterconnect:
    def test_transfer_time(self):
        env = Environment()
        link = Interconnect(env, bandwidth_mb_per_s=1.0)
        # 1 MB/s = 1000 bytes per ms.
        assert link.transfer_ms(4000) == pytest.approx(4.0)

    def test_latency_added(self):
        env = Environment()
        link = Interconnect(env, bandwidth_mb_per_s=1.0, latency_ms=2.0)
        assert link.transfer_ms(1000) == pytest.approx(3.0)

    def test_transfers_serialize(self):
        env = Environment()
        link = Interconnect(env, bandwidth_mb_per_s=1.0)
        done = []

        def sender(env, link, n):
            yield from link.transfer(1000)
            done.append(env.now)

        env.process(sender(env, link, 1))
        env.process(sender(env, link, 2))
        env.run()
        assert done == [1.0, 2.0]

    def test_bytes_counted(self):
        env = Environment()
        link = Interconnect(env, bandwidth_mb_per_s=1.0)

        def sender(env):
            yield from link.transfer(500)

        env.process(sender(env))
        env.run()
        assert link.bytes_moved.count == 500

    def test_slow_link_takes_longer(self):
        env = Environment()
        slow = Interconnect(env, bandwidth_mb_per_s=0.01)
        assert slow.transfer_ms(600) == pytest.approx(60.0)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            Interconnect(Environment(), bandwidth_mb_per_s=0)
