"""Media and interconnect faults: torn writes, disk failure, message loss."""

import random

import pytest

from repro.hardware import ConventionalDisk, DiskAddress, IBM_3350, Interconnect
from repro.hardware.disk import DiskFailure
from repro.hardware.interconnect import MessageLost
from repro.sim import Environment


class ScriptedFaults:
    """A stand-in injector whose predicates replay a fixed script."""

    def __init__(self, torn=(), drops=()):
        self._torn = list(torn)
        self._drops = list(drops)

    def torn_write(self, target=None):
        return self._torn.pop(0) if self._torn else False

    def drop_message(self, target=None):
        return self._drops.pop(0) if self._drops else False

    def bit_rot(self, target=None):
        return False


def one_write(disk):
    return disk.write([DiskAddress.from_linear(0, IBM_3350)], tag="test")


class TestDiskFailure:
    def make_disk(self):
        env = Environment()
        return env, ConventionalDisk(env, IBM_3350, name="d0", rng=random.Random(0))

    def test_requests_error_after_fail(self):
        env, disk = self.make_disk()
        disk.fail()
        request = one_write(disk)
        env.run()
        assert request.done.triggered
        assert not request.ok
        assert request.error == "disk-failed"
        assert disk.failed_requests.count == 1

    def test_fail_drains_queued_requests(self):
        env, disk = self.make_disk()
        first = one_write(disk)
        second = one_write(disk)

        def killer(env, disk):
            yield env.timeout(0.1)
            disk.fail()

        env.process(killer(env, disk))
        env.run()
        assert first.done.triggered and second.done.triggered
        assert not second.ok

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_request_failed_in_service_moves_no_pages(self, kind):
        env, disk = self.make_disk()
        address = [DiskAddress.from_linear(0, IBM_3350)]
        in_service = disk.submit(kind, address, tag="test")

        def killer(env, disk):
            yield env.timeout(0.1)  # the request is mid-transfer
            disk.fail()

        env.process(killer(env, disk))
        env.run()
        assert in_service.error == "disk-failed"
        assert disk.failed_requests.count == 1
        assert disk.accesses.count == 1  # the wasted access still happened
        assert disk.pages_read.count == 0
        assert disk.pages_written.count == 0

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_completed_request_counts_its_pages(self, kind):
        env, disk = self.make_disk()
        addresses = [DiskAddress.from_linear(i, IBM_3350) for i in range(3)]
        request = disk.submit(kind, addresses, tag="test")
        env.run()
        assert request.ok
        counted = disk.pages_read if kind == "read" else disk.pages_written
        other = disk.pages_written if kind == "read" else disk.pages_read
        assert (counted.count, other.count) == (3, 0)

    def test_fail_is_idempotent(self):
        env, disk = self.make_disk()
        disk.fail()
        disk.fail()
        assert disk.failed

    def test_healthy_request_is_ok(self):
        env, disk = self.make_disk()
        request = one_write(disk)
        env.run()
        assert request.ok
        assert request.error is None and not request.torn

    def test_failure_error_type_exists(self):
        assert issubclass(DiskFailure, Exception)


class TestTornWrites:
    def test_scripted_torn_write_marks_request(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, name="d0", rng=random.Random(0))
        disk.faults = ScriptedFaults(torn=[True])
        request = one_write(disk)
        env.run()
        assert request.torn
        assert not request.ok
        assert disk.torn_writes.count == 1

    def test_reads_never_tear(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, name="d0", rng=random.Random(0))
        disk.faults = ScriptedFaults(torn=[True, True])
        request = disk.read([DiskAddress.from_linear(0, IBM_3350)], tag="test")
        env.run()
        assert request.ok
        assert disk.torn_writes.count == 0


class TestMessageLoss:
    def run_reliable(self, drops, max_retries=4):
        env = Environment()
        link = Interconnect(env, bandwidth_mb_per_s=1.0)
        link.faults = ScriptedFaults(drops=drops)
        outcome = {}

        def sender(env):
            try:
                yield from link.reliable_transfer(1000, max_retries=max_retries)
                outcome["delivered"] = True
            except MessageLost as lost:
                outcome["error"] = lost

        env.process(sender(env))
        env.run()
        return env, link, outcome

    def test_plain_transfer_reports_loss(self):
        env = Environment()
        link = Interconnect(env, bandwidth_mb_per_s=1.0)
        link.faults = ScriptedFaults(drops=[True])
        seen = {}

        def sender(env):
            seen["delivered"] = yield from link.transfer(1000)

        env.process(sender(env))
        env.run()
        assert seen["delivered"] is False
        assert link.messages_lost.count == 1
        assert link.bytes_moved.count == 0

    def test_retransmission_recovers(self):
        env, link, outcome = self.run_reliable(drops=[True, True])
        assert outcome.get("delivered")
        assert link.retransmissions.count == 2
        assert link.messages_lost.count == 2

    def test_bounded_retries_raise(self):
        env, link, outcome = self.run_reliable(drops=[True] * 10, max_retries=2)
        assert isinstance(outcome.get("error"), MessageLost)
        assert link.retransmissions.count == 2

    def test_backoff_spends_time(self):
        env, link, outcome = self.run_reliable(drops=[True])
        # one wire time (1 ms) + 1 ms backoff + second wire time
        assert env.now == pytest.approx(3.0)
