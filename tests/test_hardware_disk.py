"""Unit tests for the disk models."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    ConventionalDisk,
    DiskAddress,
    IBM_3350,
    ParallelAccessDisk,
    make_disk,
)
from repro.hardware.disk import split_by_cylinder
from repro.sim import Environment, SimulationError


def fixed_latency_rng(value=0.0):
    """An rng whose uniform() always returns ``value`` (kills randomness)."""

    class _Rng(random.Random):
        def uniform(self, a, b):
            return value

    return _Rng(0)


class TestDiskAddress:
    def test_linear_round_trip(self):
        for index in (0, 1, 119, 120, IBM_3350.capacity_pages - 1):
            addr = DiskAddress.from_linear(index, IBM_3350)
            assert addr.linear(IBM_3350) == index

    def test_geometry_decomposition(self):
        addr = DiskAddress.from_linear(121, IBM_3350)
        assert addr == DiskAddress(cylinder=1, track=0, sector=1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            DiskAddress.from_linear(IBM_3350.capacity_pages, IBM_3350)
        with pytest.raises(ValueError):
            DiskAddress.from_linear(-1, IBM_3350)


class TestGeometryParams:
    def test_ibm3350_capacity(self):
        assert IBM_3350.pages_per_cylinder == 120
        assert IBM_3350.capacity_pages == 555 * 120

    def test_seek_model(self):
        assert IBM_3350.seek_ms(0) == 0.0
        assert IBM_3350.seek_ms(1) == pytest.approx(10.0, abs=0.2)
        assert IBM_3350.seek_ms(554) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            IBM_3350.seek_ms(-1)

    def test_transfer_time(self):
        assert IBM_3350.transfer_ms == pytest.approx(16.7 / 4)

    def test_with_overrides(self):
        fast = IBM_3350.with_overrides(min_seek_ms=1.0)
        assert fast.min_seek_ms == 1.0
        assert IBM_3350.min_seek_ms == 10.0  # original untouched


def run_request(disk, kind, addresses):
    env = disk.env
    request = disk.submit(kind, addresses)
    env.run(until=request.done)
    return env.now


class TestConventionalDisk:
    def test_single_page_cost(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        elapsed = run_request(disk, "read", [DiskAddress(10, 0, 0)])
        # seek(10) + latency 8 + transfer
        expected = IBM_3350.seek_ms(10) + 8.0 + IBM_3350.transfer_ms
        assert elapsed == pytest.approx(expected)

    def test_sequential_pages_stream_within_request(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        addrs = [DiskAddress.from_linear(i, IBM_3350) for i in range(4)]
        elapsed = run_request(disk, "read", addrs)
        expected = 8.0 + 4 * IBM_3350.transfer_ms  # one latency, four transfers
        assert elapsed == pytest.approx(expected)

    def test_no_streaming_across_requests(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        run_request(disk, "read", [DiskAddress.from_linear(0, IBM_3350)])
        t0 = env.now
        run_request(disk, "read", [DiskAddress.from_linear(1, IBM_3350)])
        # The second request pays latency again despite being adjacent.
        assert env.now - t0 == pytest.approx(8.0 + IBM_3350.transfer_ms)

    def test_same_cylinder_skips_seek(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        run_request(disk, "read", [DiskAddress(5, 0, 0)])
        t0 = env.now
        run_request(disk, "read", [DiskAddress(5, 20, 2)])
        assert env.now - t0 == pytest.approx(8.0 + IBM_3350.transfer_ms)

    def test_fifo_service(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(0.0))
        first = disk.read([DiskAddress(0, 0, 0)])
        second = disk.read([DiskAddress(100, 0, 0)])
        env.run(until=second.done)
        assert first.done.processed

    def test_counters(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(0.0))
        disk.read([DiskAddress(0, 0, 0)])
        disk.write([DiskAddress(1, 0, 0), DiskAddress(1, 0, 1)])
        env.run()
        assert disk.accesses.count == 2
        assert disk.pages_read.count == 1
        assert disk.pages_written.count == 2

    def test_clean_writes_heal_rot_without_an_injector(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(0.0))
        assert disk.faults is None
        rotted = DiskAddress(2, 0, 0)
        disk.corrupt_sectors[rotted.linear(IBM_3350)] = 0.0
        run_request(disk, "write", [DiskAddress(1, 0, 0)])
        assert list(disk.corrupt_sectors) == [rotted.linear(IBM_3350)]
        run_request(disk, "write", [rotted])
        assert disk.corrupt_sectors == {}

    def test_utilization_is_busy_fraction(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        request = disk.read([DiskAddress(0, 0, 0)])
        env.run(until=request.done)
        busy = env.now
        env.run(until=busy * 2)  # idle as long as it was busy
        assert disk.utilization() == pytest.approx(0.5)


class TestParallelAccessDisk:
    def test_whole_cylinder_in_one_rotation(self):
        env = Environment()
        disk = ParallelAccessDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        addrs = [
            DiskAddress.from_linear(i, IBM_3350)
            for i in range(IBM_3350.pages_per_cylinder)
        ]
        elapsed = run_request(disk, "read", addrs)
        # seek 0 + latency + full rotation (4 sector positions capped)
        assert elapsed == pytest.approx(8.0 + IBM_3350.rotation_ms)

    def test_one_sector_position_costs_one_transfer(self):
        env = Environment()
        disk = ParallelAccessDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        # Pages on different tracks, same sector: transferred in parallel.
        addrs = [DiskAddress(0, track, 2) for track in range(10)]
        elapsed = run_request(disk, "read", addrs)
        assert elapsed == pytest.approx(8.0 + IBM_3350.transfer_ms)

    def test_rejects_multi_cylinder_request(self):
        env = Environment()
        disk = ParallelAccessDisk(env, IBM_3350, rng=fixed_latency_rng(0.0))
        disk.submit("read", [DiskAddress(0, 0, 0), DiskAddress(1, 0, 0)])
        with pytest.raises(SimulationError):
            env.run()

    def test_coalesces_same_cylinder_same_kind(self):
        env = Environment()
        disk = ParallelAccessDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        # Occupy the disk so the next three requests queue together.
        blocker = disk.read([DiskAddress(50, 0, 0)])
        reads = [disk.read([DiskAddress(3, t, 0)]) for t in range(3)]
        env.run(until=blocker.done)
        env.run()
        assert disk.accesses.count == 2  # blocker + one coalesced access
        assert all(r.done.processed for r in reads)

    def test_does_not_coalesce_mixed_kinds(self):
        env = Environment()
        disk = ParallelAccessDisk(env, IBM_3350, rng=fixed_latency_rng(8.0))
        blocker = disk.read([DiskAddress(50, 0, 0)])
        disk.read([DiskAddress(3, 0, 0)])
        disk.write([DiskAddress(3, 1, 0)])
        env.run(until=blocker.done)
        env.run()
        assert disk.accesses.count == 3


class TestFactoryAndHelpers:
    def test_make_disk(self):
        env = Environment()
        assert isinstance(make_disk(env, IBM_3350, parallel=False), ConventionalDisk)
        assert isinstance(make_disk(env, IBM_3350, parallel=True), ParallelAccessDisk)

    def test_split_by_cylinder(self):
        addrs = [
            DiskAddress(2, 0, 0),
            DiskAddress(0, 1, 1),
            DiskAddress(2, 5, 3),
            DiskAddress(1, 0, 0),
        ]
        groups = split_by_cylinder(addrs)
        assert [g[0].cylinder for g in groups] == [0, 1, 2]
        assert len(groups[2]) == 2

    def test_empty_request_rejected(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350)
        with pytest.raises(SimulationError):
            disk.read([])

    def test_unknown_kind_rejected(self):
        env = Environment()
        disk = ConventionalDisk(env, IBM_3350)
        with pytest.raises(SimulationError):
            disk.submit("erase", [DiskAddress(0, 0, 0)])


class _RebuildParallelDisk(ParallelAccessDisk):
    """The parallel-access disk before its queue was indexed, kept as the
    oracle: one arrival-ordered deque that every service scans and
    rebuilds around the head request's batch."""

    _queue_type = deque

    def submit(self, kind, addresses, tag=""):
        req = super().submit(kind, addresses, tag)
        cylinder = req.addresses[0].cylinder
        for addr in req.addresses:
            if addr.cylinder != cylinder:
                break
        else:
            req.cylinder = cylinder
        return req

    def _select_batch(self):
        first = self._queue.popleft()
        cylinder = first.cylinder
        if cylinder is None:
            cylinders = sorted({addr.cylinder for addr in first.addresses})
            raise SimulationError(
                f"parallel-access request spans cylinders {cylinders}; "
                "split requests with split_by_cylinder()"
            )
        kind = first.kind
        batch = [first]
        survivors = deque()
        for req in self._queue:
            if req.kind == kind and req.cylinder == cylinder:
                batch.append(req)
            else:
                survivors.append(req)
        self._queue = survivors
        return batch


_ADDRESS = st.builds(
    DiskAddress,
    cylinder=st.integers(min_value=0, max_value=3),
    track=st.integers(min_value=0, max_value=2),
    sector=st.integers(min_value=0, max_value=5),
)
_DISK_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(["read", "write"]),
            st.lists(_ADDRESS, min_size=1, max_size=3),
        ),
        st.tuples(st.just("serve"), st.sampled_from([0.0, 5.0, 20.0, 60.0])),
        st.tuples(st.just("fail")),
    ),
    max_size=30,
)


def _disk_script(cls, ops):
    """Run ``ops`` against a fresh ``cls`` disk and return what it showed:
    each completion (time, request, error), the waiting requests in
    arrival order after every op, the counters, and any server error."""
    env = Environment()
    disk = cls(env, IBM_3350, rng=random.Random(3))
    requests = []
    seen = []

    def serve(until):
        try:
            env.run(until=until)
        except SimulationError as exc:
            seen.append(("error", env.now, str(exc)))

    for op in ops:
        if op[0] == "submit":
            req = disk.submit(op[1], op[2])
            index = len(requests)
            requests.append(req)
            req.done.callbacks.append(
                lambda _evt, i=index, r=req: seen.append((env.now, i, r.error))
            )
        elif op[0] == "serve":
            serve(env.now + op[1])
        else:
            disk.fail()
        by_id = {id(r): i for i, r in enumerate(requests)}
        seen.append(("waiting", disk.pending, [by_id[id(r)] for r in disk._queue]))
    serve(None)
    counters = (disk.accesses.count, disk.pages_read.count, disk.pages_written.count,
                disk.failed_requests.count)
    return seen, counters, vars(disk.queue_length), env.now


@settings(max_examples=200, deadline=None)
@given(ops=_DISK_OPS)
def test_indexed_queue_matches_rebuilt_queue(ops):
    """Batches, survivors, the multi-cylinder error, ``pending``, the
    queue-length stat and ``fail()`` draining are the rebuild's."""
    assert _disk_script(ParallelAccessDisk, ops) == _disk_script(_RebuildParallelDisk, ops)
