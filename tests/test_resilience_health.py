"""Unit tests for the BEC health monitor (bounded failure detection)."""

import pytest

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.resilience import HealthMonitor, health
from repro.sim import RandomStreams
from repro.workload import TransactionStatus


def build(n=6, **over):
    config = MachineConfig(seed=4242, parallel_data_disks=True, **over)
    txns = generate_transactions(
        WorkloadConfig(n_transactions=n, max_pages=60),
        config.db_pages,
        RandomStreams(11).stream("workload"),
    )
    return DatabaseMachine(config, None), txns


def run_monitored(machine, txns, *specs):
    if specs:
        injector = FaultInjector(FaultPlan.of(*specs, seed=0))
        injector.arm(machine)
    monitor = HealthMonitor(machine)
    result = machine.run(txns)
    return monitor, result


class TestMonitorAttachment:
    def test_registers_on_machine(self):
        machine, _ = build()
        monitor = HealthMonitor(machine)
        assert machine.health is monitor

    def test_probes_every_component(self):
        machine, _ = build()
        monitor = HealthMonitor(machine)
        kinds = {kind for kind, _ in monitor.components()}
        assert kinds == {"qp", "disk"}  # bare machine has no log processors
        assert len(monitor.components()) == (
            machine.config.n_query_processors + len(machine.data_disks)
        )

    def test_detection_bound_grows_with_suspicion(self, monkeypatch):
        machine, _ = build()
        monitor = HealthMonitor(machine)
        monkeypatch.setattr(health, "SUSPICION_PROBES", 1)
        fast = monitor.detection_bound_ms
        monkeypatch.setattr(health, "SUSPICION_PROBES", 4)
        assert monitor.detection_bound_ms > fast

    def test_monitor_does_not_perturb_the_workload(self):
        """Observability parity: probes ride a dedicated link and an
        independent rng stream, so a fault-free monitored run finishes at
        exactly the unmonitored makespan."""
        machine, txns = build()
        bare = machine.run(txns)
        machine2, txns2 = build()
        _monitor, monitored = run_monitored(machine2, txns2)
        assert monitored.makespan_ms == bare.makespan_ms


class TestDetection:
    def test_dead_qp_detected_within_bound(self):
        machine, txns = build()
        monitor, result = run_monitored(
            machine, txns, FaultSpec(FaultKind.QP_FAIL, at_time=50.0, target=0)
        )
        assert all(t.status is TransactionStatus.COMMITTED for t in txns)
        qp_hits = [d for d in monitor.detections if d["kind"] == "qp"]
        assert len(qp_hits) == 1
        assert qp_hits[0]["index"] == 0
        assert qp_hits[0]["latency_ms"] <= monitor.detection_bound_ms

    def test_degraded_mirror_detected(self):
        machine, txns = build(mirrored_data_disks=True)
        monitor, _ = run_monitored(
            machine, txns, FaultSpec(FaultKind.DISK_FAIL, at_time=50.0, target=0)
        )
        disk_hits = [d for d in monitor.detections if d["kind"] == "disk"]
        assert len(disk_hits) == 1
        assert disk_hits[0]["index"] == 0

    def test_repaired_component_rearms_detection(self):
        machine, txns = build(n=10)
        monitor, _ = run_monitored(
            machine,
            txns,
            FaultSpec(FaultKind.QP_FAIL, at_time=50.0, target=2, repair_after=300.0),
        )
        assert [d["index"] for d in monitor.detections if d["kind"] == "qp"] == [2]
        # After the repair the slot is healthy again and no longer declared.
        assert ("qp", 2) not in monitor._declared

    def test_detection_is_deterministic(self):
        times = []
        for _ in range(2):
            machine, txns = build()
            monitor, _ = run_monitored(
                machine, txns, FaultSpec(FaultKind.QP_FAIL, at_time=50.0, target=0)
            )
            times.append([d["time_ms"] for d in monitor.detections])
        assert times[0] == times[1]
