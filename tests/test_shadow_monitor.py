"""The install rule of the ordering monitor on a timed shadow run:
a page-table entry flips only after its new version is durable."""

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.core import PageTableShadowArchitecture
from repro.sim import RandomStreams
from repro.workload import TransactionStatus


class TestMachineIntegration:
    def run_shadow(self, monitor):
        config = MachineConfig()
        machine = DatabaseMachine(
            config, PageTableShadowArchitecture(), monitor=monitor
        )
        txns = generate_transactions(
            WorkloadConfig(n_transactions=6, max_pages=40),
            config.db_pages,
            RandomStreams(11).stream("workload"),
        )
        return machine.run(txns), txns

    def test_shadow_run_satisfies_install_rule(self, monitor):
        result, txns = self.run_shadow(monitor)
        assert all(t.status is TransactionStatus.COMMITTED for t in txns)
        assert monitor.checks["install"] > 0
        assert monitor.durables["install"] > 0
        assert monitor.violations["install"] == 0

    def test_installs_cover_every_updated_page(self, monitor):
        result, txns = self.run_shadow(monitor)
        committed_updates = sum(
            len(t.write_pages)
            for t in txns
            if t.status is TransactionStatus.COMMITTED
        )
        assert monitor.checks["install"] >= committed_updates
