"""Unit tests for the differential-file architecture."""

from dataclasses import replace

import pytest

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.core import DifferentialConfig, DifferentialFileArchitecture
from repro.core.base import AuxRead, DataPage
from repro.sim import RandomStreams
from repro.workload import Transaction, TransactionStatus


def make_machine(diff_config=None, **over):
    config = MachineConfig(**over)
    arch = DifferentialFileArchitecture(diff_config or DifferentialConfig())
    return DatabaseMachine(config, arch), arch


def small_run(diff_config=None, n=5, max_pages=50, sequential=False, **over):
    machine, arch = make_machine(diff_config, **over)
    txns = generate_transactions(
        WorkloadConfig(n_transactions=n, max_pages=max_pages, sequential=sequential),
        machine.config.db_pages,
        RandomStreams(11).stream("workload"),
    )
    return machine.run(txns), txns, arch


class TestDifferentialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DifferentialConfig(size_fraction=0.0)
        with pytest.raises(ValueError):
            DifferentialConfig(output_fraction=1.5)

    def test_with_overrides(self):
        config = replace(DifferentialConfig(), size_fraction=0.2)
        assert config.size_fraction == 0.2
        assert config.optimal


class TestReadSequence:
    def test_interleaves_a_and_d_reads(self):
        machine, arch = make_machine()
        txn = Transaction(
            tid=0, read_pages=tuple(range(100)), write_pages=frozenset()
        )
        items = list(arch.read_sequence(txn))
        data = [i for i in items if isinstance(i, DataPage)]
        a_files = [i for i in items if isinstance(i, AuxRead) and i.tag == "a-file"]
        d_files = [i for i in items if isinstance(i, AuxRead) and i.tag == "d-file"]
        assert len(data) == 100
        assert len(a_files) == 10  # size_fraction * N
        assert len(d_files) == 10

    def test_small_transactions_have_no_diff_reads(self):
        machine, arch = make_machine()
        txn = Transaction(tid=0, read_pages=tuple(range(5)), write_pages=frozenset())
        items = list(arch.read_sequence(txn))
        assert all(isinstance(i, DataPage) for i in items)

    def test_a_pages_carry_set_difference_cpu(self):
        machine, arch = make_machine()
        txn = Transaction(
            tid=0, read_pages=tuple(range(100)), write_pages=frozenset()
        )
        a_item = next(
            i
            for i in arch.read_sequence(txn)
            if isinstance(i, AuxRead) and i.tag == "a-file"
        )
        assert a_item.cpu_ms > 0

    def test_larger_size_fraction_more_diff_reads(self):
        machine, arch = make_machine(DifferentialConfig(size_fraction=0.2))
        txn = Transaction(
            tid=0, read_pages=tuple(range(100)), write_pages=frozenset()
        )
        a_files = [
            i
            for i in arch.read_sequence(txn)
            if isinstance(i, AuxRead) and i.tag == "a-file"
        ]
        assert len(a_files) == 20


class TestCpuModel:
    def test_basic_costs_more_than_optimal(self):
        machine_b, arch_b = make_machine(DifferentialConfig(optimal=False))
        machine_o, arch_o = make_machine(DifferentialConfig(optimal=True))
        txn = Transaction(
            tid=0, read_pages=tuple(range(100)), write_pages=frozenset()
        )
        assert arch_b.page_cpu_ms(txn, 0, False) > arch_o.page_cpu_ms(txn, 0, False)

    def test_diff_cpu_scales_with_transaction_size(self):
        machine, arch = make_machine()
        small = Transaction(tid=0, read_pages=tuple(range(20)), write_pages=frozenset())
        large = Transaction(tid=1, read_pages=tuple(range(200)), write_pages=frozenset())
        assert arch.page_cpu_ms(large, 0, False) > arch.page_cpu_ms(small, 0, False)


class TestAppends:
    def test_appended_pages_round_up(self):
        machine, arch = make_machine()
        txn = Transaction(
            tid=0,
            read_pages=tuple(range(50)),
            write_pages=frozenset(range(10)),
        )
        # ceil(10 * 0.1) = 1 A page + 1 D page.
        assert arch.appended_pages_for(txn) == 2

    def test_read_only_transaction_appends_nothing(self):
        machine, arch = make_machine()
        txn = Transaction(tid=0, read_pages=(1, 2), write_pages=frozenset())
        assert arch.appended_pages_for(txn) == 0

    def test_output_fraction_scales_appends(self):
        machine, arch = make_machine(DifferentialConfig(output_fraction=0.5))
        txn = Transaction(
            tid=0,
            read_pages=tuple(range(50)),
            write_pages=frozenset(range(10)),
        )
        assert arch.appended_pages_for(txn) == 5 + 1


class TestIntegration:
    def test_no_in_place_writebacks(self):
        result, txns, _ = small_run()
        # Data pages written = appended A/D pages only, not one per update.
        appends = result.counter("pages_appended")
        assert result.counter("data_pages_written") == appends
        assert appends < sum(t.n_writes for t in txns) + 2 * len(txns)

    def test_diff_files_reduce_written_pages(self):
        """The paper: differential files write *fewer* updated pages."""
        result, txns, _ = small_run(n=6, max_pages=100)
        assert result.counter("data_pages_written") < sum(t.n_writes for t in txns)

    def test_extra_reads_counted(self):
        result, txns, _ = small_run(n=6, max_pages=100)
        assert result.counter("a_pages_read") > 0
        assert result.counter("a_pages_read") == result.counter("d_pages_read")

    def test_all_commit(self):
        result, txns, _ = small_run()
        assert all(t.status is TransactionStatus.COMMITTED for t in txns)

    def test_needs_reserved_cylinders(self):
        config = MachineConfig(reserved_cylinders=2, db_pages=100_000)
        with pytest.raises(ValueError):
            DatabaseMachine(config, DifferentialFileArchitecture())

    def test_describe(self):
        arch = DifferentialFileArchitecture(
            DifferentialConfig(optimal=False, size_fraction=0.15)
        )
        text = arch.describe()
        assert "basic" in text and "15%" in text
