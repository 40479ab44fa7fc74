"""Unit tests for the workload model."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    Transaction,
    TransactionStatus,
    WorkloadConfig,
    generate_transactions,
)


class TestTransaction:
    def test_write_set_must_be_subset(self):
        with pytest.raises(ValueError):
            Transaction(tid=1, read_pages=(1, 2), write_pages=frozenset({3}))

    def test_pages_processed(self):
        txn = Transaction(tid=1, read_pages=(1, 2, 3), write_pages=frozenset({2}))
        assert txn.pages_processed == 4

    def test_completion_time(self):
        txn = Transaction(tid=1, read_pages=(1,), write_pages=frozenset())
        assert txn.completion_time is None
        txn.start_time = 10.0
        txn.finish_time = 35.0
        assert txn.completion_time == 25.0

    def test_reset_runtime(self):
        txn = Transaction(tid=1, read_pages=(1,), write_pages=frozenset())
        txn.status = TransactionStatus.ABORTED
        txn.recovery_state["x"] = 1
        txn.reset_runtime()
        assert txn.status is TransactionStatus.PENDING
        assert txn.recovery_state == {}


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_transactions=0)
        with pytest.raises(ValueError):
            WorkloadConfig(max_pages=0)
        with pytest.raises(ValueError):
            WorkloadConfig(write_fraction=1.5)

    def test_with_overrides(self):
        config = replace(WorkloadConfig(), sequential=True)
        assert config.sequential
        assert config.n_transactions == WorkloadConfig().n_transactions


class TestGenerator:
    def test_deterministic(self):
        config = WorkloadConfig(n_transactions=5)
        a = generate_transactions(config, 10_000, random.Random(1))
        b = generate_transactions(config, 10_000, random.Random(1))
        assert [t.read_pages for t in a] == [t.read_pages for t in b]

    def test_page_counts_in_range(self):
        config = WorkloadConfig(n_transactions=50, max_pages=250)
        txns = generate_transactions(config, 10_000, random.Random(2))
        assert all(1 <= t.n_reads <= 250 for t in txns)

    def test_write_fraction_honoured(self):
        config = WorkloadConfig(n_transactions=50, write_fraction=0.2)
        txns = generate_transactions(config, 10_000, random.Random(3))
        for txn in txns:
            assert txn.n_writes == round(0.2 * txn.n_reads)
            assert txn.write_pages <= set(txn.read_pages)

    def test_sequential_reference_strings_are_runs(self):
        config = WorkloadConfig(n_transactions=20, sequential=True)
        txns = generate_transactions(config, 10_000, random.Random(4))
        for txn in txns:
            pages = txn.read_pages
            assert pages == tuple(range(pages[0], pages[0] + len(pages)))

    def test_random_reference_strings_are_distinct_pages(self):
        config = WorkloadConfig(n_transactions=20)
        txns = generate_transactions(config, 10_000, random.Random(5))
        for txn in txns:
            assert len(set(txn.read_pages)) == len(txn.read_pages)

    def test_sequential_stays_in_database(self):
        config = WorkloadConfig(n_transactions=100, sequential=True, max_pages=250)
        txns = generate_transactions(config, 300, random.Random(6))
        for txn in txns:
            assert txn.read_pages[-1] < 300

    def test_database_too_small_rejected(self):
        config = WorkloadConfig(max_pages=250)
        with pytest.raises(ValueError):
            generate_transactions(config, 100, random.Random(0))

    def test_zero_write_fraction(self):
        config = WorkloadConfig(n_transactions=10, write_fraction=0.0)
        txns = generate_transactions(config, 10_000, random.Random(7))
        assert all(t.n_writes == 0 for t in txns)

    @settings(max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        write_fraction=st.floats(min_value=0.0, max_value=1.0),
        sequential=st.booleans(),
    )
    def test_invariants_hold_for_any_seed(self, seed, write_fraction, sequential):
        config = WorkloadConfig(
            n_transactions=5, write_fraction=write_fraction, sequential=sequential
        )
        txns = generate_transactions(config, 5_000, random.Random(seed))
        for txn in txns:
            assert 1 <= txn.n_reads <= 250
            assert txn.write_pages <= set(txn.read_pages)
            assert all(0 <= p < 5_000 for p in txn.read_pages)

    def test_page_size_distribution_roughly_uniform(self):
        config = WorkloadConfig(n_transactions=400)
        txns = generate_transactions(config, 10_000, random.Random(8))
        mean = sum(t.n_reads for t in txns) / len(txns)
        assert 110 < mean < 140  # E[U(1,250)] = 125.5
