"""Shared fixtures for the test suite."""

import pytest

from repro.sim.monitor import OrderingMonitor


@pytest.fixture
def monitor():
    """A runtime checker of both ordering rules.

    Attach it with ``DatabaseMachine(..., monitor=monitor)`` or
    ``DistributedWalManager(monitor=monitor)``; a page written home
    before its recovery data is forced, or installed before its new
    version is durable, raises inside the run.  Teardown re-asserts
    that no rule recorded a violation, so a test that swallows the
    exception still fails.
    """
    monitor = OrderingMonitor()
    yield monitor
    assert not any(monitor.violations.values()), monitor
