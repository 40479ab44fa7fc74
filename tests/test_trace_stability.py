"""Fault-free same-seed traces are byte-identical across PRs.

The repo's determinism contract: adding a subsystem (here, the integrity
layer) must not perturb a corruption-free run — every random draw comes
from a named stream, the ``corrupt`` stream is created lazily, and the
scrubber is off by default.  These md5 constants were captured from the
pre-integrity tree; a mismatch means some new code drew from (or
reordered) a shared stream on the clean path.

If a future PR *intentionally* changes the simulation (new spans, new
timing), regenerate the constants with the recipe in ``_trace_run`` and
say so in that PR's description.

``SCHEDULED`` pins the same cells' calendar entry count
(``Environment.scheduled``), the host-independent measure of kernel work.
A kernel change that removes entries nobody observes lowers it while the
md5s stay put; update it deliberately, never to paper over a new entry.
"""

import hashlib
import json

import pytest

from repro import (
    DatabaseMachine,
    MachineConfig,
    WorkloadConfig,
    generate_transactions,
)
from repro.registry import REGISTRY, machine_overrides
from repro.sim import RandomStreams
from repro.trace import Tracer, to_chrome_trace

#: md5 of the sorted chrome-trace JSON, captured before the integrity PR.
EXPECTED = {
    "bare": "48a10a9ed96f2f85331d4911ef5bed82",
    "wal": "dbf5fa0deb5fba295a02b302a2bd325f",
    "shadow": "adece3afc70690e98ba77f78e3f9bc37",
    "versions": "1c37e76f462fcb750570b1e3565358d3",
    "overwrite": "c252443afbb71b5b461f1baca02d9a6b",
    "differential": "27ad4d3230c0b29627c11bb73b00f941",
    "command": "baa9c94f11f453e14f885ea5ab8e7869",
    "redo": "b18f2c7f7bc9ed00655b8d812df14113",
}

#: Calendar entries each cell schedules (``Environment.scheduled``).
SCHEDULED = {
    "bare": 1135,
    "wal": 1295,
    "shadow": 1458,
    "versions": 1136,
    "overwrite": 1298,
    "differential": 1259,
    "command": 1296,
    "redo": 1307,
}


def _trace_run(name: str):
    """(md5 of the cell's chrome trace, calendar entries it scheduled)."""
    config = MachineConfig(seed=1985, mpl=2, **machine_overrides(name))
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=6, max_pages=30),
        config.db_pages,
        RandomStreams(1985).stream("workload"),
    )
    machine = DatabaseMachine(config, REGISTRY[name].sim(), tracer=Tracer())
    machine.run(transactions)
    blob = json.dumps(to_chrome_trace(machine.tracer), sort_keys=True).encode()
    return hashlib.md5(blob).hexdigest(), machine.env.scheduled


def test_registry_covered():
    assert set(EXPECTED) == set(REGISTRY), "new architecture: add its hash"
    assert set(SCHEDULED) == set(REGISTRY), "new architecture: add its count"


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fault_free_trace_unchanged(name):
    digest, scheduled = _trace_run(name)
    assert digest == EXPECTED[name]
    assert scheduled == SCHEDULED[name], "calendar work moved"
