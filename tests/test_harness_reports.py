"""Pinned harness reports: the four fault CLIs' JSON, byte for byte.

Each harness is driven through the CLI at a small size with ``--json``
and the report's sha256 is compared against a pinned digest.  The
determinism tests elsewhere compare two runs of one tree; these pins
hold the reports fixed across refactors of the shared scenario code.
The digests are identical on CPython 3.9, 3.11 and 3.12.
"""

import hashlib

import pytest

from repro.cli import main

REPORTS = {
    "crashtest": (
        ["crashtest", "--seed", "1985", "--budget", "8", "-n", "4"],
        "ff80e3128d2c16fa909ae844fce60f8d7ff983d2407ff39e5ab177fab347a593",
    ),
    # Every hook crossing of every manager (no budget): about 1.2 s.
    "crashtest-full": (
        ["crashtest", "--arch", "all"],
        "d526560028783f88c113c5b910206d8aa4fd97184fdbfbdc780f390a5e3134f5",
    ),
    "survivetest": (
        ["survivetest", "--seed", "1985", "-n", "4"],
        "89b96f4ca3eca4513d133c3815d7ee31e03d4b5da19e799b4972440b4eeba5ed",
    ),
    "scrubtest": (
        ["scrubtest", "--seed", "1985"],
        "2345e8d2930cd69edfea7e8dcbd98d34aef2ae83448405f1fff9b6b8f81d4d92",
    ),
    "loadtest": (
        ["loadtest", "--seed", "1985", "--arch", "wal", "-n", "8",
         "--loads", "0.5,3", "--states", "healthy,dead-lp,mirrored-degraded"],
        "d74e9f4dcb88d418a72d4cc337c5c29ab9660ac402ba6ec093e7886e4c10f753",
    ),
}


@pytest.mark.parametrize("harness", sorted(REPORTS))
def test_report_digest_is_pinned(harness, tmp_path, capsys):
    argv, digest = REPORTS[harness]
    path = tmp_path / f"{harness}.json"
    assert main(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
