"""Pins on the paper's published numbers and on the committed table grids.

``PAPER`` may be reshaped, but no published number may move: each table's
sorted numeric leaves are pinned by count and sha256.  A fresh run of
two sampled tables at the benchmark settings must reproduce the rows held
in the committed ``BENCH_table02.json`` and ``BENCH_table08.json``, so a
model change fails here, not only in ``bench-diff``.  And the rows of
every committed table grid must keep the paper's shape (the benchmark's
``SHAPES``), so a re-baselined grid cannot quietly lose a conclusion.
"""

import hashlib
import json
import os

import pytest

from benchmarks._harness import BENCH_SETTINGS, REPO_ROOT, grid_name
from benchmarks.bench_tables import SHAPES
from repro.experiments import (
    PAPER,
    table2_log_utilization,
    table8_random_overwriting,
)
from repro.experiments.tables import CATALOGUE

#: table -> (number of numeric leaves, sha256 of their sorted list's repr)
PAPER_LEAVES = {
    "table1": (16, "3b1694a5c7c576058237cc6b78682cb092d57e2f54b8d52814802e7c2d0997c6"),
    "table2": (4, "520566b1379e084a0e0160519116e3706e76ea1d96b5b74ca200fe1380df424a"),
    "table3": (42, "576e32adc9b5628376cc7b60a4462e7189dd248804ae9e9c9fb91a1e34bd7d02"),
    "table4": (24, "03f24a3dc1c66e414430973fb2e684cf05c0c04017c6e45e663f381db3c5111d"),
    "table5": (16, "4cd8ee4ef256f8dcb151c844cedcbe66cec7a742a7fb1cb72effe05b3a7670aa"),
    "table6": (8, "b1e0f96049b9c2c2c8c2b2988e52f336f62e95385e3b815eaf8a952947632e12"),
    "table7": (8, "58c66f67db5f9a9091734177509e3739f16ea572164ecec453e0e95880913017"),
    "table8": (6, "184a57db5559bfd2f95123fb8fb80300a506c8f728f927f63d720a6f01cc4554"),
    "table9": (20, "36dd6a294cfe6aab9d5dd1713de189d3f5bab2e5e7efd450217745315236e7ad"),
    "table10": (16, "b4b3ce81f830f0cad9c969b53e8e7a6f3959d6c429b3d895660f2351c0bcba4f"),
    "table11": (16, "91e599a5d3308e429e8afcee4271d8fa519318833fb777223f42531d92fd5dea"),
    "table12": (32, "f1546a4b955bac05757e8a17015c732963e9e116b458296a4275ec85f2c5bc54"),
}


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    else:
        yield node


@pytest.mark.parametrize("table", sorted(PAPER_LEAVES))
def test_paper_numbers_pinned(table):
    leaves = sorted(_leaves(PAPER[table]))
    digest = hashlib.sha256(repr(leaves).encode()).hexdigest()
    assert (len(leaves), digest) == PAPER_LEAVES[table]


@pytest.mark.parametrize(
    "grid, table_func",
    [("table02", table2_log_utilization), ("table08", table8_random_overwriting)],
)
def test_fresh_run_matches_committed_grid(grid, table_func):
    assert table_func(BENCH_SETTINGS)["rows"] == _committed_rows(grid)


@pytest.mark.parametrize(
    "key", list(CATALOGUE), ids=[grid_name(table) for table in CATALOGUE.values()]
)
def test_committed_rows_keep_paper_shape(key):
    SHAPES[key](_committed_rows(grid_name(CATALOGUE[key])))


def _committed_rows(grid):
    with open(os.path.join(REPO_ROOT, f"BENCH_{grid}.json")) as handle:
        return json.load(handle)["cells"][0]["detail"]["rows"]
