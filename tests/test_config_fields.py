"""The knobs of the six config dataclasses, pinned by name.

A value that only its default uses is a module constant beside its
reader, not a field.  A new field therefore fails this test on purpose:
add it here, and say in CHANGES.md what sets it to a non-default value.
"""

from dataclasses import fields

import pytest

from repro.core import DifferentialConfig, LoggingConfig, ShadowConfig
from repro.loadgen import ArrivalConfig
from repro.machine import MachineConfig
from repro.workload import WorkloadConfig

FIELDS = {
    MachineConfig: (
        "n_query_processors",
        "cache_frames",
        "n_data_disks",
        "parallel_data_disks",
        "disk",
        "cpu",
        "cost",
        "mpl",
        "prefetch_window",
        "db_pages",
        "reserved_cylinders",
        "disk_scheduling",
        "mirrored_data_disks",
        "scrub_enabled",
        "scrub_io_share",
        "scrub_interval_ms",
        "admission_deadline_ms",
        "seed",
    ),
    LoggingConfig: (
        "n_log_processors",
        "mode",
        "selection",
        "routing",
        "link_bandwidth_mb_s",
        "fragment_bytes",
        "checkpoint_interval_ms",
    ),
    ShadowConfig: ("n_pt_processors", "pt_buffer_pages", "clustered"),
    DifferentialConfig: ("size_fraction", "output_fraction", "optimal"),
    WorkloadConfig: (
        "n_transactions",
        "max_pages",
        "write_fraction",
        "sequential",
        "hotspot_fraction",
    ),
    ArrivalConfig: ("process", "rate_tps", "n_arrivals", "spikes"),
}


@pytest.mark.parametrize("config", list(FIELDS), ids=lambda cls: cls.__name__)
def test_field_names_pinned(config):
    assert tuple(f.name for f in fields(config)) == FIELDS[config]
