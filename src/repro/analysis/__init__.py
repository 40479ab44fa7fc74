"""Back-of-envelope analytic models cross-validating the simulator.

The paper's qualitative arguments are bottleneck arguments ("the I/O
bandwidth between the data disks and the cache severely limits...", "the
rate at which query processors update pages is just not fast enough to
keep a single log disk busy").  This package writes those arguments down
as formulas, so the simulator can be cross-checked against first
principles — and so users can predict where a configuration's bottleneck
will sit before running it.
"""

from repro.analysis.checkpoints import (
    CheckpointRunStats,
    analytic_restart_bound,
    run_with_checkpoints,
)
from repro.analysis.restart import (
    RestartEstimate,
    estimate_functional_restart,
    estimate_restart,
)
from repro.analysis.model import (
    cpu_bound_ms_per_page,
    disk_bound_ms_per_page,
    expected_random_access_ms,
    expected_seek_ms,
    io_bound_ms_per_page,
    log_disk_utilization,
    predict_bare_ms_per_page,
    predict_bottleneck,
    pt_disk_demand_ms_per_page,
    sequential_access_ms,
)

__all__ = [
    "CheckpointRunStats",
    "RestartEstimate",
    "analytic_restart_bound",
    "cpu_bound_ms_per_page",
    "disk_bound_ms_per_page",
    "estimate_functional_restart",
    "estimate_restart",
    "expected_random_access_ms",
    "expected_seek_ms",
    "io_bound_ms_per_page",
    "log_disk_utilization",
    "predict_bare_ms_per_page",
    "predict_bottleneck",
    "pt_disk_demand_ms_per_page",
    "run_with_checkpoints",
    "sequential_access_ms",
]
