"""Online degraded-mode survival: health monitoring and failover.

The paper's architectures (Sections 3.1-3.3) are evaluated against
whole-machine crashes; a multiprocessor database machine also loses
*individual* components — a query processor, a log processor, one data
drive — and the recovery architecture determines whether the machine
keeps serving.  This package adds that layer:

* :class:`HealthMonitor` — the back-end controller's deterministic
  heartbeat/suspicion protocol over its own interconnect; detects a dead
  component within a bounded window and dispatches the failover;
* :class:`Scrubber` — the online integrity scrubber: a throttled
  background patrol that detects silently rotted sectors (BIT_ROT
  faults) and repairs them from the mirror twin or escalates to archive
  media recovery, with per-sector detection-latency accounting;
* :func:`run_survivetest` — the survival harness (sibling of the
  crashtest): injects every permanent-failure kind at sampled points of
  a seeded workload and checks that no committed transaction is lost,
  the workload completes without a whole-machine restart, and reports
  the availability (degraded-throughput) figure per architecture;
* :func:`run_scrubtest` — the integrity harness: injects silent
  corruption into every stable-storage domain (data pages, log records,
  checkpoints, archives) across all architectures and checks that every
  corruption is detected before it reaches a committed read, clean runs
  raise no false alarms, and no committed work is lost after repair.

See docs/RESILIENCE.md for the failover protocols and their oracles,
and docs/INTEGRITY.md for the checksum layer and the scrub oracles.
"""

from repro.resilience.health import HealthConfig, HealthMonitor
from repro.resilience.scrubber import Scrubber
from repro.resilience.scrubtest import (
    CORRUPTION_TARGETS,
    ScrubReport,
    run_clean_scenario,
    run_corruption_scenario,
    run_scrub_sim_scenario,
    run_scrubtest,
)
from repro.resilience.survivetest import (
    SCENARIO_KINDS,
    Outcome,
    SurviveReport,
    run_media_scenario,
    run_survivetest,
)

__all__ = [
    "CORRUPTION_TARGETS",
    "HealthConfig",
    "HealthMonitor",
    "Outcome",
    "SCENARIO_KINDS",
    "Scrubber",
    "ScrubReport",
    "SurviveReport",
    "run_clean_scenario",
    "run_corruption_scenario",
    "run_media_scenario",
    "run_scrub_sim_scenario",
    "run_scrubtest",
    "run_survivetest",
]
