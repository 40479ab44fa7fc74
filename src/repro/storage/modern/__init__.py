"""Modern recovery managers (``repro.storage.modern``).

The 1985 paper crowned parallel physical logging under 1985 hardware
assumptions; this subpackage fields two post-2010 designs against the
same functional harness (crashtest, checkpoint sweep, survivetest) so
the verdict can be re-judged on level ground:

* :class:`CommandLoggingManager` — adaptive command/logical logging with
  dependency-aware parallel wave replay and an ARIES-style physical
  fallback for high-fan-in transactions (Yao et al.).
* :class:`RedoOnlyWalManager` — redo-only WAL with early lock release at
  the commit-record append and single-pass analysis+redo restart
  (Sauer & Härder).

Both are stated as their difference from the distributed WAL's log core
(:mod:`repro.storage.logcore`), speak the full
:class:`repro.storage.RecoveryManager` contract and take checkpoints
through the fuzzy policy; ``docs/MODERN.md`` maps the papers' vocabulary
onto this repo's.
"""

from repro.storage.modern.command import (
    CommandLoggingManager,
    CommandRecord,
    PhysicalRecord,
)
from repro.storage.modern.redo import RedoOnlyWalManager, RedoRecord
from repro.storage.modern.replay import build_waves, wave_stats

__all__ = [
    "CommandLoggingManager",
    "CommandRecord",
    "PhysicalRecord",
    "RedoOnlyWalManager",
    "RedoRecord",
    "build_waves",
    "wave_stats",
]
