"""One cold set-up of a workload, timed in a fresh interpreter.

Imports the program and generates the first pass's inputs (transactions,
arrival schedules, op scripts).  Then it times the reference kernel of
``speed.py`` in the same process, warm, and prints both times in seconds.
``run.py`` runs it several times and reports the median normalised set-up
time as ``setup_s``::

    python3 perfbench/probe_setup.py paper-batch 1985
"""

import time

START = time.perf_counter()  # reprolint: disable-line=DET01

import sys  # noqa: E402  (the clock starts before every import)
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].inputs(seed, 0, layers.Recorder(enabled=False))
    setup_s = layers.now() - START
    speed.reference_kernel()  # the first call pays for cold caches
    kernel_start = layers.now()
    speed.reference_kernel()
    print(setup_s, layers.now() - kernel_start)
