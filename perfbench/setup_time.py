"""Time one benchmark set-up: import fepkit, numpy and scipy and build a workload's inputs.

Run as a fresh process by run.py, several times per run:

    python3 perfbench/setup_time.py <workload> <seed> <outdir>

Prints the set-up time in seconds.  Interpreter start-up is not included.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

import fepkit  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - START)
