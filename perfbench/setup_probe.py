"""Set-up probe: import qlocc and build one workload's inputs in a fresh
interpreter, then print the CLOCK_MONOTONIC time at which they are ready.

    python3 perfbench/setup_probe.py WORKLOAD SEED RUN_DIR
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports qlocc)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print(time.monotonic())
