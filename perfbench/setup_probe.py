"""Set-up probe: import the simulator, build a workload's spec, print the clock.

``run.py`` reads CLOCK_MONOTONIC before starting this process; the value
printed here, minus that reading, is one sample of ``setup_s``.
"""

import sys
import time

import workloads

workloads.WORKLOADS[sys.argv[1]].build_spec(int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
