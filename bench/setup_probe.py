"""One benchmark set-up in a fresh interpreter, for run.py's setup_s.

    python3 bench/setup_probe.py <workload> <seed>

Imports the workloads (and with them numpy and affdim), builds the
workload's inputs from the seed, and prints the CLOCK_MONOTONIC time at
which set-up ended; the caller subtracts the time it started this
process. Whatever the set-up created is removed afterwards.
"""

import sys
import time

import workloads

wl = workloads.WORKLOADS[sys.argv[1]]
inputs = wl.setup(int(sys.argv[2]))
done = time.monotonic()
wl.close(inputs)
print(repr(done))
