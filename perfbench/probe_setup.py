"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/probe_setup.py <workload> <seed> <out_dir> <smoke 0|1>

Prints the seconds from the start of this script until the workload is ready
for its first repetition (imports of numpy, PyYAML and fwlab, config parse,
partition build and warm-up), then the same time rescaled to the reference
host speed by ``hostspeed`` bursts run right after it.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

name, seed, out_dir, smoke = sys.argv[1:5]
workloads.setup(name, int(seed), Path(out_dir), smoke == "1")
seconds = time.perf_counter() - _T0

import hostspeed  # noqa: E402

#: bursts timed after the set-up, about 60 ms on the reference machine
BURSTS = 8
print(repr(seconds), repr(hostspeed.rescale(seconds, [hostspeed.burst() for _ in range(BURSTS)])))
