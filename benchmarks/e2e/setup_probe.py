"""Measure one set-up of the benchmark in this (fresh) interpreter.

Set-up is everything a run pays once, before its first iteration:
importing ``repro`` and the benchmark, and building the workload
table.  Iterations fork from the process that has done exactly that,
so work moved out of an iteration and into import time lands here.
Prints the wall seconds and the calibration spins around them.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.harness import calibrate  # noqa: E402  (stdlib only)

if __name__ == "__main__":
    spins = calibrate()
    start = time.perf_counter()
    import benchmarks.e2e.run  # noqa: F401  (the set-up being measured)

    wall = time.perf_counter() - start
    spins += calibrate()
    print(json.dumps({"wall_s": wall, "spins": spins}))
