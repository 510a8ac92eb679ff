"""Time one set-up of a workload in a fresh interpreter.

Run from the repository root:  python3 bench/setup_probe.py <workload>

Prints one JSON line: the seconds spent in `import gfs` and in building the
workload's fixed gfs objects (profiles, F, F^{#k}, P, shells and chains).
The benchmark's own input generation is not part of set-up.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

t0 = time.perf_counter()
import gfs  # noqa: E402
t1 = time.perf_counter()

import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].build(gfs)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))
