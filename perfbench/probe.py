"""Set-up probe: import the CLI entry point and parse one round's configs.

Usage: probe.py <workload> <seed>. Prints one JSON line with the import and
config-parsing times and exits; the caller times the whole process from
spawn to that line.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import mergebet.cli  # noqa: E402,F401  (the timed import)
t1 = perf_counter()

import workloads  # noqa: E402
from mergebet.harness import ExperimentConfig  # noqa: E402

ops = workloads.build(sys.argv[1], int(sys.argv[2]))
t2 = perf_counter()
for op in ops:
    ExperimentConfig.from_dict(op.config)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t3 - t2}), flush=True)
