"""The benchmark's traced mode still patches the package it measures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mergebet

TRACED_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
import tracing
from mergebet import harness
tracer = tracing.Tracer()
tracer.install()
cfg = harness.ExperimentConfig.load("diverge-iid")
cfg.t = 60
harness.run_experiment(cfg)
print(json.dumps(tracer.take()))
"""


def test_traced_mode_counts_calls_into_the_package():
    # a subprocess, so the patched functions stay out of this interpreter;
    # a rename that tracing.py does not follow fails here
    src = Path(mergebet.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", TRACED_RUN],
                         capture_output=True, text=True, check=True,
                         cwd=src.parent, env=dict(os.environ, PYTHONPATH=str(src)))
    counts = json.loads(out.stdout.splitlines()[-1])
    for key in ("metrics.profile_builds", "metrics.hellinger_calls",
                "protocol.leg_advance_calls"):
        assert counts[key] > 0, key
