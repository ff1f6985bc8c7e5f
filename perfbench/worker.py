"""One workload in one single-threaded process: checks, then timed rounds.

Started by ``run.py``; prints one line per check and, as its last line, a
JSON object with the operation counts, the check verdict, the
microseconds per protocol step (the run's total ``run_experiment`` time over
its total steps, restated at the reference host speed by ``hostspeed``, and
as measured), the peak resident memory and, in traced mode, the median
per-layer metrics of a round.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

from mergebet import harness

import hostspeed
import tracing
import workloads

SPAN_DIR = Path(__file__).resolve().parent / "out"
#: time spent timing the host-speed kernel, as a share of experiment time
CALIBRATION_SHARE = 0.25


class Timing:
    """Run time and steps of the experiments that did not raise, and the
    timings of the host-speed kernel made between them."""

    def __init__(self):
        self.run_s = self.kernel_s = 0.0
        self.kernels = self.steps = 0

    def calibrate(self) -> None:
        """Time the kernel until its timings add up to CALIBRATION_SHARE of
        the experiments' time so far (once at least). Timing the host's
        speed that long is what averages out its second-to-second jitter."""
        while not self.kernels or (self.kernel_s
                                   < CALIBRATION_SHARE * self.run_s):
            self.kernel_s += hostspeed.calibrate()
            self.kernels += 1

    def add(self, run_s: float, steps: int) -> None:
        self.run_s += run_s
        self.steps += steps

    def wall_step_us(self) -> float:
        return self.run_s / self.steps * 1e6 if self.steps else float("nan")

    def step_us(self) -> float:
        if not self.steps:
            return float("nan")
        return hostspeed.scale(self.wall_step_us(),
                               self.kernel_s / self.kernels)


def run_round(ops, tracer, timing: Timing, report: bool):
    """Run every operation once; returns (failed, bets).

    The first round reports every check; later rounds report failures of
    operations that have no known fault.
    """
    failed = bets = 0
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        try:
            cfg = harness.ExperimentConfig.from_dict(op.config)
            timing.calibrate()
            t0 = perf_counter()
            trace = harness.run_experiment(cfg)
            timing.add(perf_counter() - t0, op.config["T"])
            bets += sum(trace.component_bets)
            checks = [check(op.config, trace) for check in op.checks]
        except Exception as e:  # an operation that raises counts as failed
            failed += 1
            print(f"op {op.label}: FAIL raised {type(e).__name__}: {e}")
            continue
        passed = all(ok for _, ok, _ in checks)
        if not passed:
            failed += 1
        if report or not (passed or op.known_fault):
            for name, ok, detail in checks:
                if report or not ok:
                    print(f"op {op.label}: {name}: {'ok' if ok else 'FAIL'} "
                          f"({detail})")
            if report and op.known_fault and not passed:
                print(f"op {op.label}: known fault: {op.known_fault}")
    return failed, bets


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed)
    checks = workloads.run_checks(args.workload, ops)
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    hostspeed.calibrate()  # the first timing in a process reads slow
    attempted = failed = rounds = 0
    timing = Timing()
    layers = []
    start = perf_counter()
    while True:
        r0 = perf_counter()
        f, bets = run_round(ops, tracer, timing, report=rounds == 0)
        rounds += 1
        attempted += len(ops)
        failed += f
        if tracer is not None:
            layer = tracer.take()
            layer["strategy.bets"] = bets
            layers.append(layer)
        now = perf_counter()
        if now - start + (now - r0) > args.seconds:
            break

    timing.calibrate()  # covers the host's speed during the last experiment
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "step_us": timing.step_us(),
        "wall_step_us": timing.wall_step_us(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = {k: statistics.median(r[k] for r in layers)
                            for k in layers[0]}
        SPAN_DIR.mkdir(exist_ok=True)
        spans = SPAN_DIR / f"spans-{args.workload}.csv"
        tracer.write_spans(spans)
        print(f"spans written to {spans.relative_to(SPAN_DIR.parent.parent)}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
