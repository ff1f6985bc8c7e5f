"""mergebet benchmark: one workload, or all of them one process at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload diverge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own single-threaded worker process. With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics (``step_us``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
holds the per-layer metrics of a traced run instead. ``step_us`` and
``setup_s`` are restated at a reference host speed (see hostspeed.py); the
summary line before the JSON gives them as measured too. ``--workload all``
runs every workload untraced and, with ``--trace 1``, traced as well, and
prints each workload's tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh interpreters timed per run for ``setup_s``
PROBES = 7
#: a single-workload run must end within this many seconds
LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def probe_setup(workload: str, seed: int, env: dict) -> list:
    """Time PROBES fresh interpreters from spawn until they are ready to step,
    each right after a timing of the host-speed kernel."""
    samples = []
    hostspeed.calibrate()  # the first timing in a process reads slow
    for _ in range(PROBES):
        kernel_s = hostspeed.calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                               workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise BenchError("set-up probe did not exit") from None
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe exited with code {proc.returncode}")
        sample = json.loads(line)
        sample["setup_s"] = hostspeed.scale(ready - t0, kernel_s)
        sample["wall_setup_s"] = ready - t0
        samples.append(sample)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               env: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker for {workload} exceeded {timeout:.0f} s") from e
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with code "
                         f"{proc.returncode}")
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark run of one workload: (result object, step_us)."""
    start = time.perf_counter()
    env = child_env()
    probes = probe_setup(workload, seed, env)
    work = run_worker(workload, seed, seconds, trace, env,
                      LIMIT_S - (time.perf_counter() - start))

    def med(key):
        return statistics.median(p[key] for p in probes)

    if trace:
        layers = dict(work["layers"], **{"harness.config_s": med("config_s"),
                                          "cli.import_s": med("import_s")})
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in layers.items()}
    else:
        metrics = {
            "step_us": {"value": work["step_us"], "unit": "us"},
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{workload} seed {seed}{' traced' if trace else ''}: "
          f"{work['rounds']} rounds, {work['attempted']} operations "
          f"attempted, {work['failed']} failed, checks "
          f"{'ok' if work['correct'] else 'FAILED'}; "
          f"step_us {work['step_us']:.1f} us ({work['wall_step_us']:.1f} us "
          f"as measured), setup_s {med('setup_s'):.4f} s "
          f"({med('wall_setup_s'):.4f} s as measured)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": work["correct"], "attempted": work["attempted"],
              "failed": work["failed"], "metrics": metrics}
    return result, work["step_us"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "src" / "mergebet" / "__init__.py").is_file():
        print(f"no mergebet sources under {ROOT / 'src'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, _ = measure(args.workload, args.seed, args.seconds,
                                args.trace)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results, speeds, ok = {}, {}, True
        for name in NAMES:
            modes = ("untraced", "traced") if args.trace else ("untraced",)
            runs = {mode: measure(name, args.seed, args.seconds, trace)
                    for trace, mode in enumerate(modes)}
            ok = ok and all(r["correct"] for r, _ in runs.values())
            results[name] = {mode: r for mode, (r, _) in runs.items()}
            speeds[name] = [us for _, us in runs.values()]
        print("workload     untraced step_us  traced step_us  overhead")
        for name, us in speeds.items():
            line = f"{name:<12} {us[0]:>16.1f}"
            if len(us) == 2:
                line += (f"  {us[1]:>14.1f}  {us[1] - us[0]:+.1f} us "
                         f"({(us[1] - us[0]) / us[0]:+.1%})")
            print(line)
        print(json.dumps({"workloads": results}))
        return 0 if ok else 1
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
