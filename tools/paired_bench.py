"""Run perfbench alternately in two checkouts and summarise the pairs.

Usage (from anywhere):

    python3 tools/paired_bench.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are roots of mergebet checkouts. Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each root, at
perfbench's default run length, the parent first on odd pairs and the change
first on even ones. Progress goes to stderr; stdout receives one JSON object:
every run (pair, side, which side ran first, ``step_us``, ``setup_s``,
``peak_rss_mb``, operations attempted and failed, perfbench's exit code),
each side's median and quartiles per metric (linear interpolation,
inclusive) with its failed shares and its bad runs (the pairs whose
perfbench exited nonzero or reported ``correct: false``), and a verdict on
each metric: in how many pairs the change read lower (ties count for
neither), the change of medians, the gap of medians (parent less change)
beside the parent's interquartile range, and whether the change's median is
worse than the parent's by more than the metric's ``bound`` in the
``BENCHMARK.json`` beside this tool. It exits 1 when either side has a bad
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("step_us", "setup_s", "peak_rss_mb")
DIGITS = {"step_us": 2, "setup_s": 4, "peak_rss_mb": 3}
SIDES = ("parent", "change")


def quartiles(values: list) -> dict:
    """Median and quartiles, inclusive linear interpolation."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def bounds() -> dict:
    """Each end-to-end metric's (bound, better) in this checkout's
    ``BENCHMARK.json``."""
    bench = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def summarize(runs: list, limits: dict) -> dict:
    """The summary of a list of runs, each a dict with ``pair``, ``side``,
    the METRICS, ``attempted``, ``failed``, ``correct`` and ``exit``, judged
    by ``limits`` as ``bounds`` gives them; the runs are kept last."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out: dict = {"summary": {}}
    for side, rs in by_side.items():
        out["summary"][side] = {
            **{k: quartiles([r[k] for r in rs]) for k in METRICS},
            "failed_share": sorted({round(r["failed"] / r["attempted"], 4)
                                    for r in rs if r["attempted"]}),
            "bad_runs": [f"pair {r['pair']}: exit {r['exit']}, correct "
                         f"{str(r['correct']).lower()}" for r in rs
                         if r["exit"] or not r["correct"]],
            "runs": len(rs)}
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r
    whole = [p for p in pairs.values() if len(p) == 2]
    for k in METRICS:
        lower = sum(p["change"][k] < p["parent"][k] for p in whole)
        out[f"change_{k}_lower_in_pairs"] = f"{lower}/{len(whole)}"
        parent = out["summary"]["parent"][k]
        change = out["summary"]["change"][k]
        ratio = change["median"] / parent["median"] - 1
        out[f"{k}_median_change"] = f"{ratio:+.1%}"
        out[f"{k}_gap_vs_parent_iqr"] = [
            round(parent["median"] - change["median"], DIGITS[k]),
            round(parent["q3"] - parent["q1"], DIGITS[k])]
        bound, better = limits[k]
        out[f"{k}_worse_than_bound"] = (
            ratio if better == "lower" else -ratio) > bound
    out["runs"] = runs
    return out


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in ``root``: its metrics and counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"perfbench in {root} exited with code "
                         f"{proc.returncode} and no result") from None
    run = {k: round(result["metrics"][k]["value"], DIGITS[k]) for k in METRICS}
    return dict(run, attempted=result["attempted"], failed=result["failed"],
                correct=result["correct"], exit=proc.returncode)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    roots = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            run = run_once(roots[side], args.workload, args.seed)
            runs.append({"pair": pair, "side": side, "first": order[0], **run})
            print(f"pair {pair} {side}: step_us {run['step_us']}",
                  file=sys.stderr, flush=True)
    out = summarize(runs, bounds())
    print(json.dumps(out, indent=1))
    return 1 if any(out["summary"][s]["bad_runs"] for s in SIDES) else 0


if __name__ == "__main__":
    sys.exit(main())
