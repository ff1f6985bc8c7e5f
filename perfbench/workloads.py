"""The benchmark's workloads: the experiments of one round, and their checks.

One operation is one ``run_experiment`` call (one config and seed) together
with the checks of its trace. A round is the fixed list of operations that
``build`` returns for a workload and seed; a run repeats whole rounds.

Every check compares the trace with ``reference`` (which shares no code with
``mergebet.metrics``) or with a property the method must have; none compares
with stored output of an earlier version.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import reference

NAMES = ("diverge", "merge", "singular", "markov-mix")

#: rows of each trace whose h_m / tv_m are recomputed by the reference
SAMPLED_ROWS = 32
#: absolute tolerance between a traced metric and its reference; Beta
#: learner rows add the rounding bound of the log-gamma count route
METRIC_TOL = 1e-12
#: merge: seeds per round, run back to back as ``mergebet sweep`` runs them
MERGE_SEEDS = 3
#: markov-mix: seeds per round; its step cost depends on the path (one
#: seed's experiment took 0.7 to 1.7 s over 40 seeds), so a round averages
#: many paths
MARKOV_SEEDS = 16
MARKOV_T = 24
#: horizon of the exhaustive martingale oracle per workload (2^T paths)
SHORT_T = {"diverge": 6, "merge": 6, "singular": 6, "markov-mix": 3}
#: the fast-diverging run keeps one seed whatever the run's seed: it fails
#: for a fault of the program, on every run, and must fail the same way
FAST_SEED = 1

Check = Tuple[str, bool, str]


@dataclass
class Op:
    label: str
    config: dict
    checks: List[Callable[[dict, object], Check]]
    known_fault: Optional[str] = None


def _iid(w):
    return {"kind": "coherent", "measure": {"family": "iid", "weights": w}}


def _catalog(name: str) -> dict:
    # imported on use: run.py reads NAMES without loading numpy
    from mergebet.scenarios import catalog
    return copy.deepcopy(catalog()[name])


def _markov_mix(seed: int) -> dict:
    chains = [{"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]},
              {"family": "markov", "transition": [[0.4, 0.6], [0.6, 0.4]]}]

    def mix(w):
        return {"kind": "coherent", "measure": {
            "family": "mixture", "weights": w, "components": chains}}

    return {
        "alphabet_size": 2,
        "T": MARKOV_T,
        "forecaster_I": mix([0.5, 0.5]),
        "forecaster_II": mix([0.9, 0.1]),
        "reality": {"kind": "sample", "measure": chains[0]},
        "sceptic": {"J": 8, "M_max": 8, "lim_wrap": False},
        "m_report": 6,
        "seed": seed,
    }


# -- per-operation checks ------------------------------------------------------

def _sampled_rows(t: int) -> List[int]:
    k = min(SAMPLED_ROWS, t)
    return sorted({1 + (i * (t - 1)) // max(k - 1, 1) for i in range(k)})


def check_rows(cfg: dict, trace) -> Check:
    m = cfg["m_report"]

    def ref(p, q):
        return reference.h_tv(p, q, m) + (
            reference.tolerance(p, q, m, METRIC_TOL),)

    ys = [r.y for r in trace.rows]
    refs = reference.at_rows(cfg, ys, _sampled_rows(len(ys)), ref)
    worst, where, tol_at = 0.0, 0, METRIC_TOL
    ok = True
    for n, (h, tv, tol) in refs.items():
        row = trace.rows[n - 1]
        err = max(abs(row.h_m - h), abs(row.tv_m - tv))
        ok = ok and err <= tol
        if not err <= worst:
            worst, where, tol_at = err, n, tol
    return ("rows match reference", ok,
            f"max |traced - reference| {worst:.2e} at row {where} (tol there "
            f"{tol_at:.1e}) over {len(refs)} rows")


def check_bets_certified(cfg: dict, trace) -> Check:
    """A component with epsilon = 2^-j bets at step n only if the reference
    certifies H_{M_max} < 1 - 2^-j for the pair announced at step n."""
    m_max = cfg["sceptic"]["M_max"]

    def ref(p, q):
        return (reference.h_tv(p, q, m_max)[0],
                reference.tolerance(p, q, m_max, METRIC_TOL))

    ys = [r.y for r in trace.rows]
    steps = {n for bets in trace.component_bet_steps for n in bets}
    refs = reference.at_rows(cfg, ys, steps, ref)
    bad = [(j, n) for j, bets in enumerate(trace.component_bet_steps, start=1)
           for n in bets if not refs[n][0] < 1.0 - 2.0 ** -j + refs[n][1]]
    total = sum(len(b) for b in trace.component_bet_steps)
    return ("bets certified by reference", not bad,
            f"uncertified (j, step): {bad[:5]}" if bad else
            f"all {total} bets")


def check_affinity_floor(cfg: dict, trace) -> Check:
    """1 - H_m <= 2 delta_n, delta_n the larger posterior weight of a
    forecaster's carrier component (delta itself at step 1)."""
    def delta(p, q):
        return max(1.0 - p.posterior()[0], 1.0 - q.posterior()[0])

    deltas = reference.at_rows(cfg, [r.y for r in trace.rows],
                               range(1, len(trace.rows) + 1), delta)
    bad = [r.n for r in trace.rows if not 1.0 - r.h_m <= 2 * deltas[r.n]]
    return ("1 - h_m <= 2 delta_n", not bad,
            f"rows {bad[:5]} above" if bad else
            f"every row (delta_1 = {deltas[1]:.3g})")


def check_finite(cfg: dict, trace) -> Check:
    bad = next((r.n for r in trace.rows
                if not (math.isfinite(r.log2_k1) and math.isfinite(r.log2_k2))),
               None)
    return ("capitals finite", bad is None,
            "every row" if bad is None else f"first non-finite log2 capital "
                                            f"at step {bad}")


def check_strides(cfg: dict, trace) -> Check:
    t = cfg["T"]
    bad = []
    for j, m in enumerate(reference.hedge_strides(cfg), start=1):
        want = list(range(1, t + 1, m)) if m else []
        if trace.component_bet_steps[j - 1] != want:
            bad.append(j)
    return ("bet steps stride m_j", not bad,
            f"components off stride: {bad}" if bad else
            f"all {len(trace.component_bet_steps)} components")


def check_growth(cfg: dict, trace) -> Check:
    floor = reference.growth_floor(cfg)
    final = trace.rows[-1].log2_geomean
    return ("growth floor", final >= floor,
            f"final log2_geomean {final:.6f} (need >= {floor:.6f})")


def check_quiescence(cfg: dict, trace) -> Check:
    late = [s for s in trace.component_bet_steps[0] if s > 5000]
    return ("no eps=1/2 bet after step 5000", not late,
            f"late bets at {late[:5]}" if late else "none")


def check_merged(cfg: dict, trace) -> Check:
    gap = 1.0 - trace.rows[-1].h_m
    return ("1 - H_8 <= 1e-3 at T", gap <= 1e-3, f"1 - H_8 = {gap:.3e}")


def check_sandwich(cfg: dict, trace) -> Check:
    bad = 0
    for r in trace.rows:
        gap = max(1.0 - r.h_m, 0.0)
        if not (2 * gap - METRIC_TOL <= r.tv_m
                <= math.sqrt(8 * gap) + METRIC_TOL):
            bad += 1
    return ("2(1-H) <= TV <= sqrt(8(1-H))", bad == 0, f"{bad} rows outside")


# -- workloads -----------------------------------------------------------------

def build(name: str, seed: int) -> List[Op]:
    """The operations of one round of ``name`` for the run seed ``seed``."""
    if name == "diverge":
        slow = _catalog("diverge-iid")
        slow["seed"] = seed
        fast = _catalog("diverge-iid")
        fast.update(T=1500, seed=FAST_SEED, forecaster_I=_iid([0.9, 0.1]),
                    forecaster_II=_iid([0.1, 0.9]))
        iid_checks = [check_rows, check_strides, check_growth, check_finite]
        return [Op("diverge-iid", slow, iid_checks),
                Op("fast-iid", fast, iid_checks,
                   known_fault="capitals are plain floats: side II passes "
                               "2^1024 and log2 capitals turn NaN")]
    if name == "merge":
        ops = []
        for s in range(seed * MERGE_SEEDS, (seed + 1) * MERGE_SEEDS):
            cfg = _catalog("merge-beta")
            cfg["seed"] = s
            ops.append(Op(f"merge-beta@{s}", cfg,
                          [check_rows, check_quiescence, check_merged,
                           check_bets_certified, check_finite]))
        return ops
    if name == "singular":
        cfg = _catalog("singular-pair")
        cfg["seed"] = seed
        return [Op("singular-pair", cfg,
                   [check_rows, check_bets_certified, check_affinity_floor,
                    check_finite])]
    if name == "markov-mix":
        return [Op(f"markov-mix@{s}", _markov_mix(s),
                   [check_rows, check_sandwich, check_bets_certified,
                    check_finite])
                for s in range(seed * MARKOV_SEEDS, (seed + 1) * MARKOV_SEEDS)]
    raise ValueError(f"unknown workload {name!r}")


def distinct_pairs(ops: List[Op]) -> List[Op]:
    seen, out = set(), []
    for op in ops:
        key = json.dumps([op.config[k] for k in
                          ("forecaster_I", "forecaster_II", "sceptic",
                           "m_report")], sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


def run_checks(name: str, ops: List[Op]) -> List[Check]:
    """Checks made once per run, before any operation is timed."""
    from mergebet.harness import (ExperimentConfig, oracle_expect_capital,
                                  oracle_metrics)
    out = []
    for op in distinct_pairs(ops):
        cfg = ExperimentConfig.from_dict(op.config)
        p, q = cfg.forecaster_i.measure, cfg.forecaster_ii.measure
        worst = 0.0
        for m in range(1, 9):
            h_o, tv_o, _ = oracle_metrics(p, q, m)
            h_r, tv_r = reference.h_tv(
                reference.tracker(op.config["forecaster_I"]["measure"]),
                reference.tracker(op.config["forecaster_II"]["measure"]), m)
            worst = max(worst, abs(h_o - h_r), abs(tv_o - tv_r))
        out.append((f"{op.label}: reference vs oracle_metrics, m <= 8",
                    worst <= METRIC_TOL, f"max deviation {worst:.2e}"))

        short = copy.deepcopy(op.config)
        short["T"] = SHORT_T[name]
        short_cfg = ExperimentConfig.from_dict(short)
        dev = max(abs(oracle_expect_capital(short_cfg, side) - 1.0)
                  for side in ("I", "II"))
        out.append((f"{op.label}: E[K] = 1 at T={short['T']}", dev <= 1e-9,
                    f"max |E[K] - 1| {dev:.2e}"))
    return out
