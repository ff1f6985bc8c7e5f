"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with plain ``pytest``; the per-criterion verdict lines bypass output
capture so they are always visible.
"""

import math

import numpy as np

from mergebet.harness import (ExperimentConfig, incremental_capitals,
                              oracle_expect_capital, oracle_metrics, play,
                              run_experiment)
from mergebet.measures import Alphabet, bernoulli
from mergebet.metrics import (_chain_affinity, hellinger_restricted,
                              hellinger_tv_bounds, tv_restricted)
from mergebet.protocol import BetOrder, ForecastPair, ProtocolState, order_cost
from mergebet.scenarios import make_forecaster, make_reality
from mergebet.strategy import LimWrapConfig, MixtureSceptic, build_hedge, \
    wrap_capital_path

from conftest import random_markov, random_measure, walk_profiles


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def replay(cfg):
    """Drive the protocol keeping the mixture visible (same path as the cfg)."""
    mix = MixtureSceptic(cfg.j_max, cfg.m_max, cfg.budget)
    reality = make_reality(cfg.reality, default_seed=cfg.seed)
    play(cfg.forecasters(), mix, reality, cfg.t, cfg.budget)
    return mix


def test_criterion_1_divergence_growth(capsys):
    cfg = ExperimentConfig.load("diverge-iid")
    trace = run_experiment(cfg)
    final_geo = trace.rows[-1].log2_geomean
    growth_ok = final_geo >= 99.0

    mix = replay(cfg)
    h34 = hellinger_restricted(bernoulli(0.4), bernoulli(0.6), 34)
    cycle_ok, worst = True, 0.0
    half = mix.components[0]
    assert len(half.cycles) == 100
    for comp in mix.components:
        for cyc in comp.cycles:
            geo = math.sqrt(cyc.mult_i * cyc.mult_ii)
            err = abs(geo - 1.0 / cyc.h_m)
            worst = max(worst, err)
            cycle_ok = cycle_ok and err <= 1e-9
    for cyc in half.cycles:
        cycle_ok = cycle_ok and cyc.horizon == 34 and cyc.h_m == h34

    ok = growth_ok and cycle_ok
    report(capsys, "criterion 1 divergence growth", ok,
           f"final log2 geomean {final_geo:.3f} (need >= 99), "
           f"max cycle deviation from 1/H_34 {worst:.2e}")


def test_criterion_2_martingale_exactness(capsys):
    base = {
        "alphabet_size": 2, "T": 6,
        "reality": {"kind": "sample",
                    "measure": {"family": "iid", "weights": [0.5, 0.5]}},
        "sceptic": {"J": 3, "M_max": 4}, "m_report": 4, "seed": 0,
    }
    worst = 0.0
    for w_i, w_ii in [([0.6, 0.4], [0.4, 0.6]),   # no bets within M_max
                      ([0.9, 0.1], [0.1, 0.9])]:  # hedges trigger at m = 2
        d = dict(base)
        d["forecaster_I"] = {"kind": "coherent",
                             "measure": {"family": "iid", "weights": w_i}}
        d["forecaster_II"] = {"kind": "coherent",
                              "measure": {"family": "iid", "weights": w_ii}}
        cfg = ExperimentConfig.from_dict(d)
        for side in ("I", "II"):
            worst = max(worst, abs(oracle_expect_capital(cfg, side) - 1.0))
    ok = worst <= 1e-9
    report(capsys, "criterion 2 martingale exactness", ok,
           f"max |E[K] - 1| over exhaustive enumeration {worst:.2e}")


def test_criterion_3_merging_quiescence(capsys):
    base = ExperimentConfig.load("merge-beta").raw
    quiet, merged = 0, 0
    seeds = 100
    for seed in range(seeds):
        d = dict(base)
        d["seed"] = seed
        trace = run_experiment(ExperimentConfig.from_dict(d))
        late_bets = [s for s in trace.component_bet_steps[0] if s > 5000]
        if not late_bets:
            quiet += 1
        if 1.0 - trace.rows[-1].h_m <= 1e-3:
            merged += 1
    ok = quiet >= 95 and merged >= 95
    report(capsys, "criterion 3 merging quiescence", ok,
           f"{quiet}/{seeds} seeds with no eps=1/2 bets after step 5000, "
           f"{merged}/{seeds} seeds with 1-H_8 <= 1e-3 at T")


def test_criterion_4_singular_pair_inertness(capsys):
    cfg = ExperimentConfig.load("singular-pair")
    trace = run_experiment(cfg)
    bets_small_j = sum(trace.component_bets[:18])

    f_i = make_forecaster(cfg.forecaster_i)
    f_ii = make_forecaster(cfg.forecaster_ii)
    p_i, p_ii = f_i.announce(1, ()), f_ii.announce(1, ())
    worst_gap = max(1.0 - hellinger_restricted(p_i, p_ii, m)
                    for m in range(1, 11))
    ok = bets_small_j == 0 and worst_gap <= 2e-6
    report(capsys, "criterion 4 singular-pair inertness", ok,
           f"bets by components j<=18 over 10^4 steps: {bets_small_j}, "
           f"max 1-H_m for m<=10: {worst_gap:.2e} (need <= 2e-6)")


def test_criterion_5_metric_identities(capsys):
    rng = np.random.default_rng(11)
    mono_ok, pairs = True, 1000
    for _ in range(pairs):
        p, q = random_measure(rng), random_measure(rng)
        hs = [hellinger_restricted(p, q, m) for m in range(9)]
        tvs = [tv_restricted(p, q, m) for m in range(9)]
        for m in range(8):
            mono_ok = mono_ok and hs[m + 1] <= hs[m] + 1e-10
            mono_ok = mono_ok and tvs[m + 1] >= tvs[m] - 1e-10
        for h, tv in zip(hs, tvs):
            lo, hi = hellinger_tv_bounds(min(h, 1.0))
            mono_ok = mono_ok and lo - 1e-10 <= tv <= hi + 1e-10

    dp_worst = 0.0
    for _ in range(100):
        p = random_markov(rng, order=int(rng.integers(1, 3)))
        q = random_markov(rng, order=int(rng.integers(1, 3)))
        chain, walk = _chain_affinity(p, q), walk_profiles(p, q, 10)[0]
        for m in (1, 4, 7, 10):
            dp_worst = max(dp_worst, abs(chain(m) - walk[m]))

    sup_worst = 0.0
    for _ in range(50):
        p, q = random_measure(rng), random_measure(rng)
        for m in (1, 2, 3):
            _, tv, sup_tv = oracle_metrics(p, q, m)
            sup_worst = max(sup_worst, abs(sup_tv - tv))

    ok = mono_ok and dp_worst <= 1e-12 and sup_worst <= 1e-12
    report(capsys, "criterion 5 metric identities", ok,
           f"monotonicity+sandwich over {pairs} pairs: {mono_ok}, "
           f"dp-vs-enumeration worst {dp_worst:.2e}, "
           f"sup-events-vs-L1 worst {sup_worst:.2e}")


def test_criterion_6_accounting_equivalence(capsys):
    rng = np.random.default_rng(23)
    alphabet = Alphabet(2)
    runs = 10_000
    worst_eq, worst_purchase, min_cap = 0.0, 0.0, math.inf
    for _ in range(runs):
        p_base, q_base = random_measure(rng), random_measure(rng)
        pair = ForecastPair(p_base, q_base)
        state = ProtocolState(alphabet, pair)
        pairs, orders, outcomes = [pair], [], []
        history = ()
        for n in range(1, 7):
            step = []
            for side in ("I", "II"):
                stakes = {}
                for _ in range(rng.integers(0, 4)):
                    ln = int(rng.integers(1, 4))
                    x = tuple(int(s) for s in rng.integers(0, 2, size=ln))
                    stakes[x] = stakes.get(x, 0.0) + float(rng.uniform(0, 2))
                cost = order_cost(BetOrder(dict(stakes)), pair.side(side))
                cash = state.portfolios[side].cash
                if cost > cash:
                    scale = 0.99 * cash / cost if cash > 0.0 else 0.0
                    stakes = {x: v * scale for x, v in stakes.items()}
                before = state.capital(side)
                state.place_order(side, BetOrder(dict(stakes)))
                worst_purchase = max(worst_purchase,
                                     abs(state.capital(side) - before))
                step.append(stakes)
            orders.append(tuple(step))
            y = int(rng.integers(0, 2))
            outcomes.append(y)
            history = history + (y,)
            pair = ForecastPair(p_base.condition(history),
                                q_base.condition(history))
            pairs.append(pair)
            state.settle_step(y, pair)
            min_cap = min(min_cap, state.capital("I"), state.capital("II"))
        ref = incremental_capitals(pairs, orders, outcomes)[-1]
        worst_eq = max(worst_eq, abs(state.capital("I") - ref[0]),
                       abs(state.capital("II") - ref[1]))
    ok = worst_eq <= 1e-9 and min_cap >= 0.0 and worst_purchase <= 1e-12
    report(capsys, "criterion 6 accounting equivalence", ok,
           f"{runs} fuzzed runs: worst |cash+mark - incremental| "
           f"{worst_eq:.2e}, min capital {min_cap:.2e}, "
           f"worst purchase jump {worst_purchase:.2e}")


def test_criterion_7_hedge_spot_values(capsys):
    p, q = bernoulli(0.4), bernoulli(0.6)
    f_i = build_hedge(p, q, 1, 1.0)
    f_ii = build_hedge(q, p, 1, 1.0)
    cost = order_cost(f_i, p)
    prod = f_i.stakes[(1,)] * f_ii.stakes[(1,)]
    ok = (abs(f_i.stakes[(1,)] - 1.25) <= 1e-12
          and abs(f_i.stakes[(0,)] - 5.0 / 6.0) <= 1e-12
          and abs(cost - 1.0) <= 1e-12
          and abs(prod - 1.0 / 0.96) <= 1e-12
          and abs(f_i.stakes[(0,)] * f_ii.stakes[(0,)] - 1.0 / 0.96) <= 1e-12)
    report(capsys, "criterion 7 hedge spot values", ok,
           f"f(1)={f_i.stakes[(1,)]:.12f}, f(0)={f_i.stakes[(0,)]:.12f}, "
           f"cost={cost:.12f}, cross product={prod:.12f}")


def test_criterion_8_lim_wrap_behavior(capsys):
    cfg = LimWrapConfig(num_accounts=10)
    # base reaches 2, then collapses: the frozen account keeps >= 1 forever
    path_a = [1.0, 1.5, 2.0, 0.25, 0.0, 0.0]
    wrapped_a = wrap_capital_path(path_a, cfg)
    floor_ok = all(w >= 1.0 for w in wrapped_a[2:])
    # bounded base: wrapped capital never exceeds the supremum of the base
    rng = np.random.default_rng(3)
    path_b = list(rng.uniform(0.0, 9.0, size=500))
    wrapped_b = wrap_capital_path(path_b, cfg)
    bound_ok = max(wrapped_b) <= max(path_b) + 1e-9
    ok = floor_ok and bound_ok
    report(capsys, "criterion 8 lim_wrap behavior", ok,
           f"frozen floor after base hits 2: min {min(wrapped_a[2:]):.3f} "
           f"(need >= 1), bounded-path sup check: {bound_ok}")
