"""Betting engine: orders, settlement, capitals, accounting equivalence."""

import math

import numpy as np
import pytest

from mergebet.errors import DomainError, PhaseError
from mergebet.harness import incremental_capitals
from mergebet.measures import Alphabet, IID, bernoulli
from mergebet.metrics import hellinger_restricted
from mergebet.protocol import (BetOrder, ForecastPair, HedgeLeg, ProtocolState,
                               order_cost)
from mergebet.strategy import build_hedge

from conftest import random_measure

A2 = Alphabet(2)


def fresh_state(p=None, q=None):
    pair = ForecastPair(p or bernoulli(0.4), q or bernoulli(0.6))
    return ProtocolState(A2, pair), pair


# -- order cost ---------------------------------------------------------------


def test_empty_order_costs_nothing():
    assert order_cost(BetOrder(), bernoulli(0.4)) == 0.0


def test_single_contract_cost():
    order = BetOrder({(0,): 2.0})
    assert order_cost(order, bernoulli(0.4)) == pytest.approx(1.2, abs=1e-15)


def test_hedge_costs_its_capital(rng):
    for _ in range(50):
        p, q = random_measure(rng), random_measure(rng)
        m = int(rng.integers(1, 6))
        k = float(rng.uniform(0.0, 3.0))
        hedge = build_hedge(p, q, m, k)
        assert order_cost(hedge, p) == pytest.approx(k, abs=1e-12 * max(k, 1.0))


def test_stake_on_empty_string_rejected():
    with pytest.raises(DomainError):
        BetOrder({(): 1.0})


def test_a_leg_is_marked_only_at_a_horizon_on_one_alphabet():
    p = bernoulli(0.4)
    for other, m in ((bernoulli(0.6), -1), (IID([0.2, 0.3, 0.5]), 2)):
        state, _ = fresh_state()
        with pytest.raises(DomainError):
            state.place_order("I", BetOrder(legs=[(1.0, HedgeLeg(1.0, p,
                                                                 other, m))]))


def test_order_scale_and_zero():
    a = BetOrder({(0,): 1.5, (1, 0): 2.0})
    assert BetOrder.zero().is_zero()
    assert not a.is_zero()


# -- placement ---------------------------------------------------------------


def test_initial_capitals_are_one():
    state, _ = fresh_state()
    assert state.capital("I") == 1.0
    assert state.capital("II") == 1.0


def test_zero_order_changes_nothing():
    state, _ = fresh_state()
    state.place_order("I", BetOrder.zero())
    assert state.portfolios["I"].cash == 1.0
    assert not state.portfolios["I"].contracts


def test_capital_invariant_at_purchase(rng):
    for _ in range(100):
        p, q = random_measure(rng), random_measure(rng)
        state, _ = fresh_state(p, q)
        stakes = {}
        for _ in range(rng.integers(1, 4)):
            ln = int(rng.integers(1, 4))
            x = tuple(int(s) for s in rng.integers(0, 2, size=ln))
            stakes[x] = stakes.get(x, 0.0) + float(rng.uniform(0, 2))
        before = state.capital("I")
        state.place_order("I", BetOrder(stakes))
        assert state.capital("I") == pytest.approx(before, abs=1e-12)


def test_double_placement_raises():
    state, _ = fresh_state()
    state.place_order("I", BetOrder.zero())
    with pytest.raises(PhaseError):
        state.place_order("I", BetOrder({(0,): 1.0}))


def test_unknown_side_rejected():
    state, _ = fresh_state()
    with pytest.raises(DomainError):
        state.place_order("III", BetOrder.zero())
    with pytest.raises(DomainError):
        state.capital("III")


# -- settlement ---------------------------------------------------------------


def advance_step(state, y, pair):
    state.place_order("I", BetOrder.zero())
    state.place_order("II", BetOrder.zero())
    state.settle_step(y, pair)


def test_settle_without_contracts_keeps_capitals():
    state, pair = fresh_state()
    advance_step(state, 1, pair)
    assert state.capital("I") == 1.0
    assert state.capital("II") == 1.0
    assert state.n == 2
    assert state.history == (1,)


def test_one_step_hedge_multiplies_capital():
    # stakes f(1) = 1.25, f(0) = 5/6 cost exactly 1 under Bernoulli(0.4 on 1)
    p, q = bernoulli(0.4), bernoulli(0.6)
    state, pair = fresh_state(p, q)
    state.place_order("I", BetOrder({(1,): 1.25, (0,): 5.0 / 6.0}))
    state.place_order("II", BetOrder.zero())
    assert state.capital("I") == pytest.approx(1.0, abs=1e-12)
    state.settle_step(1, pair)
    assert state.capital("I") == pytest.approx(1.25, abs=1e-12)


def test_inconsistent_prefix_dies_worthless():
    state, pair = fresh_state()
    state.place_order("I", BetOrder({(1, 0): 3.0}))
    state.place_order("II", BetOrder.zero())
    state.settle_step(0, pair)
    assert not state.portfolios["I"].contracts


def test_long_contract_rebased_to_tail():
    state, pair = fresh_state()
    state.place_order("I", BetOrder({(1, 0): 3.0}))
    state.place_order("II", BetOrder.zero())
    state.settle_step(1, pair)
    assert state.portfolios["I"].contracts == {(0,): 3.0}


def test_settle_rejects_bad_symbol():
    state, pair = fresh_state()
    state.place_order("I", BetOrder.zero())
    state.place_order("II", BetOrder.zero())
    with pytest.raises(DomainError):
        state.settle_step(5, pair)


def test_settle_refuses_a_non_integer_symbol_and_keeps_the_books():
    # a float is not truncated to a symbol: nothing settles, nothing moves
    state, pair = fresh_state()
    leg = HedgeLeg(0.5, pair.p_i, pair.p_ii, 3)
    state.place_order("I", BetOrder({(1,): 1.0, (1, 0): 2.0}, [(1.0, leg)]))
    state.place_order("II", BetOrder({(0,): 1.0}))

    def books():
        return [(pf.cash, dict(pf.contracts), list(pf.legs))
                for pf in state.portfolios.values()]

    kept = books()
    for y in (1.7, 1.0, "1", None):
        with pytest.raises(DomainError):
            state.settle_step(y, pair)
        assert books() == kept
        assert (leg.scale, leg.horizon, leg.own) == (0.5, 3, pair.p_i)
        assert state.n == 1 and state.history == ()
    state.settle_step(1, pair)
    assert state.portfolios["I"].contracts == {(0,): 2.0}


def test_full_hedge_expiry_payoff(rng):
    # payoff on the realized block is K * sqrt(Q(x*)/P(x*)) / H_m
    p, q = bernoulli(0.3), bernoulli(0.7)
    m, k = 3, 1.0
    h = hellinger_restricted(p, q, m)
    for block in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        state, pair = fresh_state(p, q)
        state.place_order("I", build_hedge(p, q, m, k))
        state.place_order("II", BetOrder.zero())
        for y in block:
            state.settle_step(y, pair)
            if state.n <= m:
                state.place_order("I", BetOrder.zero())
                state.place_order("II", BetOrder.zero())
        ratio = math.exp(0.5 * (q.cylinder_log_prob(block)
                                - p.cylinder_log_prob(block)))
        assert state.capital("I") == pytest.approx(k * ratio / h, abs=1e-12)


def test_symbolic_leg_equals_explicit_hedge():
    # the symbolic leg marks and pays exactly like the enumerated stakes
    p, q = bernoulli(0.3), bernoulli(0.7)
    m = 4
    h = hellinger_restricted(p, q, m)
    leg = HedgeLeg(1.0 / h, p, q, m)
    explicit = build_hedge(p, q, m, 1.0)
    assert leg.value() == pytest.approx(order_cost(explicit, p), abs=1e-12)
    payoff = None
    for y in (1, 0, 1, 1):
        payoff = leg.advance(y)
    ratio = math.exp(0.5 * (q.cylinder_log_prob((1, 0, 1, 1))
                            - p.cylinder_log_prob((1, 0, 1, 1))))
    assert payoff == pytest.approx(ratio / h, abs=1e-12)


# -- accounting equivalence ---------------------------------------------------


def run_fuzzed(rng, t=6):
    p_base, q_base = random_measure(rng), random_measure(rng)
    pair = ForecastPair(p_base, q_base)
    state = ProtocolState(A2, pair)
    pairs, orders, outcomes = [pair], [], []
    history = ()
    for n in range(1, t + 1):
        step = []
        for side in ("I", "II"):
            stakes = {}
            for _ in range(rng.integers(0, 4)):
                ln = int(rng.integers(1, 4))
                x = tuple(int(s) for s in rng.integers(0, 2, size=ln))
                stakes[x] = stakes.get(x, 0.0) + float(rng.uniform(0, 2))
            # never stake beyond cash on hand (nonnegativity precondition)
            cost = order_cost(BetOrder(dict(stakes)), pair.side(side))
            cash = state.portfolios[side].cash
            if cost > cash > 0.0:
                stakes = {x: v * 0.99 * cash / cost for x, v in stakes.items()}
            elif cost > cash:
                stakes = {}
            state.place_order(side, BetOrder(dict(stakes)))
            step.append(stakes)
        orders.append(tuple(step))
        y = int(rng.integers(0, 2))
        outcomes.append(y)
        history = history + (y,)
        pair = ForecastPair(p_base.condition(history), q_base.condition(history))
        pairs.append(pair)
        state.settle_step(y, pair)
    return state, pairs, orders, outcomes


def test_cash_mark_equals_incremental(rng):
    worst = 0.0
    for _ in range(300):
        state, pairs, orders, outcomes = run_fuzzed(rng)
        ref = incremental_capitals(pairs, orders, outcomes)[-1]
        worst = max(worst, abs(state.capital("I") - ref[0]),
                    abs(state.capital("II") - ref[1]))
    assert worst <= 1e-9


def test_capitals_never_negative(rng):
    for _ in range(100):
        state, *_ = run_fuzzed(rng)
        assert state.capital("I") >= 0.0
        assert state.capital("II") >= 0.0
