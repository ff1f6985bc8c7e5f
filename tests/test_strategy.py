"""Sceptic strategies: horizon search, hedges, mixture, lim-wrap."""

import math

import numpy as np
import pytest

from mergebet.errors import BudgetExceeded, DomainError
from mergebet.harness import play
from mergebet.measures import bernoulli
from mergebet.metrics import hellinger_restricted, pair_profile
from mergebet.protocol import ForecastPair, HedgeLeg, order_cost
from mergebet.scenarios import CoherentForecaster, ScriptedReality
from mergebet.strategy import (EpsilonComponent, LimWrap, LimWrapConfig,
                               MixtureSceptic, build_hedge, wrap_capital_path)

from conftest import random_measure

P04, P06 = bernoulli(0.4), bernoulli(0.6)


def forecasters(p, q):
    return CoherentForecaster(p), CoherentForecaster(q)


class CoinReality:
    def __init__(self, rng):
        self.rng = rng

    def next(self, n, history):
        return int(self.rng.integers(0, 2))


# -- horizon search: the first m with H_m < 1 - epsilon ---------------------


def test_find_horizon_identical_measures():
    assert pair_profile(P04, P04).search([1.0 - 0.5], 100)[0] is None


def test_find_horizon_half():
    assert pair_profile(P04, P06).search([1.0 - 0.5], 100)[0] == 34


def test_find_horizon_strict_boundary():
    # H_2 equals 1 - 0.04 exactly, so the strict inequality needs m = 3
    assert pair_profile(P04, P06).search([1.0 - 0.04], 100)[0] == 3


def test_find_horizon_cap():
    assert pair_profile(P04, P06).search([1.0 - 0.5], 33)[0] is None


def test_find_horizon_soundness(rng):
    for _ in range(50):
        p, q = random_measure(rng), random_measure(rng)
        eps = float(rng.uniform(0.001, 0.6))
        m = pair_profile(p, q).search([1.0 - eps], 10)[0]
        if m is None:
            for mm in range(1, 11):
                assert not hellinger_restricted(p, q, mm) < 1.0 - eps
        else:
            for mm in range(1, m):
                assert hellinger_restricted(p, q, mm) >= 1.0 - eps
            assert hellinger_restricted(p, q, m) < 1.0 - eps


# -- hedges -------------------------------------------------------------------


def test_hedge_identity_pair():
    hedge = build_hedge(P04, P04, 2, 3.0)
    for stake in hedge.stakes.values():
        assert stake == pytest.approx(3.0, abs=1e-12)


def test_hedge_spot_values():
    hedge = build_hedge(P04, P06, 1, 1.0)
    assert hedge.stakes[(1,)] == pytest.approx(1.25, abs=1e-12)
    assert hedge.stakes[(0,)] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert order_cost(hedge, P04) == pytest.approx(1.0, abs=1e-12)


def test_hedge_cross_multiplier_product():
    h1 = hellinger_restricted(P04, P06, 1)
    f_i = build_hedge(P04, P06, 1, 1.0)
    f_ii = build_hedge(P06, P04, 1, 1.0)
    for y in (0, 1):
        prod = f_i.stakes[(y,)] * f_ii.stakes[(y,)]
        assert prod == pytest.approx(1.0 / 0.96, abs=1e-12)
        assert prod == pytest.approx(1.0 / h1 ** 2, abs=1e-12)


def test_hedge_cost_identity_random(rng):
    for _ in range(100):
        p, q = random_measure(rng), random_measure(rng)
        m = int(rng.integers(1, 9))
        k = float(rng.uniform(0.0, 5.0))
        hedge = build_hedge(p, q, m, k)
        assert order_cost(hedge, p) == pytest.approx(k, abs=1e-12 * max(k, 1.0))


def test_hedge_rejects_negative_capital():
    with pytest.raises(DomainError):
        build_hedge(P04, P06, 1, -1.0)


def test_hedge_budget():
    with pytest.raises(BudgetExceeded):
        build_hedge(P04, P06, 40, 1.0)


def test_hedge_leg_matches_explicit_value():
    leg = HedgeLeg(2.0 / hellinger_restricted(P04, P06, 5), P04, P06, 5)
    explicit = build_hedge(P04, P06, 5, 2.0)
    assert leg.value() == pytest.approx(order_cost(explicit, P04), abs=1e-12)


# -- epsilon component ---------------------------------------------------------


# a mixture with J = 1 is one epsilon = 1/2 component at weight 1/2


def test_component_idle_on_identical_forecasts():
    mix = MixtureSceptic(j_max=1, m_max=64)
    o_i, o_ii = mix.step_orders(ForecastPair(P04, P04))
    assert o_i.is_zero() and o_ii.is_zero()
    assert not mix.components[0].holding


def test_component_places_paired_hedges():
    mix = MixtureSceptic(j_max=1, m_max=100)
    o_i, o_ii = mix.step_orders(ForecastPair(P04, P06))
    assert mix.last_bets_placed
    assert len(o_i.legs) == 1 and len(o_ii.legs) == 1
    assert o_i.legs[0][1].horizon == 34
    assert mix.components[0].holding


def test_component_quiet_while_holding():
    mix = MixtureSceptic(j_max=1, m_max=100)
    placed = []
    play(forecasters(P04, P06), mix, ScriptedReality((0, 1, 1, 0, 1)), 5,
         on_step=lambda *_: placed.append(mix.last_bets_placed))
    assert placed == [True, False, False, False, False]
    assert mix.components[0].holding  # 34-step hedge open after 5 symbols


def test_component_cycle_geometric_mean(rng):
    # sqrt(mult_I * mult_II) equals 1 / H_m on every realized block
    for _ in range(25):
        p, q = random_measure(rng), random_measure(rng)
        eps = float(rng.uniform(0.005, 0.5))
        mix = MixtureSceptic(j_max=1, m_max=8)
        mix.components[0] = comp = EpsilonComponent(eps)
        m = pair_profile(p, q).search([1.0 - eps], 8)[0]
        if m is None:
            continue
        h = hellinger_restricted(p, q, m)
        play(forecasters(p, q), mix, CoinReality(rng), m)
        assert comp.bet_steps == [1]
        assert not comp.holding
        cycle = comp.cycles[-1]
        assert cycle.horizon == m
        geo = math.sqrt(cycle.mult_i * cycle.mult_ii)
        assert geo == pytest.approx(1.0 / h, abs=1e-9)
        assert geo >= 1.0 / (1.0 - eps) - 1e-9
        assert comp.capital_i >= 0.0 and comp.capital_ii >= 0.0


def test_component_validates_epsilon():
    with pytest.raises(DomainError):
        EpsilonComponent(0.0)
    with pytest.raises(DomainError):
        EpsilonComponent(1.0)


# -- mixture ---------------------------------------------------------------


def test_mixture_zero_orders_without_trigger():
    mix = MixtureSceptic(j_max=5, m_max=16)
    o_i, o_ii = mix.step_orders(ForecastPair(P04, P04))
    assert o_i.is_zero() and o_ii.is_zero()
    assert not mix.last_bets_placed


def test_mixture_orders_carry_each_components_legs_at_its_weight():
    mix = MixtureSceptic(j_max=6, m_max=64)
    o_i, o_ii = mix.step_orders(ForecastPair(P04, P06))
    betting = [(w, c) for w, c in zip(mix.weights, mix.components)
               if c.holding]
    assert len(betting) == 6 and mix.last_bets_placed
    for order, side in ((o_i, 0), (o_ii, 1)):
        assert not order.stakes
        assert [k for k, _ in order.legs] == [w for w, _ in betting]
        assert all(leg is c.legs[side]
                   for (_, leg), (_, c) in zip(order.legs, betting))


def test_mixture_weights_and_reserve():
    mix = MixtureSceptic(j_max=3)
    assert mix.weights == [0.5, 0.25, 0.125]
    assert mix.reserve == pytest.approx(0.125)
    assert mix.capital("I") == pytest.approx(1.0, abs=1e-12)


def test_mixture_linearity_along_run(rng):
    mix = MixtureSceptic(j_max=6, m_max=8)

    def check(n, y, pair, state):
        for side in ("I", "II"):
            total = mix.capital(side)
            parts = []
            for w, c in zip(mix.weights, mix.components):
                if c.holding:
                    leg = c.legs[0] if side == "I" else c.legs[1]
                    parts.append(w * leg.value())
                else:
                    parts.append(w * (c.capital_i if side == "I"
                                      else c.capital_ii))
            assert total == pytest.approx(sum(parts) + mix.reserve, abs=1e-9)
            # cash accounting and component accounting of the same legs
            assert state.capital(side) == pytest.approx(total, abs=1e-9)

    state = play(forecasters(bernoulli(0.2), bernoulli(0.8)), mix,
                 CoinReality(rng), 20, on_step=check)
    assert state.n == 21
    assert sum(len(c.bet_steps) for c in mix.components) > 0


def test_mixture_requires_component():
    with pytest.raises(DomainError):
        MixtureSceptic(j_max=0)


def test_mixture_validates_m_max_at_construction():
    # checked here once: a search with m_max < 1 finds nothing, silently
    with pytest.raises(DomainError):
        MixtureSceptic(j_max=3, m_max=0)


# -- lim wrap -----------------------------------------------------------------


def test_limwrap_constant_base():
    wrapped = wrap_capital_path([1.0] * 10)
    assert all(w == pytest.approx(1.0, abs=1e-12) for w in wrapped)


def test_limwrap_freezes_at_two_then_crash():
    path = [1.0, 2.0, 0.0, 0.0]
    wrapped = wrap_capital_path(path, LimWrapConfig(num_accounts=2))
    # account 1 froze at 2 * 2^-1 = 1; everything else collapsed
    assert wrapped[1] >= 1.0
    assert wrapped[2] >= 1.0
    assert wrapped[3] >= 1.0


def test_limwrap_five_doublings():
    path = [float(2 ** k) for k in range(1, 6)] + [0.0]
    wrapped = wrap_capital_path(path, LimWrapConfig(num_accounts=10))
    assert wrapped[-1] >= 5.0


def test_limwrap_bounded_by_sup():
    rng = np.random.default_rng(5)
    path = list(rng.uniform(0.0, 7.0, size=200))
    wrapped = wrap_capital_path(path)
    assert max(wrapped) <= max(path) + 1e-9


def test_limwrap_frozen_floor_monotone():
    wrapper = LimWrap(LimWrapConfig(num_accounts=4))
    prev = 0.0
    for k in [1.0, 3.0, 0.5, 9.0, 0.1, 20.0]:
        wrapper.update(k)
        floor = math.fsum(v for v in wrapper.frozen if v is not None)
        assert floor >= prev
        prev = floor


def limwrap_every_account(cfg, path):
    """The wrapped path by a walk over every account at every step."""
    weights = [2.0 ** -k for k in range(1, cfg.num_accounts + 1)]
    frozen = [None] * cfg.num_accounts
    out = []
    for base in path:
        total = 2.0 ** -cfg.num_accounts
        for idx, w in enumerate(weights):
            if frozen[idx] is None and base >= 2.0 ** (idx + 1):
                frozen[idx] = w * base
            total += frozen[idx] if frozen[idx] is not None else w * base
        out.append(total)
    return out


def test_limwrap_update_equals_a_walk_over_every_account_bit_for_bit():
    rng = np.random.default_rng(17)
    most = 0  # accounts frozen by a single update
    for n in (1, 4, 30):
        cfg = LimWrapConfig(num_accounts=n)
        for _ in range(20):
            # a log2 random walk with dips and jumps, and a crash to zero
            steps = rng.normal(0.0, 1.5, 80) + np.where(
                rng.random(80) < 0.1, rng.uniform(2.0, 8.0, 80), 0.0)
            path = [float(k) for k in 2.0 ** np.cumsum(steps)] + [0.0, 1.0]
            wrapper, got = LimWrap(cfg), []
            for k in path:
                frozen = len(wrapper.frozen)
                got.append(wrapper.update(k))
                most = max(most, len(wrapper.frozen) - frozen)
            assert got == limwrap_every_account(cfg, path)
    assert most >= 3


def test_limwrap_config_validation():
    with pytest.raises(DomainError):
        LimWrapConfig(num_accounts=0)
