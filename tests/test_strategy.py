"""Sceptic strategies: horizon search, hedges, mixture, lim-wrap."""

import math

import numpy as np
import pytest

from mergebet import harness
from mergebet.errors import BudgetExceeded, DomainError
from mergebet.harness import ExperimentConfig, play, run_experiment
from mergebet.measures import FiniteMixture, bernoulli
from mergebet.metrics import hellinger_restricted, pair_profile
from mergebet.protocol import (BetOrder, ForecastPair, HedgeLeg, order_cost,
                               total)
from mergebet.scenarios import CoherentForecaster, ScriptedReality, catalog
from mergebet.strategy import (EpsilonComponent, LimWrap, LimWrappedSceptic,
                               MixtureSceptic, build_hedge, wrap_capital_path)

from conftest import random_measure, random_simplex

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
    assert order_cost(BetOrder(legs=[(1.0, leg)]), P04) == pytest.approx(
        order_cost(explicit, P04), abs=1e-12)


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


def test_mixture_orders_carry_one_leg_pair_per_cohort_at_its_summed_stake():
    # components that answer one horizon m on one step form a cohort: the
    # order holds one unit leg (scale 1/H_m) per m, at the members' sum of w*K
    mix = MixtureSceptic(j_max=10, m_max=64)
    engine = pair_profile(P04, P06)
    o_i, o_ii = mix.step_orders(ForecastPair(P04, P06))
    betting = [(w, c) for w, c in zip(mix.weights, mix.components)
               if c.holding]
    assert len(betting) == 10 and mix.last_bets_placed
    by_m = {}
    for w, c in betting:
        by_m.setdefault(c.legs[0].horizon, []).append((w, c))
    assert max(len(members) for members in by_m.values()) >= 2
    for order, side in ((o_i, 0), (o_ii, 1)):
        assert not order.stakes
        assert [leg.horizon for _, leg in order.legs] == list(by_m)
        for (k, leg), members in zip(order.legs, by_m.values()):
            assert leg.scale == 1.0 / engine.h(leg.horizon)
            assert all(c.legs[side] is leg for _, c in members)
            assert k == math.fsum(w * (c.capital_i, c.capital_ii)[side]
                                  for w, c in members)


def test_mixture_weights_and_reserve():
    mix = MixtureSceptic(j_max=3)
    assert mix.weights == [0.5, 0.25, 0.125]
    # the residual weight stays in the book as cash; components start at 1
    assert 1.0 - sum(mix.weights) == pytest.approx(0.125)
    assert all(c.capital_i == c.capital_ii == 1.0 for c in mix.components)


def test_mixture_linearity_along_run(rng):
    mix = MixtureSceptic(j_max=6, m_max=8)

    def check(n, y, pair, state):
        for side in ("I", "II"):
            parts = [1.0 - sum(mix.weights)]  # the residual, held as cash
            for w, c in zip(mix.weights, mix.components):
                k = c.capital_i if side == "I" else c.capital_ii
                if c.holding:  # the whole capital sits in the cohort's legs
                    leg = c.legs[0] if side == "I" else c.legs[1]
                    parts.append(w * k * leg.scale * hellinger_restricted(
                        leg.own, leg.other, leg.horizon))
                else:
                    parts.append(w * k)
            total = math.fsum(parts)
            # cash accounting and component accounting of the same legs
            assert state.capital(side) == pytest.approx(total, abs=1e-9)

    state = play(forecasters(bernoulli(0.2), bernoulli(0.8)), mix,
                 CoinReality(rng), 20, on_step=check)
    assert state.n == 21
    assert sum(len(c.bet_steps) for c in mix.components) > 0


class RebuildingSceptic(MixtureSceptic):
    """The reference: the idle list and its thresholds rebuilt on every
    step, and a quiet step's orders built like a betting step's."""

    def step_orders(self, forecasts):
        self._step += 1
        engine = pair_profile(forecasts.p_i, forecasts.p_ii, self.budget)
        idle = [(w, c) for w, c in zip(self.weights, self.components)
                if not c.holding]
        found = engine.search([1.0 - c.epsilon for _, c in idle], self.m_max)
        cohorts = {}
        for wc, m in zip(idle, found):
            if m is not None:
                cohorts.setdefault(m, []).append(wc)
        legs_i, legs_ii = [], []
        for m, cohort in cohorts.items():
            h = engine.h(m)
            legs = (HedgeLeg(1.0 / h, forecasts.p_i, forecasts.p_ii, m),
                    HedgeLeg(1.0 / h, forecasts.p_ii, forecasts.p_i, m))
            for _, comp in cohort:
                comp.open_cycle(legs, h, self._step)
            legs_i.append((total([w * c.capital_i for w, c in cohort]), legs[0]))
            legs_ii.append((total([w * c.capital_ii for w, c in cohort]), legs[1]))
            self._due.setdefault(self._step + m - 1, []).extend(
                c for _, c in cohort)
        self.last_bets_placed = bool(legs_i)
        self.last_active = len(self.components) - found.count(None)
        return BetOrder(legs=legs_i), BetOrder(legs=legs_ii)

    def settle(self, book):
        for comp in self._due.pop(self._step, ()):
            comp.settle()


def random_spec(rng) -> dict:
    """An i.i.d., Beta or mixture-of-i.i.d. measure spec on two symbols."""
    pick = rng.integers(0, 3)
    if pick == 0:
        return {"family": "iid", "weights": random_simplex(rng, 2).tolist()}
    if pick == 1:
        return {"family": "beta_learner",
                "pseudo_counts": rng.uniform(0.2, 5.0, size=2).tolist()}
    k = int(rng.integers(2, 4))
    return {"family": "mixture",
            "weights": random_simplex(rng, k, lo=0.05).tolist(),
            "components": [{"family": "iid",
                            "weights": random_simplex(rng, 2).tolist()}
                           for _ in range(k)]}


def orders_and_trace(monkeypatch, cls, config: dict):
    """The orders of each step as (coefficient, scale, horizon, own is the
    side's announcement, other is the other side's) per leg, the trace's CSV
    and the components' bet steps, played by a Sceptic of class ``cls``."""
    orders = []

    class Recorded(cls):
        def step_orders(self, forecasts):
            pair = super().step_orders(forecasts)
            sides = ((forecasts.p_i, forecasts.p_ii),
                     (forecasts.p_ii, forecasts.p_i))
            orders.append([(dict(o.stakes), [
                (k, leg.scale, leg.horizon, leg.own is own, leg.other is other)
                for k, leg in o.legs]) for o, (own, other) in zip(pair, sides)])
            return pair

    monkeypatch.setattr(harness, "MixtureSceptic", Recorded)
    trace = run_experiment(ExperimentConfig.from_dict(config))
    return orders, trace.to_csv(), trace.component_bet_steps


def test_kept_idle_set_orders_as_a_sceptic_that_rebuilds_it_every_step(
        monkeypatch, rng):
    reopened = quiet_after_settling = 0
    for trial in range(40):
        t, m_max = int(rng.integers(30, 80)), int(rng.integers(2, 12))
        string = rng.integers(0, 2, size=t)
        if trial % 2:  # long runs of one symbol drive learners apart
            string = np.repeat(rng.integers(0, 2, size=t // 8 + 1), 8)[:t]
        config = {
            "alphabet_size": 2, "T": t,
            "forecaster_I": {"kind": "coherent", "measure": random_spec(rng)},
            "forecaster_II": {"kind": "coherent", "measure": random_spec(rng)},
            "reality": {"kind": "scripted", "string": string.tolist()},
            "sceptic": {"J": int(rng.integers(1, 7)), "M_max": m_max,
                        "lim_wrap": bool(trial % 4 >= 2)},
            "m_report": 4}
        want = orders_and_trace(monkeypatch, RebuildingSceptic, config)
        got = orders_and_trace(monkeypatch, MixtureSceptic, config)
        assert got == want, config
        reopened += sum(len(steps) > 1 for steps in got[2])
        bets = [n for n, (o_i, _) in enumerate(got[0], 1) if o_i[1]]
        quiet_after_settling += len(bets) > 0 and len(bets) < t
    assert reopened > 20 and quiet_after_settling > 10  # both paths ran


@pytest.mark.parametrize("name", ["singular-pair", "merge-beta"])
def test_a_quiet_step_builds_no_mixture_law_and_no_idle_set(monkeypatch,
                                                            name):
    # counted by wrapping: a mixture's law is built only by a read of it,
    # never by _child's Bayes step, and the Sceptic rebuilds its idle set
    # only at step 1 and on the step after a cycle opened or settled
    reads, builds, sceptics, rebuilt = [0], [0], [], []
    one_step, mix, child = (FiniteMixture.one_step, FiniteMixture._mix,
                            FiniteMixture._child)
    idle_set = MixtureSceptic._idle_set

    def counted_one_step(self, history):
        reads[0] += not len(history)
        return one_step(self, history)

    def counted_mix(self):
        builds[0] += 1
        return mix(self)

    def uncounted_child(self, y):
        before = builds[0]
        out = child(self, y)
        assert builds[0] == before, "_child built a mixture law"
        return out

    def counted_idle_set(self):
        sceptics.append(self)
        rebuilt.append(self._step)
        return idle_set(self)

    monkeypatch.setattr(FiniteMixture, "one_step", counted_one_step)
    monkeypatch.setattr(FiniteMixture, "_mix", counted_mix)
    monkeypatch.setattr(FiniteMixture, "_child", uncounted_child)
    monkeypatch.setattr(MixtureSceptic, "_idle_set", counted_idle_set)
    cfg = ExperimentConfig.from_dict(dict(catalog()[name], T=2000))
    run_experiment(cfg)
    assert builds[0] <= reads[0]
    events = {1}  # the steps after which the idle set may change
    for comp in sceptics[0].components:
        events.update(n + 1 for n in comp.bet_steps)
        events.update(c.start_step + c.horizon for c in comp.cycles)
    assert set(rebuilt) <= events and len(rebuilt) == len(set(rebuilt))
    # the parent commit built 2000 idle sets, and 4000 laws on singular-pair
    assert len(rebuilt) < (10 if name == "singular-pair" else 50)
    assert builds[0] < 200


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
    wrapped = wrap_capital_path(path, num_accounts=2)
    # account 1 froze at 2 * 2^-1 = 1; everything else collapsed
    assert wrapped[1] >= 1.0
    assert wrapped[2] >= 1.0
    assert wrapped[3] >= 1.0


def test_limwrap_five_doublings():
    path = [float(2 ** k) for k in range(1, 6)] + [0.0]
    wrapped = wrap_capital_path(path, num_accounts=10)
    assert wrapped[-1] >= 5.0


def test_limwrap_bounded_by_sup():
    rng = np.random.default_rng(5)
    path = list(rng.uniform(0.0, 7.0, size=200))
    wrapped = wrap_capital_path(path)
    assert max(wrapped) <= max(path) + 1e-9


def test_limwrap_frozen_floor_monotone():
    wrapper = LimWrap(num_accounts=4)
    prev = 0.0
    for k in [1.0, 3.0, 0.5, 9.0, 0.1, 20.0]:
        wrapper.update(k)
        floor = math.fsum(v for v in wrapper.frozen if v is not None)
        assert floor >= prev
        prev = floor


def limwrap_every_account(num_accounts, path):
    """The wrapped path by a walk over every account at every step."""
    weights = [2.0 ** -k for k in range(1, num_accounts + 1)]
    frozen = [None] * num_accounts
    out = []
    for base in path:
        total = 2.0 ** -num_accounts
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
        for _ in range(20):
            # a log2 random walk with dips and jumps, and a crash to zero
            steps = rng.normal(0.0, 1.5, 80) + np.where(
                rng.random(80) < 0.1, rng.uniform(2.0, 8.0, 80), 0.0)
            path = [float(k) for k in 2.0 ** np.cumsum(steps)] + [0.0, 1.0]
            wrapper, got = LimWrap(n), []
            for k in path:
                frozen = len(wrapper.frozen)
                got.append(wrapper.update(k))
                most = max(most, len(wrapper.frozen) - frozen)
            assert got == limwrap_every_account(n, path)
    assert most >= 3


def test_limwrap_config_validation():
    for make in (LimWrap, lambda n: wrap_capital_path([1.0], n),
                 lambda n: LimWrappedSceptic(MixtureSceptic(j_max=1), n)):
        with pytest.raises(DomainError):
            make(0)
