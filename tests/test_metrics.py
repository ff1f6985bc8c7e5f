"""Horizon-restricted Hellinger affinity and total variation."""

import itertools
import math

import numpy as np
import pytest

from mergebet import metrics
from mergebet.errors import BudgetExceeded, DomainError
from mergebet.measures import (BetaLearner, Conditioned, FiniteMixture, IID,
                               Markov, Measure, bernoulli, joint_type,
                               type_table)
from mergebet.metrics import (DEFAULT_BUDGET, ENGINE_CACHE_SIZE,
                              HorizonProfile, _chain_affinity, _type_levels,
                              expectation_sqrt_ratio, hellinger_restricted,
                              hellinger_tv_bounds, pair_profile, tree_walk,
                              tv_restricted)
from mergebet.harness import ExperimentConfig, oracle_metrics, run_experiment

from conftest import (random_beta, random_iid, random_markov, random_measure,
                      random_mixture, random_simplex, walk_profiles)

RHO = 2.0 * math.sqrt(0.24)  # one-step affinity of Bernoulli(0.4) vs (0.6)


# -- frozen values -----------------------------------------------------------


def test_affinity_identical_measures():
    p = bernoulli(0.37)
    for m in range(6):
        assert hellinger_restricted(p, p, m) == pytest.approx(1.0, abs=1e-12)


def test_affinity_bernoulli_one_step():
    h = hellinger_restricted(bernoulli(0.4), bernoulli(0.6), 1)
    assert h == pytest.approx(RHO, abs=1e-12)
    assert h == pytest.approx(0.9797959, abs=1e-7)


def test_affinity_bernoulli_two_steps_exact():
    assert hellinger_restricted(bernoulli(0.4), bernoulli(0.6), 2) == 0.96


def test_tv_identical_measures():
    p = bernoulli(0.37)
    for m in range(6):
        assert tv_restricted(p, p, m) == pytest.approx(0.0, abs=1e-12)


def test_tv_bernoulli_values():
    p, q = bernoulli(0.4), bernoulli(0.6)
    assert tv_restricted(p, q, 1) == pytest.approx(0.4, abs=1e-12)
    assert tv_restricted(p, q, 3) == pytest.approx(0.592, abs=1e-12)


def test_bounds_endpoints():
    assert hellinger_tv_bounds(1.0) == (0.0, 0.0)
    lo, hi = hellinger_tv_bounds(RHO)
    assert lo == pytest.approx(0.0404082, abs=1e-6)
    assert hi == pytest.approx(0.4020356, abs=1e-6)
    tv = tv_restricted(bernoulli(0.4), bernoulli(0.6), 1)
    assert lo <= tv <= hi


def test_bounds_rejects_out_of_range():
    with pytest.raises(DomainError):
        hellinger_tv_bounds(-0.1)
    with pytest.raises(DomainError):
        hellinger_tv_bounds(1.1)


# -- routes and errors -------------------------------------------------------


def test_methods_agree_on_iid():
    p, q = bernoulli(0.25), bernoulli(0.8)
    chain, walk = _chain_affinity(p, q), walk_profiles(p, q, 8)[0]
    for m in range(9):
        assert abs(chain(m) - walk[m]) <= 1e-12


def test_methods_agree_on_markov(rng):
    for _ in range(50):
        p = random_markov(rng, order=int(rng.integers(1, 3)))
        q = random_markov(rng, order=int(rng.integers(1, 3)))
        chain, walk = _chain_affinity(p, q), walk_profiles(p, q, 10)[0]
        for m in (1, 5, 10):
            assert abs(chain(m) - walk[m]) <= 1e-12


def test_dp_unsupported_for_learner():
    assert _chain_affinity(BetaLearner([1, 1]), bernoulli(0.4)) is None


def test_enumerate_respects_budget():
    with pytest.raises(BudgetExceeded):
        walk_profiles(bernoulli(0.4), bernoulli(0.6), 40, budget=2 ** 10)


def test_negative_horizon():
    with pytest.raises(DomainError):
        hellinger_restricted(bernoulli(0.4), bernoulli(0.6), -1)
    with pytest.raises(DomainError):
        tv_restricted(bernoulli(0.4), bernoulli(0.6), -1)
    p = bernoulli(0.4)
    with pytest.raises(DomainError):
        tv_restricted(p, p, -1)


def test_alphabet_mismatch():
    p, q = bernoulli(0.4), IID([0.3, 0.3, 0.4])
    with pytest.raises(DomainError):
        hellinger_restricted(p, q, 2)
    with pytest.raises(DomainError):
        tv_restricted(p, q, 2)
    for f, a, b in ((p, p, q), (p, q, p), (q, p, p)):
        with pytest.raises(DomainError):
            expectation_sqrt_ratio(f, a, b, 2)


# -- monotonicity and sandwich -------------------------------------------------


def test_monotone_and_sandwich_random_pairs(rng):
    for _ in range(300):
        p, q = random_measure(rng), random_measure(rng)
        hs = [hellinger_restricted(p, q, m) for m in range(9)]
        tvs = [tv_restricted(p, q, m) for m in range(9)]
        assert hs[0] == 1.0 and tvs[0] == 0.0
        for m in range(8):
            assert hs[m + 1] <= hs[m] + 1e-10
            assert tvs[m + 1] >= tvs[m] - 1e-10
        for h, tv in zip(hs, tvs):
            lo, hi = hellinger_tv_bounds(min(float(h), 1.0))
            assert lo - 1e-10 <= tv <= hi + 1e-10


# -- sup-over-events total variation ------------------------------------------


def test_tv_sup_form_matches_l1(rng):
    for _ in range(30):
        p, q = random_measure(rng), random_measure(rng)
        for m in (1, 2, 3):  # 2^m <= 12 strings, all events scanned
            h, tv, sup_tv = oracle_metrics(p, q, m)
            assert sup_tv is not None
            assert abs(sup_tv - tv) <= 1e-12
            assert abs(tv - tv_restricted(p, q, m)) <= 1e-12
            assert abs(h - hellinger_restricted(p, q, m)) <= 1e-12


# -- expectation primitive ------------------------------------------------


def test_expectation_sqrt_ratio_equals_affinity(rng):
    # E_P[sqrt(Q/P)] over Y^m is exactly H_m
    for _ in range(20):
        p, q = random_measure(rng), random_measure(rng)
        for m in range(5):
            esr = expectation_sqrt_ratio(p, p, q, m)
            assert esr == pytest.approx(hellinger_restricted(p, q, m),
                                        abs=1e-10)


def test_expectation_sqrt_ratio_base_cases():
    p, q = bernoulli(0.4), bernoulli(0.6)
    assert expectation_sqrt_ratio(p, p, q, 0) == 1.0
    with pytest.raises(DomainError):
        expectation_sqrt_ratio(p, p, q, -1)


def explicit_sqrt_ratio(f, p, q, m):
    """E_F[sqrt(Q/P)] over Y^m, string by string from cylinder_log_prob."""
    return math.fsum(
        math.exp(f.cylinder_log_prob(x)
                 + 0.5 * (q.cylinder_log_prob(x) - p.cylinder_log_prob(x)))
        for x in itertools.product(range(f.a), repeat=m))


def test_expectation_sqrt_ratio_on_the_chain_route(rng):
    for _ in range(10):
        f, p, q = (random_markov(rng, order=int(rng.integers(1, 3)))
                   for _ in range(3))
        for m in (1, 4, 7):
            assert abs(expectation_sqrt_ratio(f, p, q, m)
                       - explicit_sqrt_ratio(f, p, q, m)) <= 1e-12


def test_expectation_sqrt_ratio_on_the_walk(rng):
    # measures with no type
    f, p, q = (Untyped(random_measure(rng)) for _ in range(3))
    assert joint_type((f, p, q)) is None
    for m in range(1, 7):
        assert abs(expectation_sqrt_ratio(f, p, q, m)
                   - explicit_sqrt_ratio(f, p, q, m)) <= 1e-12
    # a typed triple whose table this budget affords only to m = 4
    f, p, q = (mixture_of_chains(rng, 3, 1, 2) for _ in range(3))
    budget = 3 ** 5
    assert joint_type((f, p, q)) is not None
    assert _type_levels((f, p, q), budget)(5) is None
    assert abs(expectation_sqrt_ratio(f, p, q, 5, budget)
               - explicit_sqrt_ratio(f, p, q, 5)) <= 1e-12


# -- horizon profile -----------------------------------------------------------


def test_find_below_matches_linear_scan(rng):
    for _ in range(50):
        p, q = random_measure(rng), random_measure(rng)
        prof = HorizonProfile(p, q)
        threshold = float(rng.uniform(0.2, 1.0))
        got = prof.search([threshold], 12)[0]
        expect = None
        for m in range(1, 13):
            if hellinger_restricted(p, q, m) < threshold:
                expect = m
                break
        assert got == expect


def test_find_below_short_circuit():
    p = bernoulli(0.4)
    prof = HorizonProfile(p, p)
    assert prof.search([0.5], 0)[0] is None
    assert prof.search([0.5], 64)[0] is None


class Untyped(Measure):
    """A user measure with no chain view and no type: only the walk fits."""

    def __init__(self, inner: Measure):
        super().__init__(inner.alphabet)
        self.inner = inner

    def one_step(self, history):
        return self.inner.one_step(history)


def test_find_below_searches_every_horizon_the_budget_affords():
    uniform = Markov(np.full((3, 3), 1 / 3), initial=np.full(3, 1 / 3))
    sticky = Markov(np.full((3, 3), 0.25) + 0.25 * np.eye(3),
                    initial=np.full(3, 1 / 3))
    mixes = (FiniteMixture([0.5, 0.5], [uniform, sticky]),
             FiniteMixture([0.9, 0.1], [uniform, sticky]))
    p, q = (Untyped(x) for x in mixes)
    budget = 3 ** 5  # affords m = 5 exactly
    walk_profiles(p, q, 5, budget)
    with pytest.raises(BudgetExceeded):
        walk_profiles(p, q, 6, budget)
    engine = HorizonProfile(p, q, budget)
    threshold = 0.5 * (engine.h(4) + engine.h(5))
    capped = HorizonProfile.capped_searches
    assert engine.search([threshold], 8)[0] == 5
    assert HorizonProfile.capped_searches == capped + 1
    assert HorizonProfile(p, q, budget).search([threshold], 5)[0] == 5
    # the mixtures themselves have a type, whose table this budget affords
    # only to m = 4; the walk serves m = 5
    assert HorizonProfile(*mixes, budget).search([threshold], 8)[0] == 5


def test_a_walk_fills_only_the_levels_no_type_serves():
    # the two mixtures' table affords m = 4 at budget 3^5 and the walk m = 5;
    # an engine's H_m and TV_m do not depend on which horizon it read first
    uniform = Markov(np.full((3, 3), 1 / 3), initial=np.full(3, 1 / 3))
    sticky = Markov(np.full((3, 3), 0.25) + 0.25 * np.eye(3),
                    initial=np.full(3, 1 / 3))
    p, q = (FiniteMixture(w, [uniform, sticky]) for w in ([0.5, 0.5], [0.9, 0.1]))
    budget = 3 ** 5

    def read(engine, order):
        hs = {m: engine.h(m) for m in order}
        return [hs[m] for m in range(6)], [engine.tv(m) for m in range(6)]

    walk_first = read(HorizonProfile(p, q, budget), (5, 0, 1, 2, 3, 4))
    walk_last = read(HorizonProfile(p, q, budget), (0, 1, 2, 3, 4, 5))
    assert walk_first == walk_last
    typed = HorizonProfile(p, q, budget)
    assert walk_first[0][:5] == [typed.h(m) for m in range(5)]
    assert all(typed._level(m) is not None for m in range(5))
    assert typed._level(5) is None


#: a pair per route of the pair engine, each parting within m = 12
SEARCH_PAIRS = {
    "chain-rho": (bernoulli(0.4), bernoulli(0.6)),
    "chain-order1": (Markov([[0.9, 0.1], [0.3, 0.7]], initial=[0.5, 0.5]),
                     Markov([[0.6, 0.4], [0.5, 0.5]], initial=[0.3, 0.7])),
    "type-beta": (BetaLearner([3.0, 1.0]), BetaLearner([1.0, 2.0])),
    "type-mixture": (
        FiniteMixture([0.5, 0.5], [bernoulli(0.2), bernoulli(0.7)]),
        FiniteMixture([0.9, 0.1], [bernoulli(0.2), bernoulli(0.7)])),
    "walk-untyped": (Untyped(FiniteMixture([0.5, 0.5], [bernoulli(0.2),
                                                         bernoulli(0.7)])),
                     Untyped(bernoulli(0.45))),
}


@pytest.mark.parametrize("route", sorted(SEARCH_PAIRS))
def test_search_equals_one_search_per_threshold(route):
    # the Sceptic's thresholds 1 - 2^-j and a few between, in one search
    p, q = SEARCH_PAIRS[route]
    thresholds = ([1.0 - 2.0 ** -j for j in range(1, 21)]
                  + [float(t) for t in np.linspace(0.05, 0.999, 9)])
    engine = HorizonProfile(p, q)
    picked = ("chain" if engine._chain is not None
              else "type" if engine._level(12) is not None else "walk")
    assert route.startswith(picked)
    want = [engine.search([t], 12)[0] for t in thresholds]
    got = HorizonProfile(p, q).search(thresholds, 12)
    assert got == want
    assert None in got and any(m is not None for m in got)
    assert HorizonProfile(p, q).search([], 12) == []


def test_a_capped_search_counts_each_threshold():
    uniform = Markov(np.full((3, 3), 1 / 3), initial=np.full(3, 1 / 3))
    sticky = Markov(np.full((3, 3), 0.25) + 0.25 * np.eye(3),
                    initial=np.full(3, 1 / 3))
    p, q = (Untyped(FiniteMixture(w, [uniform, sticky]))
            for w in ([0.5, 0.5], [0.9, 0.1]))
    budget = 3 ** 5  # affords m = 5 of M_max = 8
    engine = HorizonProfile(p, q, budget)
    thresholds = [0.5 * (engine.h(m - 1) + engine.h(m)) for m in (2, 3, 5)]
    thresholds.append(0.5 * engine.h(5))  # below every affordable H_m
    want = [engine.search([t], 8)[0] for t in thresholds]
    assert want == [2, 3, 5, None]
    capped = HorizonProfile.capped_searches
    assert HorizonProfile(p, q, budget).search(thresholds, 8) == want
    assert HorizonProfile.capped_searches == capped + len(thresholds)
    for _ in range(2):  # answers read from the engine's memo count as well
        capped = HorizonProfile.capped_searches
        assert engine.search(thresholds, 8) == want
        assert HorizonProfile.capped_searches == capped + len(thresholds)
    assert engine._answers


@pytest.mark.parametrize("route", sorted(SEARCH_PAIRS))
def test_a_searched_engine_answers_as_a_fresh_one(route):
    # one engine asked again and again, as a pair's engine is from step to
    # step: subsets of the Sceptic's thresholds in any order, and some between
    p, q = SEARCH_PAIRS[route]
    rng = np.random.default_rng(21)
    grid = [1.0 - 2.0 ** -j for j in range(1, 21)]
    between = [float(t) for t in np.linspace(0.05, 0.999, 9)]
    engine = HorizonProfile(p, q)
    for _ in range(12):
        thresholds = [float(t) for t in np.concatenate([
            rng.permutation(grid)[:rng.integers(1, 21)],
            rng.choice(between, 3)])]
        rng.shuffle(thresholds)
        m_max = int(rng.integers(1, 13))
        assert (engine.search(thresholds, m_max)
                == HorizonProfile(p, q).search(thresholds, m_max))
    assert engine._answers  # later searches were served from the memo


def test_a_diverge_run_evaluates_each_chain_horizon_once(monkeypatch):
    evaluated = []
    make = metrics._chain_affinity

    def counted(p, q):
        affinity, seen = make(p, q), {}
        evaluated.append(seen)

        def count(m):
            seen[m] = seen.get(m, 0) + 1
            return affinity(m)
        return None if affinity is None else count

    monkeypatch.setattr(metrics, "_chain_affinity", counted)
    cfg = ExperimentConfig.load("diverge-iid")
    cfg.t = 400
    trace = run_experiment(cfg)
    assert sum(trace.component_bets) > 0
    assert sum(len(seen) for seen in evaluated) > 1
    assert all(n == 1 for seen in evaluated for n in seen.values())


# -- the pair engine ------------------------------------------------------------


def test_engine_matches_oracle_on_every_family(rng):
    families = (random_iid, random_markov, random_beta, random_mixture)
    for make_p in families:
        for make_q in families:
            p, q = make_p(rng), make_q(rng)
            engine = HorizonProfile(p, q)
            oracle = [oracle_metrics(p, q, m)[:2] for m in range(9)]
            for m, (h, tv) in enumerate(oracle):
                assert abs(engine.h(m) - h) <= 1e-12
                assert abs(engine.tv(m) - tv) <= 1e-12
            for threshold in rng.uniform(0.3, 1.0, size=6):
                expect = next((m for m in range(1, 9)
                               if oracle[m][0] < threshold), None)
                assert engine.search([threshold], 8)[0] == expect


def test_diverge_run_reuses_its_engines(monkeypatch):
    builds = []
    init = HorizonProfile.__init__

    def counted(self, *args, **kwargs):
        builds.append((args[0], args[1]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(HorizonProfile, "__init__", counted)
    cfg = ExperimentConfig.load("diverge-iid")
    cfg.t = 300
    trace = run_experiment(cfg)
    assert sum(trace.component_bets) > 0  # legs were opened and marked
    assert len(builds) <= 4


def test_engine_cache_stays_bounded():
    q = bernoulli(0.5)
    for _ in range(10_000):
        pair_profile(bernoulli(0.3), q)
    assert len(metrics._ENGINES) <= ENGINE_CACHE_SIZE


def test_engine_cache_gives_a_reused_id_a_fresh_engine():
    q, weights = bernoulli(0.5), [0.9, 0.1]
    for _ in range(100):
        p = bernoulli(0.3)
        pair_profile(p, q).h(1)
        dead_id = id(p)
        for _ in range(ENGINE_CACHE_SIZE):  # push (p, q) out of the cache
            pair_profile(q, bernoulli(0.4))
        del p
        # the allocator hands out the freed block again; sharing q's
        # alphabet keeps a new Alphabet object from taking it first
        p = IID(weights, q.alphabet)
        if id(p) == dead_id:
            break
    assert id(p) == dead_id, "no id was reused; the check did not run"
    engine = pair_profile(p, q)
    assert engine.p is p
    assert engine.h(1) == pytest.approx(
        walk_profiles(p, q, 1)[0][1], abs=1e-15)


def test_engine_cache_keeps_its_measures_alive():
    import gc
    import weakref
    q = bernoulli(0.5)
    p = bernoulli(0.3)
    ref = weakref.ref(p)
    pair_profile(p, q)
    del p
    gc.collect()
    assert ref() is not None  # so no other object can take its id
    for _ in range(ENGINE_CACHE_SIZE):
        pair_profile(q, bernoulli(0.4))
    gc.collect()
    assert ref() is None


def test_reversed_pair_reads_the_same_engine(rng):
    pairs = {"chain": (random_markov(rng), random_markov(rng, order=2)),
             "order-0 types": (random_beta(rng), random_mixture(rng)),
             "order-2 types": (mixture_of_chains(rng, 2, 1, 2),
                               mixture_of_chains(rng, 2, 2, 3)),
             "walk-untyped": (Untyped(random_beta(rng)), random_mixture(rng))}
    for route, (p, q) in pairs.items():
        assert pair_profile(q, p) is pair_profile(p, q), route
        forward, backward = HorizonProfile(p, q), HorizonProfile(q, p)
        for m in range(9):
            assert forward.h(m) == backward.h(m), (route, m)
            assert forward.tv(m) == backward.tv(m), (route, m)


# -- the tree walk --------------------------------------------------------------


def mixture_of_chains(rng, a, order, k):
    w = random_simplex(rng, k, lo=0.05)
    return FiniteMixture(w, [random_markov(rng, a, order) for _ in range(k)])


def walk_mixtures(rng):
    """Mixtures of chains, nested and with a learner, for the walk's tests;
    the engine takes the type route on all but the last."""
    out = [mixture_of_chains(rng, a, int(rng.integers(1, 3)),
                             int(rng.integers(2, 4)))
           for a in (2, 2, 2, 3) for _ in range(2)]
    out.append(FiniteMixture([0.3, 0.7], [out[0], out[1]]))  # nested
    chain = random_markov(rng, 2, 2)
    out.append(FiniteMixture([0.2, 0.5, 0.3], [
        Conditioned(chain, (1, 0, 1)), random_beta(rng), out[2]]))
    return out


def test_enumeration_walk_matches_oracle_on_mixtures(rng):
    mixes = walk_mixtures(rng)
    pairs = list(zip(mixes[0::2], mixes[1::2])) + [(mixes[-1], mixes[0])]
    for p, q in pairs:
        assert p.a == q.a
        hs, tvs = walk_profiles(p, q, 8)
        engine = HorizonProfile(p, q)  # the type route, or the walk
        for m in range(9):
            h, tv, _ = oracle_metrics(p, q, m)
            assert abs(hs[m] - h) <= 1e-12
            assert abs(tvs[m] - tv) <= 1e-12
            assert abs(engine.h(m) - h) <= 1e-12
            assert abs(engine.tv(m) - tv) <= 1e-12


def test_enumeration_sums_fold_without_losing_accuracy(monkeypatch, rng):
    p, q = walk_mixtures(rng)[:2]
    whole = walk_profiles(p, q, 8)
    monkeypatch.setattr(metrics, "_FOLD", 3)  # fold every level's terms often
    folded = walk_profiles(p, q, 8)
    for a, b in zip(whole, folded):  # under 2^8 folds a level, each rounding
        assert np.max(np.abs(a - b)) <= 2 ** 8 * 2.0 ** -52  # a sum below 2


def test_tree_node_laws_match_one_step(rng):
    def check(measure, node, x, depth):
        assert np.max(np.abs(node.one_step(()) - measure.one_step(x))) <= 1e-15
        if depth:
            for y in range(measure.a):
                check(measure, node.child(y), x + (y,), depth - 1)

    for measure in walk_mixtures(rng):
        check(measure, measure, (), 6 if measure.a == 2 else 4)


def test_tree_walk_is_linear_in_the_nodes(monkeypatch, rng):
    calls = [0]
    one_step = Markov.one_step

    def counted(self, history):
        calls[0] += 1
        return one_step(self, history)

    monkeypatch.setattr(Markov, "one_step", counted)
    for a, k, m in ((2, 2, 10), (2, 3, 8), (3, 2, 6)):
        mix = mixture_of_chains(rng, a, 1, k)
        calls[0] = 0
        assert sum(len(x) == m for x, _ in tree_walk((mix,), m)) == a ** m
        assert calls[0] <= k * (a ** (m + 1) - 1) // (a - 1)


def test_tree_walk_visits_parents_first_in_symbol_order():
    p = Markov([[0.9, 0.1], [0.2, 0.8]], initial=[0.5, 0.5])
    visited = [(x, lps[0]) for x, lps in tree_walk((p,), 2)]
    assert [x for x, _ in visited] == [
        (), (0,), (0, 0), (0, 1), (1,), (1, 0), (1, 1)]
    for x, lp in visited:
        assert lp == pytest.approx(p.cylinder_log_prob(x), abs=1e-15)


# -- explicit restrictions ---------------------------------------------------


def test_horizon_distribution_normalizes(rng):
    for _ in range(10):
        p = random_measure(rng)
        level = [lps[0] for x, lps in tree_walk((p,), 5) if len(x) == 5]
        assert len(level) == 32
        total = math.fsum(math.exp(lp) for lp in level)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_horizon_distribution_budget():
    with pytest.raises(BudgetExceeded):
        next(tree_walk((bernoulli(0.5),), 30, budget=2 ** 10))


# -- the type route ---------------------------------------------------------------


def typed_mixture(rng, a):
    """A mixture of chains of order <= 2 with, at random, i.i.d. and Beta
    components."""
    comps = [random_markov(rng, a, int(rng.integers(1, 3)))
             for _ in range(int(rng.integers(1, 3)))]
    comps += [random_iid(rng, a), random_beta(rng, a)][:int(rng.integers(0, 3))]
    return FiniteMixture(random_simplex(rng, len(comps), lo=0.05), comps)


def typed_triples(rng, a, count):
    """Triples conditioned on one history of length 0 to 3, so that a chain
    of order 2 may still be in its initial ramp."""
    for _ in range(count):
        h = tuple(int(y) for y in rng.integers(0, a, size=rng.integers(0, 4)))
        yield tuple(typed_mixture(rng, a).condition(h) for _ in range(3))


def check_type_route(p, q, f, top):
    assert joint_type((p, q, f)) is not None
    engine = HorizonProfile(p, q)
    for m in range(top + 1):
        h, tv, _ = oracle_metrics(p, q, m)
        assert abs(engine.h(m) - h) <= 1e-12
        assert abs(engine.tv(m) - tv) <= 1e-12
        walk = math.fsum(math.exp(lf + 0.5 * (lq - lp)) for x, (lf, lp, lq)
                         in tree_walk((f, p, q), m) if len(x) == m)
        assert abs(expectation_sqrt_ratio(f, p, q, m) - walk) <= 1e-12


def test_type_route_matches_oracle(rng):
    # every kind of component, an order-2 chain in its ramp: to m = 12
    kinds = ((random_markov(rng, 2, 2), random_beta(rng)),
             (random_markov(rng, 2, 1), random_iid(rng)),
             (random_markov(rng, 2, 2), random_markov(rng, 2, 1)))
    check_type_route(*(FiniteMixture([0.3, 0.7], c).condition((1,))
                       for c in kinds), 12)
    # the brute-force oracle costs a^m m^2 one-step laws, so the random
    # triples stop at m = 9 on two symbols and m = 6 on three
    for a, top in ((2, 9), (3, 6)):
        for p, q, f in typed_triples(rng, a, 4):
            check_type_route(p, q, f, top)


def _strings_of_binary_order1_type(row) -> int:
    """Strings with this (first symbol, transition counts): the ways to cut
    the zeros and the ones into their runs (a run count of 0 fits only an
    empty symbol)."""
    s0, s1, n00, n01, n10, n11 = (int(c) for c in row)
    zeros, ones = s0 + n00 + n10, s1 + n01 + n11
    runs0, runs1 = (n10 + 1, n01) if s0 else (n10, n01 + 1)

    def cuts(n, r):
        return math.comb(n - 1, r - 1) if r else int(n == 0)

    return cuts(zeros, runs0) * cuts(ones, runs1)


def test_type_tables_count_every_string_exactly():
    for a, order, context, top in ((2, 0, (), 40), (3, 0, (), 12),
                                   (2, 1, (), 64), (2, 2, (1,), 16),
                                   (3, 1, (2,), 10), (3, 2, (), 7)):
        t = type_table(a, order, context)
        assert t.reach(top, DEFAULT_BUDGET) == top
        for m in range(top + 1):
            level = t.rows[m]
            assert sum(t.mult[level]) == a ** m, (a, order, context, m)
            assert np.all(t.counts[level].sum(axis=1) == m)
    # binary order 1 at m = 64: counts pass 2^53, where a float multiplicity
    # rounds; the log is the log of the exact integer
    t = type_table(2, 1, ())
    assert [tuple(c) for c in t.contexts] == [(), (0,), (1,)]
    exact = [_strings_of_binary_order1_type(row) for row in t.counts[t.rows[64]]]
    assert max(exact) > 2 ** 53
    assert t.mult[t.rows[64]] == exact
    assert t.log_mult[t.rows[64]].tolist() == [math.log(k) for k in exact]


def test_markov_mix_pair_searches_to_m_max_64_uncapped():
    chains = [{"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]},
              {"family": "markov", "transition": [[0.4, 0.6], [0.6, 0.4]]}]

    def mix(w):
        return {"kind": "coherent", "measure": {
            "family": "mixture", "weights": w, "components": chains}}

    cfg = ExperimentConfig.from_dict({
        "alphabet_size": 2, "T": 24, "seed": 16, "m_report": 6,
        "forecaster_I": mix([0.5, 0.5]), "forecaster_II": mix([0.9, 0.1]),
        "reality": {"kind": "sample", "measure": chains[0]},
        "sceptic": {"J": 8, "M_max": 64, "lim_wrap": False}})
    capped = HorizonProfile.capped_searches
    trace = run_experiment(cfg)
    assert HorizonProfile.capped_searches == capped
    assert sum(trace.component_bets) > 0
