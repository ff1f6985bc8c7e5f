"""Measure families: one-step laws, cylinder probabilities, conditioning."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergebet.errors import CromwellViolation, DomainError
from mergebet.measures import (Alphabet, BetaLearner, Conditioned, FiniteMixture,
                               IID, Markov, Measure, bernoulli, joint_type,
                               logsumexp, type_table)
from mergebet.metrics import DEFAULT_BUDGET
from mergebet.scenarios import CoherentForecaster

from conftest import (random_beta, random_iid, random_markov, random_measure,
                      random_simplex)

# -- one_step ---------------------------------------------------------------


def test_iid_one_step_any_history():
    p = bernoulli(0.4)
    for h in [(), (0,), (1, 1, 0)]:
        np.testing.assert_allclose(p.one_step(h), [0.6, 0.4])


def test_condition_on_empty_prefix_is_identity():
    p = bernoulli(0.4)
    assert p.condition(()) is p
    np.testing.assert_array_equal(p.condition(()).one_step(()),
                                  p.one_step(()))


def test_beta_learner_posterior_predictive():
    b = BetaLearner([0.5, 0.5])
    # (k + a) / (n + a + b) with two observed ones: 2.5 / 3
    assert b.one_step((1, 1))[1] == pytest.approx(2.5 / 3.0, abs=1e-15)
    assert b.condition((1, 1)).one_step(())[1] == pytest.approx(5.0 / 6.0,
                                                                abs=1e-15)


def test_beta_learner_matches_grid_bayes_mixture():
    # brute-force check of the posterior predictive against a fine Beta grid
    b = BetaLearner([0.5, 0.5])
    history = (1, 0, 1, 1, 0)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 200001)
    prior = grid ** -0.5 * (1.0 - grid) ** -0.5
    k = sum(history)
    like = grid ** k * (1.0 - grid) ** (len(history) - k)
    post = prior * like
    expected = float((post * grid).sum() / post.sum())
    assert b.one_step(history)[1] == pytest.approx(expected, abs=1e-6)


# -- cylinder_log_prob -------------------------------------------------------


def test_cylinder_uniform():
    p = bernoulli(0.5)
    assert p.cylinder_log_prob((0, 1, 1)) == pytest.approx(math.log(1 / 8))


def test_cylinder_product_of_one_steps():
    p = bernoulli(0.4)
    assert p.cylinder_log_prob((1, 1, 0)) == pytest.approx(math.log(0.096))


def test_cylinder_empty_string_is_zero():
    assert bernoulli(0.3).cylinder_log_prob(()) == 0.0


# -- condition ---------------------------------------------------------------


def test_iid_condition_same_law():
    p = bernoulli(0.4)
    q = p.condition((0, 1, 1))
    np.testing.assert_array_equal(q.one_step(()), p.one_step(()))


def test_markov_condition_starts_from_state():
    tr = [[0.9, 0.1], [0.3, 0.7]]
    m = Markov(tr, initial=[0.5, 0.5])
    c = m.condition((0, 1))
    assert c is m.condition((1,))  # one conditional per context
    started = Markov(tr, initial=[0.3, 0.7])  # one-step law out of state 1
    for depth in range(5):
        for x in np.ndindex(*([2] * depth)):
            assert c.cylinder_log_prob(x) == pytest.approx(
                started.cylinder_log_prob(x), abs=1e-10)


def test_conditioning_identity_random_measures(rng):
    for _ in range(200):
        p = random_measure(rng)
        h = tuple(int(s) for s in rng.integers(0, 2, size=rng.integers(0, 5)))
        x = tuple(int(s) for s in rng.integers(0, 2, size=rng.integers(0, 5)))
        lhs = p.condition(h).cylinder_log_prob(x) + p.cylinder_log_prob(h)
        assert lhs == pytest.approx(p.cylinder_log_prob(h + x), abs=1e-10)


def test_condition_rejects_symbols_outside_the_alphabet():
    chain = Markov([[0.9, 0.1], [0.3, 0.7]], initial=[0.5, 0.5])
    for p in (bernoulli(0.4), chain, BetaLearner([0.5, 0.5]),
              FiniteMixture([0.5, 0.5], [bernoulli(0.4), chain]),
              Conditioned(chain, (1,))):
        with pytest.raises(DomainError, match="symbol 2 outside"):
            p.condition((0, 2))


def test_conditioned_wrapper_flattens():
    m = Markov([[0.9, 0.1], [0.3, 0.7]], initial=[0.5, 0.5])
    c = Conditioned(Conditioned(m, (0,)), (1,))
    assert c.base is m
    assert c.prefix == (0, 1)


# -- normalization and consistency -------------------------------------------


def test_one_step_normalization_random(rng):
    for _ in range(1000):
        p = random_measure(rng)
        h = tuple(int(s) for s in rng.integers(0, 2, size=rng.integers(0, 6)))
        d = p.one_step(h)
        assert np.all(d > 0.0)
        assert abs(float(d.sum()) - 1.0) <= 1e-12


def test_cylinder_consistency_random(rng):
    for _ in range(200):
        p = random_measure(rng)
        x = tuple(int(s) for s in rng.integers(0, 2, size=rng.integers(0, 6)))
        px = math.exp(p.cylinder_log_prob(x))
        total = sum(math.exp(p.cylinder_log_prob(x + (y,))) for y in range(2))
        assert abs(px - total) <= 1e-12


# -- sample_path ---------------------------------------------------------------


def test_sample_path_empty():
    assert bernoulli(0.4).sample_path(0, 0) == ()


def test_sample_path_deterministic():
    p = bernoulli(0.4)
    assert p.sample_path(7, 50) == p.sample_path(7, 50)


def test_sample_path_frequency():
    path = bernoulli(0.4).sample_path(123, 100_000)
    freq = sum(path) / len(path)
    assert abs(freq - 0.4) < 0.01


def test_sample_path_of_a_mixture_costs_linear_time(monkeypatch):
    calls = [0]
    one_step = Markov.one_step

    def counted(self, history):
        calls[0] += 1
        return one_step(self, history)

    monkeypatch.setattr(Markov, "one_step", counted)
    mix = FiniteMixture([0.4, 0.6], [
        Markov([[0.8, 0.2], [0.3, 0.7]], initial=[0.5, 0.5]),
        Markov([[0.4, 0.6], [0.6, 0.4]], initial=[0.5, 0.5])])
    t = 2000
    assert len(mix.sample_path(5, t)) == t
    assert calls[0] <= 2 * t  # each draw: one law per component


def test_child_memo_keeps_no_history():
    # a forecaster keeps its base measure alive, and each measure remembers
    # its children; the memory is weak, so the posteriors it announced die
    rng = np.random.default_rng(11)
    path = [int(y) for y in rng.integers(0, 2, size=5000)]
    classes = (BetaLearner, FiniteMixture)

    def live():
        gc.collect()
        return [sum(type(o) is c for o in gc.get_objects()) for c in classes]

    before = live()
    bases = [BetaLearner([0.5, 0.5]), FiniteMixture(
        [0.5, 0.5], [BetaLearner([1.0, 2.0]), BetaLearner([2.0, 1.0])])]
    forecasters = [CoherentForecaster(base) for base in bases]
    for forecaster in forecasters:
        history = []
        for n, y in enumerate(path):
            history.append(y)
            posterior = forecaster.conditional(history)
            if n == 10:
                early = weakref.ref(posterior)
        assert posterior.child(0) is posterior.child(0)
        del posterior
        gc.collect()
        assert early() is None
    # per forecaster: its base and its last posterior, with their components
    assert [n - b for n, b in zip(live(), before)] == [1 + 1 + 2 + 2, 1 + 1]


def test_sample_path_negative_length():
    with pytest.raises(DomainError):
        bernoulli(0.4).sample_path(0, -1)


# -- Cromwell validation -------------------------------------------------------


def test_iid_rejects_zero_weight():
    with pytest.raises(CromwellViolation):
        IID([1.0, 0.0])


def test_iid_floor_smooths():
    p = IID([1.0, 0.0], floor=1e-12)
    assert p.one_step(())[1] > 0.0


def test_markov_rejects_zero_entry():
    with pytest.raises(CromwellViolation):
        Markov([[1.0, 0.0], [0.5, 0.5]])


def test_beta_rejects_nonpositive_pseudocounts():
    with pytest.raises(CromwellViolation):
        BetaLearner([0.5, 0.0])


def test_mixture_rejects_zero_weight():
    with pytest.raises((CromwellViolation, DomainError)):
        FiniteMixture([1.0, 0.0], [bernoulli(0.4), bernoulli(0.6)])


def test_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        IID([0.5, 0.6])


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(DomainError):
        Alphabet(2).check_string((0, 2))
    with pytest.raises(DomainError):
        Alphabet(0)


def test_alphabet_check_string_converts_and_names_the_first_bad_symbol():
    a = Alphabet(3)
    assert a.check_string([np.int64(2), 0, 1]) == (2, 0, 1)
    assert type(a.check_string([np.int64(2)])[0]) is int
    assert a.check_string(()) == ()
    with pytest.raises(DomainError,
                       match=r"^symbol 5 outside alphabet of size 3$"):
        a.check_string((1, 5, -1))
    with pytest.raises(DomainError, match=r"^symbol -1 outside"):
        a.check_string([-1, 7])


def test_alphabet_check_string_refuses_non_integer_symbols():
    # int() used to truncate: condition([0.9, 1.7]) conditioned on (0, 1)
    b, p = BetaLearner([1, 1]), bernoulli(0.3)
    for bad in ([0.9, 1.7], [1.7], [1.0], [np.float64(0.0)], ["1"], "01",
                [0, "a"]):
        for call in (b.condition, b.cylinder_log_prob, p.condition,
                     p.cylinder_log_prob):
            with pytest.raises(DomainError, match="^symbols must be integers"):
                call(bad)


# -- mixtures ---------------------------------------------------------------


def test_mixture_one_step_is_weighted_average():
    mix = FiniteMixture([0.3, 0.7], [bernoulli(0.2), bernoulli(0.9)])
    np.testing.assert_allclose(mix.one_step(()),
                               0.3 * np.array([0.8, 0.2])
                               + 0.7 * np.array([0.1, 0.9]))


def test_mixture_posterior_matches_bayes():
    mix = FiniteMixture([0.3, 0.7], [bernoulli(0.2), bernoulli(0.9)])
    post = mix.condition((1,))
    # posterior weights proportional to w_i * P_i(1)
    w = np.array([0.3 * 0.2, 0.7 * 0.9])
    w = w / w.sum()
    np.testing.assert_allclose(post.weights, w, atol=1e-14)


def test_mixture_survives_long_conditioning():
    # the unlikely component's posterior weight would underflow linearly
    mix = FiniteMixture([1.0 - 1e-6, 1e-6], [bernoulli(0.5), bernoulli(1e-3)])
    post = mix.condition(tuple([1] * 2000))
    d = post.one_step(())
    assert np.all(d > 0.0)
    assert abs(float(d.sum()) - 1.0) <= 1e-12


# -- type collapse ----------------------------------------------------------------


def level_rows(table, m):
    """The rows of level m, grown if need be."""
    assert table.reach(m, DEFAULT_BUDGET) == m
    return table.rows[m]


def string_counts(table, x):
    """The cell counts of string x in ``table``."""
    a, order, context = table.key
    index = {c: i for i, c in enumerate(table.contexts)}
    counts = [0] * (a * len(table.contexts))
    for i, y in enumerate(x):
        tail = (context + x[:i])[-order:] if order else ()
        counts[index[tail] * a + y] += 1
    return tuple(counts)


def test_type_log_probs_match_enumeration(rng):
    import itertools
    chain = Markov([[0.9, 0.1], [0.3, 0.7]], initial=[0.5, 0.5])
    for make in (lambda: bernoulli(0.35), lambda: BetaLearner([0.5, 2.0]),
                 lambda: FiniteMixture([0.4, 0.6],
                                       [bernoulli(0.2), bernoulli(0.7)]),
                 lambda: chain.condition((1,)),
                 lambda: FiniteMixture([0.4, 0.6], [
                     chain, Markov(np.full((2, 2, 2), 0.5))])):
        p = make()
        m = 5
        table = type_table(p.a, *p.type_key())
        level = level_rows(table, m)
        lp = p.type_log_probs(table, level)
        row = {tuple(int(c) for c in table.counts[i]): i - level.start
               for i in range(level.start, level.stop)}
        for x in itertools.product(range(p.a), repeat=m):
            # every string of one type has the same probability
            logp = lp[row[string_counts(table, x)]]
            assert logp == pytest.approx(p.cylinder_log_prob(x), abs=1e-10)
        # total mass check through the multiplicities
        total = float(np.exp(table.log_mult[level] + lp).sum())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_log_multinomial_is_the_log_of_the_exact_count():
    # the order-0 table: the count vectors of m in lexicographic order, and
    # the log multinomial of each, as log m! less the log factorials of the
    # counts, bit for bit as the count route had it (the singular-pair
    # benchmark check passes on that rounding)
    import itertools
    for m, a in ((40, 2), (12, 3), (300, 2)):
        log_fact = [math.log(math.factorial(k)) for k in range(m + 1)]
        table = type_table(a, 0, ())
        level = level_rows(table, m)
        rows = table.counts[level].astype(int).tolist()
        assert rows == [list(c) for c in itertools.product(range(m + 1),
                                                           repeat=a)
                        if sum(c) == m]
        # log m! minus the log factorials of the counts: a few ulps of log m!
        tol = 4 * math.ulp(math.log(math.factorial(m)))
        for row, v, k in zip(rows, table.log_mult[level], table.mult[level]):
            count = math.factorial(m)
            for c in row:
                count //= math.factorial(int(c))
            assert k == count
            assert abs(v - math.log(count)) <= tol
            assert v == log_fact[m] - sum(log_fact[int(c)] for c in row)


def test_beta_count_route_exact_at_ten_thousand_counts():
    # merge-beta's learners after 10^4 symbols: 1 - H_8 is near 1e-11 there,
    # so the count route must be exact well below that; differences of
    # log-gamma values near 4e4 were off by about 1e-11
    from decimal import Decimal, localcontext
    from fractions import Fraction
    from mergebet.metrics import hellinger_restricted, tv_restricted
    path = tuple(int(y) for y in
                 np.random.default_rng(3).integers(0, 2, size=10_000))
    n1 = sum(path)
    m = 8
    table = type_table(2, 0, ())
    level = level_rows(table, m)
    comps = [(int(c0), int(c1)) for c0, c1 in table.counts[level]]

    def urn(prior):  # exact probability of one string per count vector
        a0, a1 = Fraction(prior[0]) + len(path) - n1, Fraction(prior[1]) + n1
        out = []
        for c0, c1 in comps:
            p = Fraction(1)
            for i in range(c0):
                p *= (a0 + i) / (a0 + a1 + i)
            for i in range(c1):
                p *= (a1 + i) / (a0 + a1 + c0 + i)
            out.append(p)
        return out

    priors = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(5), Fraction(5)))
    learners = [BetaLearner([float(x) for x in pr]).condition(path)
                for pr in priors]
    exact = [urn(pr) for pr in priors]
    for b, ps in zip(learners, exact):
        for lp, p in zip(b.type_log_probs(table, level), ps):
            assert abs(math.exp(lp) / float(p) - 1.0) <= 1e-13
    with localcontext() as ctx:
        ctx.prec = 40

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        mult = [math.comb(m, c0) for c0, _ in comps]
        h = sum(k * (dec(p) * dec(q)).sqrt()
                for k, p, q in zip(mult, *exact))
        tv = sum(k * abs(dec(p) - dec(q)) for k, p, q in zip(mult, *exact))
        assert abs(Decimal(hellinger_restricted(*learners, m)) - h) <= 1e-13
        assert abs(Decimal(tv_restricted(*learners, m)) - tv) <= 1e-13


def stacked_mixture_log_probs(mix, table, m):
    """A mixture's type level by the stacked logsumexp it replaced."""
    rows = [c.type_log_probs(table, table.rows[m]) for c in mix.components]
    return logsumexp(np.stack(rows) + mix._logw[:, None], axis=0)


def test_mixture_type_log_probs_equal_the_stacked_logsumexp(rng):
    # bit for bit: the rows are summed in the order numpy sums a stack
    for a in (2, 3):
        pool = [lambda: random_iid(rng, a), lambda: random_beta(rng, a),
                # order 2 after one symbol: still in the initial ramp
                lambda: random_markov(rng, a, order=2).condition((1,)),
                lambda: random_markov(rng, a, order=1).condition((0, 1))]
        mixes = []
        for k in (1, 2, 3, 4, 4):
            comps = [pool[int(i)]() for i in rng.integers(0, len(pool), k)]
            mixes.append(FiniteMixture(random_simplex(rng, k, lo=1e-3), comps))
        mixes.append(FiniteMixture([0.3, 0.7], [
            random_markov(rng, a, order=2).condition((1,)), mixes[2]]))
        mixes.append(mixes[4].condition((1, 0, 1)))
        for mix in mixes:
            table = type_table(a, *mix.type_key())
            assert table.reach(12, DEFAULT_BUDGET) == 12
            for m in range(13):
                assert np.array_equal(mix.type_log_probs(table, table.rows[m]),
                                      stacked_mixture_log_probs(mix, table, m))


def mixture_at(components, lw):
    """A mixture of ``components`` at the log weights ``lw``, normalised;
    they may lie far below the log of the smallest positive double."""
    top = max(lw)
    z = top + math.log(math.fsum(math.exp(v - top) for v in lw))
    mix = FiniteMixture(np.full(len(lw), 1.0 / len(lw)), components)
    mix._lw = [v - z for v in lw]
    return mix


def test_concentrated_mixture_type_log_probs_keep_every_bit(rng):
    # the live component's rows stand for the logsumexp only where the others'
    # terms cannot move a sum that holds 1.0: log-weight gaps from -20 to
    # -800, densest where that starts (-36.7 for two components, 2^-53)
    gaps = [-g for g in range(20, 60)] + [-g for g in range(60, 801, 20)]
    for a in (2, 3):
        pool = [lambda: random_iid(rng, a), lambda: random_beta(rng, a),
                lambda: random_markov(rng, a, order=1).condition((0, 1))]
        for gap in gaps:
            k = int(rng.integers(2, 5))
            comps = [pool[int(i)]() for i in rng.integers(0, len(pool), k)]
            if gap % 3 == 0:  # one component is itself a mixture
                comps[-1] = mixture_at([comps[0], random_iid(rng, a)],
                                       [0.0, gap + float(rng.uniform(-5.0, 5.0))])
            lw = [gap + float(rng.uniform(-3.0, 0.0)) for _ in range(k)]
            lw[int(rng.integers(0, k))] = 0.0
            mix = mixture_at(comps, lw)
            table = type_table(a, *mix.type_key())
            assert table.reach(12, DEFAULT_BUDGET) == 12
            for m in range(13):
                assert np.array_equal(mix.type_log_probs(table, table.rows[m]),
                                      stacked_mixture_log_probs(mix, table, m))
            assert np.array_equal(
                mix.type_log_probs(table, slice(0, table.stop[12])),
                np.concatenate([stacked_mixture_log_probs(mix, table, m)
                                for m in range(13)]))
            law = 0.0
            for v, c in zip(mix._lw, mix.components):
                law = law + math.exp(v) * c.one_step(())
            assert np.array_equal(mix.one_step(()), law)


def rising_factorial_log_probs(b, table, m):
    """A Beta learner's type level by the np.append/cumsum formula it
    replaced, its table built afresh for level m."""
    cum = np.zeros((b.a + 1, m + 1))
    np.cumsum(np.log(np.append(b._alpha, b._alpha0)[:, None] + np.arange(m)),
              axis=1, out=cum[:, 1:])
    c = table.symbols[table.rows[m]]
    return sum(cum[y].take(c[:, y]) for y in range(b.a)) - cum[-1, m]


def test_beta_type_log_probs_equal_the_rising_factorial_formula(rng):
    # bit for bit, also when a table regrows (8, 16, 300 past the shared
    # offsets) or serves a lower level than it was built for
    path = tuple(int(y) for y in rng.integers(0, 2, size=10_000))
    for b in (BetaLearner([0.5, 2.0]), BetaLearner([1.3, 0.7, 2.9]),
              random_beta(rng, 3).child(2),
              BetaLearner([0.5, 0.5]).condition(path)):
        table = type_table(b.a, 0, ())
        for m in (0, 8, 16, 4, 0) + ((300, 5) if b.a == 2 else ()):
            assert table.reach(m, DEFAULT_BUDGET) == m
            assert np.array_equal(b.type_log_probs(table, table.rows[m]),
                                  rising_factorial_log_probs(b, table, m))


def test_one_pass_over_levels_equals_each_level_bit_for_bit(rng):
    # a pair's engine slices a small table's levels out of one pass over
    # levels 0..top; each slice must be the level scored alone, bit for bit
    # (a chain's product rounds by its shape, so it multiplies by level)
    for a in (2, 3):
        order1 = random_markov(rng, a, order=1).condition((0, 1))
        order2 = random_markov(rng, a, order=2).condition((2 % a, 1))
        pool = [random_iid(rng, a), random_beta(rng, a), order1, order2]
        mixes = [FiniteMixture(random_simplex(rng, 2, lo=1e-3), pair)
                 for pair in ((pool[0], pool[1]), (pool[0], order1),
                              (pool[1], order2), (order1, order2))]
        mixes.append(FiniteMixture([0.2, 0.3, 0.5], [mixes[3], *pool[:2]]))
        for x in pool + mixes + [mixes[4].condition((1, 0, 1))]:
            table = type_table(a, *x.type_key())
            for top in (4, 8, 12):
                assert table.reach(top, DEFAULT_BUDGET) == top
                every = x.type_log_probs(table, slice(0, table.stop[top]))
                assert len(every) == table.stop[top]
                for m in range(top + 1):
                    assert np.array_equal(
                        every[table.rows[m]],
                        x.type_log_probs(table, table.rows[m])), (a, x, m)


@pytest.mark.parametrize("family", ["iid", "markov", "beta_learner",
                                    "mixture", "conditioned"])
def test_a_stepped_measure_pickles(family):
    # a measure's memo holds weak references to its children; it is only a
    # cache, so pickling leaves it out and the copy starts with an empty one
    import pickle
    chain = Markov([[0.9, 0.1], [0.3, 0.7]], initial=[0.5, 0.5])
    x = {"iid": bernoulli(0.3), "markov": chain,
         "beta_learner": BetaLearner([0.5, 2.0]),
         "mixture": FiniteMixture([0.4, 0.6], [chain, BetaLearner([1.0, 1.0])]),
         "conditioned": Conditioned(BetaLearner([2.0, 1.0]), (1,))}[family]
    x = x.child(1)
    stepped = x.child(0), x.child(1)
    copy = pickle.loads(pickle.dumps(x))
    assert np.array_equal(copy.one_step(()), x.one_step(()))
    for s in ((), (0,), (1, 0, 1)):
        assert copy.cylinder_log_prob(s) == x.cylinder_log_prob(s)
    assert np.array_equal(copy.child(0).one_step(()), stepped[0].one_step(()))


def test_type_keys():
    assert bernoulli(0.4).type_key() == (0, ())
    assert BetaLearner([1.0, 1.0]).type_key() == (0, ())
    assert FiniteMixture([0.5, 0.5],
                         [bernoulli(0.3), bernoulli(0.6)]).type_key() == (0, ())
    chain = Markov([[0.9, 0.1], [0.3, 0.7]], initial=[0.5, 0.5])
    assert chain.type_key() == (1, ())
    order2 = Markov(np.full((2, 2, 2), 0.5))
    mix = FiniteMixture([0.4, 0.3, 0.3],
                        [chain, order2, BetaLearner([1.0, 1.0])])
    assert mix.condition((0, 1)).type_key() == (2, (0, 1))
    assert mix.condition((1,)).type_key() == (2, (1,))  # the order-2 ramp
    # contexts that do not end alike, and a measure with no type
    assert joint_type([chain.condition((1,)), order2.condition((1, 0))]) is None
    assert Conditioned(BetaLearner([1.0, 1.0]), (1,)).type_key() is None

    class Untyped(Measure):
        def one_step(self, history):
            return np.array([0.5, 0.5])

    assert Untyped(Alphabet(2)).type_key() is None


# -- hypothesis properties -------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(p_one=st.floats(min_value=0.01, max_value=0.99),
       data=st.lists(st.integers(min_value=0, max_value=1), max_size=6))
def test_iid_cylinder_matches_product(p_one, data):
    p = bernoulli(p_one)
    x = tuple(data)
    expected = sum(math.log(p_one if y else 1.0 - p_one) for y in x)
    assert p.cylinder_log_prob(x) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(alpha=st.lists(st.floats(min_value=0.1, max_value=10.0),
                      min_size=2, max_size=4),
       data=st.data())
def test_beta_learner_normalization(alpha, data):
    b = BetaLearner(alpha)
    h = tuple(data.draw(st.lists(st.integers(0, len(alpha) - 1), max_size=8)))
    d = b.one_step(h)
    assert abs(float(d.sum()) - 1.0) <= 1e-12
    assert np.all(d > 0.0)
