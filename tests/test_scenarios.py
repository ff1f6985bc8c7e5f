"""Forecaster/Reality behaviors and the shipped scenario catalog."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from mergebet.errors import DomainError
from mergebet.measures import (BetaLearner, FiniteMixture, IID, Markov, Measure,
                               bernoulli)
from mergebet.metrics import hellinger_restricted
from mergebet.scenarios import (CoherentForecaster, SampledReality,
                                ScriptedForecaster, ScriptedReality,
                                SwitchingReality, catalog)


# -- forecasters ---------------------------------------------------------------


def test_coherent_iid_announces_same_measure():
    f = CoherentForecaster(bernoulli(0.4))
    for n, h in [(1, ()), (2, (1,)), (3, (1, 0))]:
        np.testing.assert_allclose(f.announce(n, h).one_step(()), [0.6, 0.4])


def test_coherent_learner_posterior():
    f = CoherentForecaster(BetaLearner([0.5, 0.5]))
    f.announce(1, ())
    f.announce(2, (1,))
    m = f.announce(3, (1, 1))
    assert m.one_step(())[1] == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_coherent_identity_to_depth_four():
    base = BetaLearner([1.0, 2.0])
    f = CoherentForecaster(base)
    history = (0, 1, 1)
    announced = f.announce(1, history)
    conditional = base.condition(history)
    for depth in range(5):
        for x in np.ndindex(*([2] * depth)):
            assert announced.cylinder_log_prob(x) == pytest.approx(
                conditional.cylinder_log_prob(x), abs=1e-10)


def test_coherent_cache_handles_restarts():
    base = BetaLearner([0.5, 0.5])
    f = CoherentForecaster(base)
    f.announce(1, ())
    f.announce(2, (1,))
    f.announce(3, (1, 1))
    # jumping back to a shorter history must recondition from the base
    m = f.announce(2, (0,))
    assert m.one_step(())[1] == pytest.approx(0.25, abs=1e-12)
    assert m.one_step(())[1] == pytest.approx(base.condition((0,)).one_step(())[1])


def test_coherent_cache_extends_a_growing_list_and_rechecks_others():
    base = BetaLearner([0.5, 0.5])
    f = CoherentForecaster(base)
    history = []
    assert f.announce(1, history) is base
    for n, y in enumerate((1, 1, 0), start=2):
        history.append(y)  # run_experiment appends to one list in place
        m = f.announce(n, history)
    assert m.one_step(())[1] == pytest.approx(
        base.condition((1, 1, 0)).one_step(())[1], abs=1e-15)
    # a history of the same length that does not extend the cached one
    # must recondition from the base, as must a longer jump
    for other in ([0, 0, 1], (0, 0, 1, 1, 1)):
        m = f.announce(len(other) + 1, other)
        assert m.one_step(())[1] == pytest.approx(
            base.condition(tuple(other)).one_step(())[1], abs=1e-15)


def test_memoryless_base_is_its_own_conditional(monkeypatch):
    base = IID([0.3, 0.7])
    calls = []
    monkeypatch.setattr(IID, "condition",
                        lambda self, prefix: calls.append(prefix))
    f = CoherentForecaster(base)
    history = []
    for n, y in enumerate((1, 0, 1, 1), start=1):
        assert f.announce(n, history) is base
        history.append(y)
    assert f.announce(9, [0, 0]) is base
    assert not calls


def test_scripted_forecaster_cycles():
    p, q = bernoulli(0.7), bernoulli(0.3)
    f = ScriptedForecaster([p, q])
    assert f.announce(1, ()) is p
    assert f.announce(2, (0,)) is q
    assert f.announce(3, (0, 1)) is p


# -- reality -----------------------------------------------------------------


def test_scripted_reality_plays_string():
    r = ScriptedReality((0, 1, 0, 1))
    got = [r.next(n, ()) for n in range(1, 5)]
    assert got == [0, 1, 0, 1]
    with pytest.raises(DomainError):
        r.next(5, ())


def test_sampled_reality_deterministic():
    a = [SampledReality(bernoulli(0.5), 7).next(n, ()) for n in range(1, 51)]
    b = [SampledReality(bernoulli(0.5), 7).next(n, ()) for n in range(1, 51)]
    assert a == b


def test_switching_reality_frequency():
    r = SwitchingReality(100, bernoulli(0.5), bernoulli(0.9), 11)
    draws = [r.next(n, ()) for n in range(1, 10101)]
    late = draws[100:]
    freq = sum(late) / len(late)
    assert abs(freq - 0.9) < 0.01


def draw_as_before(rng, p):
    """Reality's inverse-cdf draw as it read a law: numpy scalars and the
    array's sum on every step."""
    u = rng.random() * p.sum()
    acc = 0.0
    for y in range(len(p) - 1):
        acc += p[y]
        if u < acc:
            return y
    return len(p) - 1


def draws_from_full_history(seed, law_at, t):
    """Reality's draws as made from the whole history at every step."""
    rng, path = np.random.default_rng(seed), []
    for n in range(1, t + 1):
        path.append(draw_as_before(rng, law_at(n).one_step(tuple(path))))
    return path


def play_reality(reality, t):
    path = []
    for n in range(1, t + 1):
        path.append(reality.next(n, path))
    return path


def test_realities_draw_the_same_paths_one_symbol_at_a_time():
    iid = IID([0.2, 0.3, 0.5])
    chain = Markov([[[0.7, 0.3], [0.4, 0.6]], [[0.1, 0.9], [0.5, 0.5]]],
                   initial=[[0.6, 0.4], [[0.3, 0.7], [0.8, 0.2]]])
    for measure in (iid, chain, bernoulli(0.3)):
        assert play_reality(SampledReality(measure, 5), 400) == \
            draws_from_full_history(5, lambda n: measure, 400)
    before = bernoulli(0.2)
    switch = SwitchingReality(150, before, chain, 9)
    assert play_reality(switch, 400) == draws_from_full_history(
        9, lambda n: before if n <= 150 else chain, 400)


def test_a_draw_from_floats_read_once_draws_as_before():
    # a memoryless law's floats and numpy sum are read once, a chain's each
    # step: over 10^4 steps both draw what the numpy-scalar draw drew
    chain = Markov([[0.7, 0.3], [0.45, 0.55]], initial=[0.6, 0.4])
    for measure in (IID([0.2, 0.3, 0.5]), chain):
        rng, m, want = np.random.default_rng(8), measure, []
        for _ in range(10_000):
            want.append(draw_as_before(rng, m.one_step(())))
            m = m.child(want[-1])
        assert play_reality(SampledReality(measure, 8), 10_000) == want


def test_a_sampling_reality_restarts_its_draws_at_step_one():
    # a game starts at n = 1, so one Reality object replays its path
    for reality in (SampledReality(bernoulli(0.3), 7),
                    SwitchingReality(20, bernoulli(0.3), bernoulli(0.8), 7)):
        first = play_reality(reality, 60)
        assert play_reality(reality, 60) == first
        assert play_reality(reality, 30) == first[:30]
    # a first call past step 1 builds the generator as step 1 would
    assert SampledReality(bernoulli(0.3), 7).next(5, [0, 1, 0, 1]) == \
        SampledReality(bernoulli(0.3), 7).next(1, [])


def test_mixture_reality_costs_linear_time(monkeypatch):
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
    path = play_reality(SampledReality(mix, 3), t)
    assert len(path) == t
    assert calls[0] <= 4 * t  # each step: one law per component, twice


# -- singular pair -------------------------------------------------------------
# the catalog's singular-pair as measures: two mixtures sharing a common base,
# each with weight delta on its own disjoint-leaning carrier

@dataclass
class SingularPairSpec:
    """Common base R plus two disjoint-leaning carrier measures, weight delta."""

    base: Measure
    carrier_i: Measure
    carrier_ii: Measure
    delta: float = 1e-6


def singular_pair(spec: SingularPairSpec) -> Tuple[Measure, Measure]:
    """Forecast pair (1-delta) R + delta S_side; Cromwell-valid throughout."""
    if not 0.0 <= spec.delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    if spec.delta == 0.0:
        return spec.base, spec.base
    p_i = FiniteMixture([1.0 - spec.delta, spec.delta],
                        [spec.base, spec.carrier_i])
    p_ii = FiniteMixture([1.0 - spec.delta, spec.delta],
                         [spec.base, spec.carrier_ii])
    return p_i, p_ii


def default_singular_pair(delta: float = 1e-6) -> Tuple[Measure, Measure]:
    """Fair-coin base with heavily skewed Bernoulli carriers."""
    return singular_pair(SingularPairSpec(
        bernoulli(0.5), bernoulli(1e-3), bernoulli(1.0 - 1e-3), delta))



def test_singular_pair_zero_delta_degenerates():
    base = bernoulli(0.5)
    p_i, p_ii = singular_pair(SingularPairSpec(base, bernoulli(0.1),
                                               bernoulli(0.9), delta=0.0))
    assert p_i is base and p_ii is base


def test_singular_pair_affinity_floor():
    delta = 1e-6
    p_i, p_ii = default_singular_pair(delta)
    for m in range(1, 11):
        assert 1.0 - hellinger_restricted(p_i, p_ii, m) <= 2.0 * delta


def test_singular_pair_cromwell_valid():
    p_i, p_ii = default_singular_pair()
    for h in [(), (1,), (0, 0, 0), tuple([1] * 10)]:
        for p in (p_i, p_ii):
            d = p.one_step(h)
            assert np.all(d > 0.0)
            assert abs(float(d.sum()) - 1.0) <= 1e-12


def test_singular_pair_rejects_bad_delta():
    spec = SingularPairSpec(bernoulli(0.5), bernoulli(0.1), bernoulli(0.9),
                            delta=1.0)
    with pytest.raises(DomainError):
        singular_pair(spec)


# -- catalog -------------------------------------------------------------------


def test_catalog_names():
    names = set(catalog())
    assert names == {"diverge-iid", "merge-beta", "singular-pair",
                     "incoherent-scripted"}


def test_catalog_configs_load():
    from mergebet.harness import ExperimentConfig
    for name in catalog():
        cfg = ExperimentConfig.load(name)
        assert cfg.t > 0
        assert cfg.alphabet_size == 2
