"""Forecaster/Reality behaviors and the shipped scenario catalog."""

import math

import numpy as np
import pytest

from mergebet.errors import DomainError
from mergebet.measures import BetaLearner, bernoulli
from mergebet.metrics import hellinger_restricted
from mergebet.scenarios import (ForecasterSpec, RealitySpec, SingularPairSpec,
                                catalog, default_singular_pair, make_forecaster,
                                make_reality, singular_pair)


# -- forecasters ---------------------------------------------------------------


def test_coherent_iid_announces_same_measure():
    f = make_forecaster(ForecasterSpec("coherent", measure=bernoulli(0.4)))
    for n, h in [(1, ()), (2, (1,)), (3, (1, 0))]:
        np.testing.assert_allclose(f.announce(n, h).one_step(()), [0.6, 0.4])


def test_coherent_learner_posterior():
    f = make_forecaster(ForecasterSpec("coherent",
                                       measure=BetaLearner([0.5, 0.5])))
    f.announce(1, ())
    f.announce(2, (1,))
    m = f.announce(3, (1, 1))
    assert m.one_step(())[1] == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_coherent_identity_to_depth_four():
    base = BetaLearner([1.0, 2.0])
    f = make_forecaster(ForecasterSpec("coherent", measure=base))
    history = (0, 1, 1)
    announced = f.announce(1, history)
    conditional = base.condition(history)
    for depth in range(5):
        for x in np.ndindex(*([2] * depth)):
            assert announced.cylinder_log_prob(x) == pytest.approx(
                conditional.cylinder_log_prob(x), abs=1e-10)


def test_coherent_cache_handles_restarts():
    base = BetaLearner([0.5, 0.5])
    f = make_forecaster(ForecasterSpec("coherent", measure=base))
    f.announce(1, ())
    f.announce(2, (1,))
    f.announce(3, (1, 1))
    # jumping back to a shorter history must recondition from the base
    m = f.announce(2, (0,))
    assert m.one_step(())[1] == pytest.approx(0.25, abs=1e-12)
    assert m.one_step(())[1] == pytest.approx(base.condition((0,)).one_step(())[1])


def test_coherent_cache_extends_a_growing_list_and_rechecks_others():
    base = BetaLearner([0.5, 0.5])
    f = make_forecaster(ForecasterSpec("coherent", measure=base))
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


def test_scripted_forecaster_cycles():
    p, q = bernoulli(0.7), bernoulli(0.3)
    f = make_forecaster(ForecasterSpec("scripted", measures=[p, q]))
    assert f.announce(1, ()) is p
    assert f.announce(2, (0,)) is q
    assert f.announce(3, (0, 1)) is p


def test_forecaster_spec_validation():
    with pytest.raises(DomainError):
        make_forecaster(ForecasterSpec("coherent"))
    with pytest.raises(DomainError):
        make_forecaster(ForecasterSpec("scripted", measures=[]))
    with pytest.raises(DomainError):
        make_forecaster(ForecasterSpec("psychic"))


# -- reality -----------------------------------------------------------------


def test_scripted_reality_plays_string():
    r = make_reality(RealitySpec("scripted", string=(0, 1, 0, 1)))
    got = [r.next(n, ()) for n in range(1, 5)]
    assert got == [0, 1, 0, 1]
    with pytest.raises(DomainError):
        r.next(5, ())


def test_sampled_reality_deterministic():
    spec = RealitySpec("sample", measure=bernoulli(0.5), seed=7)
    a = [make_reality(spec).next(n, ()) for n in range(1, 51)]
    b = [make_reality(spec).next(n, ()) for n in range(1, 51)]
    assert a == b


def test_switching_reality_frequency():
    spec = RealitySpec("switch_at", step=100, before=bernoulli(0.5),
                       after=bernoulli(0.9), seed=11)
    r = make_reality(spec)
    draws = [r.next(n, ()) for n in range(1, 10101)]
    late = draws[100:]
    freq = sum(late) / len(late)
    assert abs(freq - 0.9) < 0.01


def test_reality_spec_validation():
    with pytest.raises(DomainError):
        make_reality(RealitySpec("sample"))
    with pytest.raises(DomainError):
        make_reality(RealitySpec("scripted"))
    with pytest.raises(DomainError):
        make_reality(RealitySpec("switch_at", step=3))
    with pytest.raises(DomainError):
        make_reality(RealitySpec("chaos"))


# -- singular pair -------------------------------------------------------------


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
