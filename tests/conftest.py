"""Shared helpers: random Cromwell-valid measures for property tests, and
H_m and TV_m by the tree walk alone."""

import math

import numpy as np
import pytest

from mergebet.measures import BetaLearner, FiniteMixture, IID, Markov, Measure
from mergebet.metrics import DEFAULT_BUDGET, _walk_sums


def random_simplex(rng, a: int, lo: float = 0.02) -> np.ndarray:
    """A strictly positive distribution over a symbols."""
    w = rng.dirichlet(np.ones(a)) * (1.0 - a * lo) + lo
    return w / w.sum()


def random_iid(rng, a: int = 2) -> IID:
    return IID(random_simplex(rng, a))


def random_markov(rng, a: int = 2, order: int = 1) -> Markov:
    shape = (a,) * order + (a,)
    tr = np.empty(shape)
    flat = tr.reshape(-1, a)
    for i in range(flat.shape[0]):
        flat[i] = random_simplex(rng, a)
    initial = []
    for j in range(order):
        t = np.empty((a,) * j + (a,))
        fl = t.reshape(-1, a)
        for i in range(fl.shape[0]):
            fl[i] = random_simplex(rng, a)
        initial.append(t)
    return Markov(tr, initial=initial)


def random_beta(rng, a: int = 2) -> BetaLearner:
    return BetaLearner(rng.uniform(0.2, 5.0, size=a))


def random_mixture(rng, a: int = 2) -> FiniteMixture:
    k = int(rng.integers(2, 4))
    w = random_simplex(rng, k, lo=0.05)
    comps = [random_iid(rng, a) for _ in range(k)]
    return FiniteMixture(w, comps)


def random_measure(rng, a: int = 2) -> Measure:
    pick = rng.integers(0, 4)
    if pick == 0:
        return random_iid(rng, a)
    if pick == 1:
        return random_markov(rng, a, order=int(rng.integers(1, 3)))
    if pick == 2:
        return random_beta(rng, a)
    return random_mixture(rng, a)


def walk_profiles(p, q, m: int, budget: int = DEFAULT_BUDGET):
    """(H_0 .. H_m, TV_0 .. TV_m) as arrays, by one walk of the tree."""
    hs, tvs = _walk_sums((p, q), m, budget, (
        lambda lp, lq: math.exp(0.5 * (lp + lq)),
        lambda lp, lq: abs(math.exp(lp) - math.exp(lq))))
    return np.array(hs), np.array(tvs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
