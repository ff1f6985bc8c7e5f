"""Forecaster and Reality behaviors, plus the shipped scenario catalog.

A coherent forecaster announces the conditional of one fixed measure on the
observed history; a scripted forecaster announces a listed measure each step
(cycling through the list), which deliberately allows incoherence. Reality
can sample from a measure, replay a fixed string, or switch generating law
at a given step. A game starts at n = 1, so a player replays: a coherent
forecaster reconditions on a history that does not extend its own, and a
sampling Reality reseeds its generator at n = 1. The catalog's
``singular-pair`` is the near-singular forecast pair: two mixtures sharing a
common base, each carrying weight delta on its own disjoint-leaning
component, so every finite-horizon conditional stays in (0, 1) while the
affinity floor 1 - H_m <= 2 * delta holds at all horizons.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from .errors import DomainError
from .measures import Measure, String


# -- forecasters -------------------------------------------------------------

class CoherentForecaster:
    """Announces ``measure.condition(history)`` each step.

    Conditioning is applied one symbol at a time when successive calls grow
    the history (for example one list appended to in place) by one symbol,
    so a T-step run costs O(T) rather than O(T^2). A one-longer history is
    trusted to extend the previous one (the protocol only ever appends); any
    other history triggers a full recondition from the measure. A
    memoryless measure (a chain view of order 0) is its own conditional.
    """

    def __init__(self, measure: Measure):
        self.measure = measure
        view = measure.chain_view()
        self._memoryless = view is not None and view.order == 0
        self._seen: List[int] = []
        self._cached = measure

    def announce(self, n: int, history: Sequence[int]) -> Measure:
        return self.conditional(history)

    def conditional(self, history: Sequence[int]) -> Measure:
        if self._memoryless:
            return self.measure
        if len(history) == len(self._seen) + 1:
            y = int(history[-1])
            if not 0 <= y < self.measure.a:  # as condition((y,)) would
                raise DomainError(f"symbol {y} outside alphabet of size "
                                  f"{self.measure.a}")
            self._cached = self._cached.child(y)
            self._seen.append(y)
        elif len(history) != len(self._seen) or list(history) != self._seen:
            self._cached = self.measure.condition(history)
            self._seen = [int(y) for y in history]
        return self._cached


class ScriptedForecaster:
    """Announces the listed measures verbatim, cycling when exhausted."""

    def __init__(self, measures: Sequence[Measure]):
        self.measures = list(measures)

    def announce(self, n: int, history: String) -> Measure:
        return self.measures[(n - 1) % len(self.measures)]


# -- reality ------------------------------------------------------------------

def _draw(rng, p, total) -> int:
    # inverse-cdf draw; cheaper than rng.choice for small alphabets
    u = rng.random() * total
    acc = 0.0
    for y in range(len(p) - 1):
        acc += p[y]
        if u < acc:
            return y
    return len(p) - 1


def _law(measure: Measure) -> Callable[[Sequence[int]], tuple]:
    """history -> (law, numpy sum) for ``_draw``; read once, as floats, if i.i.d."""
    f, p = CoherentForecaster(measure), measure.one_step(())
    law = p.tolist(), p.sum()
    return (lambda history: law) if f._memoryless else (
        lambda history: (q := f.conditional(history).one_step(()), q.sum()))


class SampledReality:
    def __init__(self, measure: Measure, seed):
        self._law = _law(measure)
        self.seed, self.rng = seed, None  # built by the first draw

    def next(self, n: int, history: String) -> int:
        if n == 1 or self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        return _draw(self.rng, *self._law(history))


class ScriptedReality:
    def __init__(self, string: Sequence[int]):
        self.string = tuple(int(s) for s in string)

    def next(self, n: int, history: String) -> int:
        if n - 1 >= len(self.string):
            raise DomainError("scripted reality exhausted")
        return self.string[n - 1]


class SwitchingReality:
    """Generates from ``before`` through step ``step``, then from ``after``."""

    def __init__(self, step: int, before: Measure, after: Measure, seed):
        self.step = step
        self._laws = _law(before), _law(after)
        self.seed, self.rng = seed, None  # built by the first draw

    def next(self, n: int, history: String) -> int:
        if n == 1 or self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        return _draw(self.rng, *self._laws[n > self.step](history))


# -- shipped catalog (config form; see harness for the schema) -----------------

def catalog() -> dict:
    """Named experiment configurations used by the acceptance suite."""
    fair = {"family": "iid", "weights": [0.5, 0.5]}
    skew_lo = {"family": "iid", "weights": [1.0 - 1e-3, 1e-3]}
    skew_hi = {"family": "iid", "weights": [1e-3, 1.0 - 1e-3]}
    return {
        "diverge-iid": {
            "alphabet_size": 2,
            "T": 3400,
            "forecaster_I": {"kind": "coherent",
                             "measure": {"family": "iid", "weights": [0.6, 0.4]}},
            "forecaster_II": {"kind": "coherent",
                              "measure": {"family": "iid", "weights": [0.4, 0.6]}},
            "reality": {"kind": "sample", "measure": fair},
            "sceptic": {"J": 10, "M_max": 100, "lim_wrap": False},
            "m_report": 8,
            "seed": 1,
        },
        "merge-beta": {
            "alphabet_size": 2,
            "T": 10000,
            "forecaster_I": {"kind": "coherent",
                             "measure": {"family": "beta_learner",
                                         "pseudo_counts": [0.5, 0.5]}},
            "forecaster_II": {"kind": "coherent",
                              "measure": {"family": "beta_learner",
                                          "pseudo_counts": [5.0, 5.0]}},
            "reality": {"kind": "sample", "measure": fair},
            "sceptic": {"J": 8, "M_max": 16, "lim_wrap": False},
            "m_report": 8,
            "seed": 1,
        },
        "singular-pair": {
            "alphabet_size": 2,
            "T": 10000,
            "forecaster_I": {"kind": "coherent", "measure": {
                "family": "mixture", "weights": [1.0 - 1e-6, 1e-6],
                "components": [fair, skew_lo]}},
            "forecaster_II": {"kind": "coherent", "measure": {
                "family": "mixture", "weights": [1.0 - 1e-6, 1e-6],
                "components": [fair, skew_hi]}},
            "reality": {"kind": "sample", "measure": fair},
            "sceptic": {"J": 20, "M_max": 64, "lim_wrap": False},
            "m_report": 8,
            "seed": 1,
        },
        "incoherent-scripted": {
            "alphabet_size": 2,
            "T": 200,
            "forecaster_I": {"kind": "scripted", "measures": [
                {"family": "iid", "weights": [0.7, 0.3]},
                {"family": "iid", "weights": [0.3, 0.7]}]},
            "forecaster_II": {"kind": "coherent", "measure": fair},
            "reality": {"kind": "sample", "measure": fair},
            "sceptic": {"J": 5, "M_max": 16, "lim_wrap": False},
            "m_report": 8,
            "seed": 1,
        },
    }
