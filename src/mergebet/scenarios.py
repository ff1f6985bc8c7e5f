"""Forecaster and Reality behaviors, plus the shipped scenario catalog.

A coherent forecaster announces the conditional of one fixed measure on the
observed history; a scripted forecaster announces a listed measure each step
(cycling through the list), which deliberately allows incoherence. Reality
can sample from a measure, replay a fixed string, or switch generating law
at a given step. The catalog's ``singular-pair`` is the near-singular
forecast pair: two mixtures sharing a common base, each carrying weight delta
on its own disjoint-leaning component, so every finite-horizon conditional
stays in (0, 1) while the affinity floor 1 - H_m <= 2 * delta holds at all
horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError
from .measures import Measure, String


# -- forecasters -------------------------------------------------------------

@dataclass
class ForecasterSpec:
    kind: str  # "coherent" | "scripted"
    measure: Optional[Measure] = None
    measures: Optional[List[Measure]] = None


class CoherentForecaster:
    """Announces ``base.condition(history)`` each step.

    Conditioning is applied one symbol at a time when successive calls grow
    the history (for example one list appended to in place) by one symbol,
    so a T-step run costs O(T) rather than O(T^2). A one-longer history is
    trusted to extend the previous one (the protocol only ever appends); any
    other history triggers a full recondition from the base measure. A
    memoryless base (a chain view of order 0) is its own conditional.
    """

    def __init__(self, base: Measure):
        self.base = base
        view = base.chain_view()
        self._memoryless = view is not None and view.order == 0
        self._seen: List[int] = []
        self._cached = base

    def announce(self, n: int, history: Sequence[int]) -> Measure:
        return self.conditional(history)

    def conditional(self, history: Sequence[int]) -> Measure:
        if self._memoryless:
            return self.base
        if len(history) == len(self._seen) + 1:
            y = int(history[-1])
            self._cached = self._cached.condition((y,))
            self._seen.append(y)
        elif len(history) != len(self._seen) or list(history) != self._seen:
            self._cached = self.base.condition(history)
            self._seen = [int(y) for y in history]
        return self._cached


class ScriptedForecaster:
    """Announces the listed measures verbatim, cycling when exhausted."""

    def __init__(self, measures: Sequence[Measure]):
        if not measures:
            raise DomainError("scripted forecaster needs at least one measure")
        self.measures = list(measures)

    def announce(self, n: int, history: String) -> Measure:
        return self.measures[(n - 1) % len(self.measures)]


def make_forecaster(spec: ForecasterSpec):
    if spec.kind == "coherent":
        if spec.measure is None:
            raise DomainError("coherent forecaster needs a measure")
        return CoherentForecaster(spec.measure)
    if spec.kind == "scripted":
        return ScriptedForecaster(spec.measures)
    raise DomainError(f"unknown forecaster kind {spec.kind!r}")


# -- reality ------------------------------------------------------------------

@dataclass
class RealitySpec:
    kind: str  # "sample" | "scripted" | "switch_at"
    measure: Optional[Measure] = None
    string: Optional[Sequence[int]] = None
    step: Optional[int] = None
    before: Optional[Measure] = None
    after: Optional[Measure] = None
    seed: Optional[int] = None


def _draw(rng, p: np.ndarray) -> int:
    # inverse-cdf draw; cheaper than rng.choice for small alphabets
    u = rng.random() * p.sum()
    acc = 0.0
    for y in range(len(p) - 1):
        acc += p[y]
        if u < acc:
            return y
    return len(p) - 1


class SampledReality:
    def __init__(self, measure: Measure, seed):
        self._law = CoherentForecaster(measure)
        self.rng = np.random.default_rng(seed)

    def next(self, n: int, history: String) -> int:
        return _draw(self.rng, self._law.conditional(history).one_step(()))


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
        self._laws = CoherentForecaster(before), CoherentForecaster(after)
        self.rng = np.random.default_rng(seed)

    def next(self, n: int, history: String) -> int:
        law = self._laws[n > self.step].conditional(history)
        return _draw(self.rng, law.one_step(()))


def make_reality(spec: RealitySpec, default_seed=None):
    seed = spec.seed if spec.seed is not None else default_seed
    if spec.kind == "sample":
        if spec.measure is None:
            raise DomainError("sampled reality needs a measure")
        return SampledReality(spec.measure, seed)
    if spec.kind == "scripted":
        if spec.string is None:
            raise DomainError("scripted reality needs a string")
        return ScriptedReality(spec.string)
    if spec.kind == "switch_at":
        if spec.step is None or spec.before is None or spec.after is None:
            raise DomainError("switch_at reality needs step, before, after")
        return SwitchingReality(spec.step, spec.before, spec.after, seed)
    raise DomainError(f"unknown reality kind {spec.kind!r}")


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
