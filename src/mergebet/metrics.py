"""Horizon-m Hellinger affinity and total variation between measures.

``HorizonProfile`` is the metrics engine of one ordered pair. It picks the
pair's route once and memoises what it computes:

  * chain -- both measures have a bounded-memory chain view: H_m by
             joint-context dynamic programming, or rho**m in closed form
             when both are memoryless (TV_m takes the next route that fits).
  * type  -- the pair has a joint type: a sum over Y^m collapses onto the
             types of level m of a cached ``measures.TypeTable``, weighted by
             their exact multiplicities; order 0 (i.i.d., Beta learners and
             their mixtures) sums as the old count route did, bit for bit.
  * walk  -- otherwise, or beyond the type table's budget, one depth-first
             walk of the outcome tree fills H and TV up to the deepest horizon
             asked for; refused beyond a budget. ``tree_walk`` steps each
             measure with ``Measure.child``; the oracles do not use it.

Measures are immutable, so ``pair_profile`` finds the engines of the last few
pairs again by the identity of the two measures, in either order: when
announcements repeat (``IID.condition`` returns ``self``), a pair's report
rows, horizon searches and both legs' marks read one engine. The public
operations wrap it; ``method="dp"`` or ``"enumerate"`` runs that route alone.
H_m falls and TV_m rises with m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceeded, DomainError, MethodUnsupported
from .measures import (Measure, String, _tail, joint_type, logsumexp,
                       type_table)

#: default cap on the number of enumerated strings a**m
DEFAULT_BUDGET = 2 ** 22


def _max_horizon(a: int, budget: int) -> float:
    """The deepest horizon m whose a**m strings the budget affords."""
    if a == 1:
        return math.inf
    return math.floor((math.log(budget) + 1e-9) / math.log(a))


# -- chain (DP) route ------------------------------------------------------

class _ChainDP:
    """Sums over Y^m of products of per-symbol factors that depend only on
    the chain contexts of some measures; extended one horizon at a time."""

    def __init__(self, measures, factor: Callable[..., np.ndarray]):
        self._views = [x.chain_view() for x in measures]
        if any(v is None for v in self._views):
            raise MethodUnsupported(
                "dp requires every measure to have a bounded-memory chain view")
        self._factor = factor
        self._w = {tuple(v.context for v in self._views): 1.0}
        self.sums: List[float] = [1.0]

    def up_to(self, m: int) -> float:
        while len(self.sums) <= m:
            new: dict = {}
            for ctx, w in self._w.items():
                fac = self._factor(*(v.dist(c) for v, c in zip(self._views, ctx)))
                for y in range(len(fac)):
                    key = tuple(_tail(c + (y,), v.order)
                                for v, c in zip(self._views, ctx))
                    new[key] = new.get(key, 0.0) + w * fac[y]
            self._w = new
            self.sums.append(math.fsum(new.values()))
        return self.sums[m]


def _chain_affinity(p: Measure, q: Measure) -> Callable[[int], float]:
    """m -> H_m over paired chain contexts; rho**m in closed form when both
    chains are memoryless, so no context bookkeeping is needed."""
    chain = _ChainDP((p, q), lambda fp, fq: np.sqrt(fp * fq))
    vp, vq = chain._views
    if vp.order == 0 and vq.order == 0:
        rho = min(float(np.sqrt(vp.dist(()) * vq.dist(())).sum()), 1.0)
        return lambda m: rho ** m
    return lambda m: min(chain.up_to(m), 1.0)


# -- enumeration route -------------------------------------------------------

#: terms of one horizon that ``_enum_profiles`` collects before summing them
_FOLD = 2 ** 16


def tree_walk(measures: Sequence[Measure], m: int, budget: int = DEFAULT_BUDGET
              ) -> Iterator[Tuple[String, List[float]]]:
    """(x, [log P(x) under each measure]) for each x in Y^<=m, depth first,
    parents first, symbols in order, stepping each measure to its child."""
    a = measures[0].a
    if m > _max_horizon(a, budget):
        raise BudgetExceeded(
            f"enumeration over {a}^{m} strings exceeds the budget of {budget} terms")
    stack = [((), list(measures), [0.0] * len(measures))]
    while stack:
        x, nodes, lps = stack.pop()
        yield x, lps
        if len(x) < m:
            dists = [node.one_step(()) for node in nodes]
            inner = len(x) + 1 < m  # a leaf needs no measure
            for y in reversed(range(a)):
                stack.append((x + (y,),
                              [n.child(y) for n in nodes] if inner else None,
                              [lp + math.log(d[y]) for lp, d in zip(lps, dists)]))


def _enum_profiles(p: Measure, q: Measure, max_m: int,
                   budget: int) -> Tuple[np.ndarray, np.ndarray]:
    """(H_0..H_max, TV_0..TV_max) by one depth-first walk of the tree."""
    hell: List[list] = [[] for _ in range(max_m + 1)]
    tv: List[list] = [[] for _ in range(max_m + 1)]
    for x, (lp, lq) in tree_walk((p, q), max_m, budget):
        h, t = hell[len(x)], tv[len(x)]
        h.append(math.exp(0.5 * (lp + lq)))
        t.append(abs(math.exp(lp) - math.exp(lq)))
        if len(h) == _FOLD:  # bounds memory; each fold rounds once
            h[:], t[:] = [math.fsum(h)], [math.fsum(t)]
    return (np.minimum([math.fsum(h) for h in hell], 1.0),
            np.array([math.fsum(t) for t in tv]))


# -- the pair engine ----------------------------------------------------------

class HorizonProfile:
    """Metrics engine of one ordered pair: memoised H_m and TV_m on the route
    picked for the pair, and a bisection for the smallest horizon with H_m
    below a threshold (H_m is non-increasing in m).

    Off the chain route a level is summed over its types, or walked when the
    pair has no joint type or the type table cannot afford the level.
    """

    #: searches cut short by the enumeration budget, summed over all engines
    capped_searches = 0

    def __init__(self, p: Measure, q: Measure, budget: int = DEFAULT_BUDGET):
        self.p, self.q = p, q
        self.budget = budget
        try:
            self._chain = _chain_affinity(p, q)
        except MethodUnsupported:
            self._chain = None
        types = joint_type((p, q))
        self._table = None if types is None else type_table(p.a, *types)
        self._reach = -1  # the deepest level the type table is known to afford
        self._logps: dict = {}  # m -> type_log_probs(m) of p, of q
        self._memo = ({0: 1.0}, {0: 0.0})  # H_m, TV_m

    def _typed(self, m: int) -> bool:
        if m > self._reach and self._table is not None:
            self._reach = self._table.reach(m, self.budget)
        return m <= self._reach

    def _read(self, m: int, which: int) -> float:
        """H_m (which = 0) or TV_m (1), memoised."""
        v = self._memo[which].get(m)
        if v is not None:
            return v
        if not self._typed(m):  # one walk fills H (off the chain route) and TV
            hs, tvs = _enum_profiles(self.p, self.q, m, self.budget)
            if self._chain is None:
                self._memo[0].update(enumerate(hs.tolist()))
            self._memo[1].update(enumerate(tvs.tolist()))
            return float((hs, tvs)[which][m])
        t = self._table
        if m not in self._logps:
            self._logps[m] = (self.p.type_log_probs(t, m),
                              self.q.type_log_probs(t, m))
        lp, lq = self._logps[m]
        lc = t.log_mult[t.rows[m]]
        self._memo[which][m] = v = (
            min(float(np.exp(lc + 0.5 * (lp + lq)).sum()), 1.0) if which == 0
            else float(np.abs(np.exp(lc + lp) - np.exp(lc + lq)).sum()))
        return v

    def h(self, m: int) -> float:
        """Affinity H_m = sum over Y^m of sqrt(P(x) Q(x)); in [0, 1]."""
        if self._chain is not None:
            return self._chain(m)
        v = self._memo[0].get(m)  # the memo first: the search reads it most
        return self._read(m, 0) if v is None else v

    def tv(self, m: int) -> float:
        """Total variation of the horizon-m restrictions; in [0, 2]."""
        return self._read(m, 1)

    def find_below(self, threshold: float, m_max: int) -> Optional[int]:
        """Smallest m <= m_max with H_m < threshold (strict), else None.

        Off the chain route the search stops at the deepest horizon that the
        type table or the walk affords within the budget, and counts itself
        in ``capped_searches`` when that is short of m_max.
        """
        if m_max < 1:
            return None
        if self._chain is None and not self._typed(m_max):
            cap = max(_max_horizon(self.p.a, self.budget), self._reach)
            if m_max > cap:
                HorizonProfile.capped_searches += 1
                m_max = cap
        if m_max < 1 or not self.h(m_max) < threshold:
            return None
        lo, hi = 0, m_max  # invariant: H_lo >= threshold > H_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.h(mid) < threshold:
                hi = mid
            else:
                lo = mid
        return hi


#: engines of the pairs met last, oldest first, by (id(p), id(q), budget); an
#: entry holds its measures, so no other object can take an id in its key
_ENGINES: Dict[tuple, HorizonProfile] = {}
#: a step reads the announced pair and the pairs of the legs it marks
ENGINE_CACHE_SIZE = 8


def pair_profile(p: Measure, q: Measure,
                 budget: int = DEFAULT_BUDGET) -> HorizonProfile:
    """The engine of (p, q), reused while the pair is among the last met.
    (q, p) reads the same engine: H_m and TV_m are symmetric term by term."""
    key = (id(p), id(q), budget)
    engine = _ENGINES.get(key) or _ENGINES.get((id(q), id(p), budget))
    if engine is None:
        if len(_ENGINES) >= ENGINE_CACHE_SIZE:
            del _ENGINES[next(iter(_ENGINES))]
        engine = _ENGINES[key] = HorizonProfile(p, q, budget)
    return engine


# -- public operations --------------------------------------------------------

def _check(m: int, p: Measure, *others: Measure) -> None:
    if m < 0:
        raise DomainError("horizon must be >= 0")
    if any(x.a != p.a for x in others):
        raise DomainError("measures live on different alphabets")


def hellinger_restricted(p: Measure, q: Measure, m: int, method: str = "auto",
                         budget: int = DEFAULT_BUDGET) -> float:
    """Affinity H_m = sum over Y^m of sqrt(P(x) Q(x)); in [0, 1]."""
    if method != "auto" or m <= 0 or p.a != q.a:  # the checks, and m = 0
        return float(affinity_profile(p, q, m, method, budget)[m])
    return pair_profile(p, q, budget).h(m)


def affinity_profile(p: Measure, q: Measure, max_m: int, method: str = "auto",
                     budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """H_0 .. H_max as an array."""
    _check(max_m, p, q)
    if method == "enumerate":
        return _enum_profiles(p, q, max_m, budget)[0]
    if method not in ("auto", "dp"):
        raise DomainError(f"unknown method {method!r}")
    h = pair_profile(p, q, budget).h if method == "auto" \
        else _chain_affinity(p, q)
    return np.array([h(m) for m in range(max_m + 1)])


def tv_restricted(p: Measure, q: Measure, m: int,
                  budget: int = DEFAULT_BUDGET) -> float:
    """Total variation of the horizon-m restrictions; in [0, 2]."""
    _check(m, p, q)
    return pair_profile(p, q, budget).tv(m)


def tv_profile(p: Measure, q: Measure, max_m: int,
               budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """TV_0 .. TV_max as an array."""
    _check(max_m, p, q)
    engine = pair_profile(p, q, budget)
    return np.array([engine.tv(m) for m in range(max_m + 1)])


def hellinger_tv_bounds(h: float) -> Tuple[float, float]:
    """Sandwich bounds on total variation: (2(1-h), sqrt(8(1-h)))."""
    if not 0.0 <= h <= 1.0 + 1e-12:
        raise DomainError(f"affinity must lie in [0,1], got {h}")
    h = min(h, 1.0)
    return 2.0 * (1.0 - h), math.sqrt(8.0 * (1.0 - h))


def expectation_sqrt_ratio(f: Measure, p: Measure, q: Measure, m: int,
                           budget: int = DEFAULT_BUDGET) -> float:
    """E_F[sqrt(Q(x)/P(x))] over x in Y^m; the mark-to-market primitive."""
    _check(m, f, p, q)
    if m == 0:
        return 1.0
    if all(x.chain_view() is not None for x in (f, p, q)):
        return _ChainDP((f, p, q), lambda ff, fp, fq: ff * np.sqrt(fq / fp)
                        ).up_to(m)
    types = joint_type((f, p, q))
    t = None if types is None else type_table(f.a, *types)
    if t is not None and t.reach(m, budget) == m:
        lf, lp, lq = (x.type_log_probs(t, m) for x in (f, p, q))
        return float(np.exp(t.log_mult[t.rows[m]] + lf + 0.5 * (lq - lp)).sum())
    return math.fsum(math.exp(lf + 0.5 * (lq - lp))
                     for x, (lf, lp, lq) in tree_walk((f, p, q), m, budget)
                     if len(x) == m)


@dataclass
class HorizonDistribution:
    """Explicit restriction of a measure to Y^m: (string, log-probability)."""

    horizon: int
    items: List[Tuple[String, float]]


def horizon_distribution(measure: Measure, m: int,
                         budget: int = DEFAULT_BUDGET) -> HorizonDistribution:
    """Enumerate the horizon-m restriction; validates normalization."""
    items = [(x, lps[0]) for x, lps in tree_walk((measure,), m, budget)
             if len(x) == m]
    total = logsumexp([lp for _, lp in items])
    if abs(math.exp(total) - 1.0) > 1e-9:
        raise DomainError(f"restriction mass {math.exp(total)} not 1 within 1e-9")
    return HorizonDistribution(m, items)
