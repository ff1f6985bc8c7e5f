"""Horizon-m Hellinger affinity and total variation between measures.

Every sum over Y^m here (H_m, TV_m and E_F[sqrt(Q/P)]) takes the first of
three routes that fits its measures, and is picked in this module alone:

  * chain -- each has a bounded-memory chain view (``_chain``): a joint-
             context dynamic program; rho**m for H_m of two memoryless ones.
  * type  -- they have a joint type whose cached ``TypeTable`` the budget
             affords to level m (``_type_levels``): a sum over the level's
             types, weighted by their exact multiplicities; each measure
             scores a small table's levels in one pass, a large one's singly,
             and an engine's H terms of a pass are one exp over its rows.
  * walk  -- else one depth-first walk of the outcome tree (``_walk_sums``)
             fills every level up to m; refused beyond a budget.

``HorizonProfile``, the engine of one pair, memoises H_m, TV_m (which has no
chain form) and its search answers. Measures are immutable, so ``pair_profile``
finds the engines of the last few pairs again by the identity of the two
measures, in either order: legs step onto the announced measures (``child`` is
memoised), so a coherent step's report, horizon search and leg marks read one
engine. Two mixtures collapsed onto live components read those components'
rows alone, so each step's new posterior pair takes over the last one's engine
for the levels it has read (``HorizonProfile.serve``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceeded, DomainError
from .measures import (BetaLearner, FiniteMixture, Measure, String, _tail,
                       joint_type, type_table)

#: default cap on the number of enumerated strings a**m
DEFAULT_BUDGET = 2 ** 22


def _max_horizon(a: int, budget: int) -> float:
    """The deepest horizon m whose a**m strings the budget affords."""
    if a == 1:
        return math.inf
    return math.floor((math.log(budget) + 1e-9) / math.log(a))


# -- chain route ------------------------------------------------------------

class _ChainDP:
    """Sums over Y^m of products of per-symbol factors that depend only on
    the chain contexts of some measures; extended one horizon at a time."""

    def __init__(self, views, factor: Callable[..., np.ndarray]):
        self.views = views
        self._factor = factor
        self._w = {tuple(v.context for v in views): 1.0}
        self.sums: List[float] = [1.0]

    def up_to(self, m: int) -> float:
        while len(self.sums) <= m:
            new: dict = {}
            for ctx, w in self._w.items():
                fac = self._factor(*(v.dist(c) for v, c in zip(self.views, ctx)))
                for y in range(len(fac)):
                    key = tuple(_tail(c + (y,), v.order)
                                for v, c in zip(self.views, ctx))
                    new[key] = new.get(key, 0.0) + w * fac[y]
            self._w = new
            self.sums.append(math.fsum(new.values()))
        return self.sums[m]


def _chain(measures: Sequence[Measure], factor: Callable[..., np.ndarray]
           ) -> Optional[_ChainDP]:
    """The context DP of the measures, or None when one has no chain view."""
    views = [x.chain_view() for x in measures]
    if any(v is None for v in views):
        return None
    return _ChainDP(views, factor)


def _chain_affinity(p: Measure, q: Measure) -> Optional[Callable[[int], float]]:
    """m -> H_m over paired chain contexts (None off the chain route); rho**m
    when both are memoryless, which needs no context bookkeeping."""
    chain = _chain((p, q), lambda fp, fq: np.sqrt(fp * fq))
    if chain is None:
        return None
    vp, vq = chain.views
    if vp.order == 0 and vq.order == 0:
        rho = min(float(np.sqrt(vp.dist(()) * vq.dist(())).sum()), 1.0)
        return lambda m: rho ** m
    return lambda m: min(chain.up_to(m), 1.0)


# -- type route ---------------------------------------------------------------

#: the most rows of a table scored in one pass over all its levels: for a
#: fresh mixture of two i.i.d. laws a level costs 9.5 us at any size, and a
#: pass costs two levels (the fewest an engine reads) at 800 to 1000 rows
SMALL_TABLE = 768
#: the deepest level asked of a type table in the game ``play`` runs, by (a, order)
DEEPEST: Dict[tuple, int] = {}


def _type_levels(measures: Sequence[Measure], budget: int
                 ) -> Callable[[int], Optional[Tuple[tuple, Optional[slice]]]]:
    """m -> level m of the type route as (arrays, rows): the rows of its
    types' log multiplicities and of each measure's ``type_log_probs``; None
    without a joint type (``level.table`` None) or past the budget. Memoised;
    while the levels the game has asked for span at most SMALL_TABLE rows,
    the arrays are one pass over them all (a row's value does not depend on
    the range: the sums are elementwise, and a chain multiplies level by
    level), else the level's own and rows None."""
    types = joint_type(measures)
    t = None if types is None else type_table(measures[0].a, *types)
    memo, every = {}, [((),)]  # every: the one pass
    beta = all(type(x) is BetaLearner for x in measures)

    def level(m: int):
        if m not in memo and t is not None and t.reach(m, budget) >= m:
            rows = t.rows[m]
            if len(every[0][0]) < rows.stop:  # not in the pass, if there is one
                deep = DEEPEST[t.key[:2]] = max(DEEPEST.get(t.key[:2], 0), m)
                top = t.stop[t.reach(deep, budget) if deep > m else m]
                if top <= SMALL_TABLE:  # Beta learners alone: one stacked kernel
                    every[0] = (t.log_mult[:top], *(BetaLearner.stacked_log_probs(
                        measures, t, slice(0, top))[1] if beta else [
                        x.type_log_probs(t, slice(0, top)) for x in measures]))
            memo[m] = (every[0], rows) if len(every[0][0]) >= rows.stop else ((
                t.log_mult[rows], *[x.type_log_probs(t, rows) for x in measures]),
                None)
        return memo.get(m)
    level.table = t
    return level


# -- walk route ---------------------------------------------------------------

#: terms of one horizon that ``_walk_sums`` collects before summing them
_FOLD = 2 ** 16


def tree_walk(measures: Sequence[Measure], m: int, budget: int = DEFAULT_BUDGET
              ) -> Iterator[Tuple[String, List[float]]]:
    """(x, [log P(x) under each measure]) for each x in Y^<=m, depth first,
    parents first, symbols in order (by ``_child``: no walk reads a memo twice)."""
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
                              [n._child(y) if type(n).child is Measure.child
                               else n.child(y) for n in nodes] if inner else None,
                              [lp + math.log(d[y]) for lp, d in zip(lps, dists)]))


def _walk_sums(measures: Sequence[Measure], m: int, budget: int,
               terms: Sequence[Callable[..., float]]) -> List[List[float]]:
    """For each term, its sums over Y^0 .. Y^m of term(log P(x) under each
    measure), all by one depth-first walk of the tree."""
    parts = [[[] for _ in range(m + 1)] for _ in terms]
    for x, lps in tree_walk(measures, m, budget):
        for term, levels in zip(terms, parts):
            s = levels[len(x)]
            s.append(term(*lps))
            if len(s) == _FOLD:  # bounds memory; each fold rounds once
                s[:] = [math.fsum(s)]
    return [[math.fsum(s) for s in levels] for levels in parts]


# -- the pair engine ----------------------------------------------------------

class HorizonProfile:
    """Metrics engine of one ordered pair: memoised H_m and TV_m, and the first
    m with H_m (non-increasing) below each of several thresholds (memoised too)."""

    #: searches cut short by the enumeration budget, summed over all engines
    capped_searches = 0

    def __init__(self, p: Measure, q: Measure, budget: int = DEFAULT_BUDGET):
        self.p, self.q = p, q
        self.budget = budget
        self._chain = _chain_affinity(p, q)
        self._level = _type_levels((p, q), budget)
        self._memo = ({0: 1.0}, {0: 0.0})  # H_m, TV_m
        self._terms = (None,)  # the type pass read last, and its H terms
        self._answers = None  # search answers by (m_max, threshold)
        self.depth, self._spreads = math.inf, None  # shared: see serve

    def _read(self, m: int, which: int) -> float:
        """H_m (which = 0) or TV_m (1), memoised."""
        v = self._memo[which].get(m)
        if v is not None:
            return v
        if m > self.depth:  # a shared engine's pair reads deeper levels alone
            self.__init__(self.p, self.q, self.budget)
        level = self._level(m)
        if level is None:  # one walk fills the levels up to m no type serves
            hs, tvs = _walk_sums((self.p, self.q), m, self.budget, (
                lambda lp, lq: math.exp(0.5 * (lp + lq)),
                lambda lp, lq: abs(math.exp(lp) - math.exp(lq))))
            j = m
            while level is None and j > 0:  # a table affords levels 0..d
                if self._chain is None:  # a chain's own H_m stays
                    self._memo[0][j] = min(hs[j], 1.0)
                self._memo[1][j] = tvs[j]
                j -= 1
                level = self._level(j)
            return self._memo[which][m]
        v = self._memo[which][m] = self._sum(*level, which)
        return v

    def _sum(self, arrays: tuple, rows: Optional[slice], which: int) -> float:
        """H_m (which = 0) or TV_m (1) of a type level (arrays, rows)."""
        if which == 0 and rows is not None:  # one exp serves a pass's every H_m
            if self._terms[0] is not arrays:
                self._terms = arrays, np.exp(arrays[0] + 0.5 * (arrays[1] + arrays[2]))
            return min(float(self._terms[1][rows].sum()), 1.0)
        lc, lp, lq = arrays if rows is None else (x[rows] for x in arrays)
        return (min(float(np.exp(lc + 0.5 * (lp + lq)).sum()), 1.0) if which == 0
                else float(np.abs(np.exp(lc + lp) - np.exp(lc + lq)).sum()))

    def serve(self, p: Measure, q: Measure) -> bool:
        """Serve (p, q) from now on if its reads at levels 0..d, the deepest it
        has read, are theirs bit for bit: both pairs are mixtures of one live
        key that ``_collapsed`` reduces to those rows on every row of 0..d."""
        if self._spreads is None:  # once per engine
            d, t = max([*self._memo[0], *self._memo[1]]), self._level.table
            self._spreads = d, self._level(d) and [
                x.spread(t, slice(0, t.stop[d])) for x in (self.p, self.q)]
        if not self._spreads[1] or not all(
                sorted(x._lw)[-2:][0] + s < 0.0 - 40.0 - math.log(len(x._lw))
                for x, s in zip((self.p, self.q, p, q), self._spreads[1] * 2)):
            return False
        _ENGINES.pop((id(self.p), id(self.q), self.budget), None)
        self.p, self.q, self.depth = p, q, self._spreads[0]
        return True

    def h(self, m: int) -> float:
        """Affinity H_m = sum over Y^m of sqrt(P(x) Q(x)); in [0, 1]."""
        v = self._memo[0].get(m)  # the memo first: the search reads it most
        if v is None and self._chain is not None:
            v = self._memo[0][m] = self._chain(m)
        return self._read(m, 0) if v is None else v

    def tv(self, m: int) -> float:
        """Total variation of the horizon-m restrictions; in [0, 2]."""
        return self._read(m, 1)

    def search(self, thresholds: Sequence[float], m_max: int
               ) -> List[Optional[int]]:
        """For each threshold, the smallest m <= m_max with H_m < threshold
        (strict), else None. The cap check and H_{m_max} are read once; each
        bisection probes as if alone (a computed H_m may not be monotone).

        Off the chain route the search stops at the deepest horizon that the
        type table or the walk affords within the budget, and counts each
        threshold in ``capped_searches`` when that is short of m_max.
        """
        if m_max < 1 or not thresholds:
            return [None] * len(thresholds)
        if self._chain is None and self._level(m_max) is None:
            t, top = self._level.table, m_max  # the walk's cap or the table's reach
            m_max = min(top, max(_max_horizon(self.p.a, self.budget),
                                 0 if t is None else t.reach(top, self.budget)))
            if m_max < top:
                HorizonProfile.capped_searches += len(thresholds)
        h_top = self.h(m_max) if m_max else math.inf  # no horizon afforded
        if max(thresholds) <= h_top:  # no bisection would probe
            return [None] * len(thresholds)
        answers, found = self._answers, []
        for threshold in thresholds:
            m = -1 if answers is None else answers.get((m_max, threshold), -1)
            if m == -1:
                lo, hi = 0, m_max  # invariant: H_lo >= threshold > H_hi
                while hi - lo > 1 and h_top < threshold:
                    mid = (lo + hi) // 2
                    if self.h(mid) < threshold:
                        hi = mid
                    else:
                        lo = mid
                m = hi if h_top < threshold else None
                if answers is not None:
                    answers[m_max, threshold] = m
            found.append(m)
        if answers is None:  # most engines are searched once: the first stores nothing
            self._answers = {}
        return found


#: engines of the pairs met last, oldest first, by ids and budget or live key;
#: an entry holds all that its key names, so no other object can take an id
_ENGINES: Dict[tuple, HorizonProfile] = {}
#: a coherent step reads one pair, the announced one, which its legs mark
#: too; only a scripted forecaster's legs read other pairs
ENGINE_CACHE_SIZE = 8


def pair_profile(p: Measure, q: Measure,
                 budget: int = DEFAULT_BUDGET) -> HorizonProfile:
    """The engine of (p, q), reused while the pair is among the last met.
    (q, p) reads the same engine: H_m and TV_m are symmetric term by term. A
    new pair of collapsed mixtures takes its live key's engine over if it may
    (``serve``); that engine serves the pair looked up last, so read it then."""
    key = (id(p), id(q), budget)
    engine = _ENGINES.get(key) or _ENGINES.get((id(q), id(p), budget))
    if engine is None:
        _check(0, p, q)
        live = key  # or, for two collapsed mixtures, their live key
        if (isinstance(p, FiniteMixture) and isinstance(q, FiniteMixture)
                and 0.0 in p._lw and 0.0 in q._lw):
            live = (*[(tuple(map(id, x.components)), x._lw.index(0.0))
                      for x in (p, q)], budget)
        engine = _ENGINES.pop(live, None)
        if engine is None or not engine.serve(p, q):
            engine = HorizonProfile(p, q, budget)
        _ENGINES[live] = _ENGINES[key] = engine
        while len(_ENGINES) > ENGINE_CACHE_SIZE:
            del _ENGINES[next(iter(_ENGINES))]
    return engine


# -- public operations --------------------------------------------------------

def _check(m: int, p: Measure, *others: Measure) -> None:
    if m < 0:
        raise DomainError("horizon must be >= 0")
    for x in others:
        if x.a != p.a:
            raise DomainError("measures live on different alphabets")


def hellinger_restricted(p: Measure, q: Measure, m: int,
                         budget: int = DEFAULT_BUDGET) -> float:
    """Affinity H_m = sum over Y^m of sqrt(P(x) Q(x)); in [0, 1]."""
    _check(m, p, q)
    return pair_profile(p, q, budget).h(m)


def tv_restricted(p: Measure, q: Measure, m: int,
                  budget: int = DEFAULT_BUDGET) -> float:
    """Total variation of the horizon-m restrictions; in [0, 2]."""
    _check(m, p, q)
    return pair_profile(p, q, budget).tv(m)


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
    chain = _chain((f, p, q), lambda ff, fp, fq: ff * np.sqrt(fq / fp))
    if chain is not None:
        return chain.up_to(m)
    level = _type_levels((f, p, q), budget)(m)
    if level is not None:
        arrays, rows = level
        lc, lf, lp, lq = arrays if rows is None else (x[rows] for x in arrays)
        return float(np.exp(lc + lf + 0.5 * (lq - lp)).sum())
    return _walk_sums((f, p, q), m, budget, [
        lambda lf, lp, lq: math.exp(lf + 0.5 * (lq - lp))])[0][m]
