"""Probability measures on infinite symbol sequences over a finite alphabet.

A measure is represented by its one-step conditional distributions: a rule
mapping any finite history to a strictly positive distribution over the next
symbol. That is enough to price every cylinder set, which is all the betting
protocol ever needs. Cylinder probabilities are carried in log domain so that
long horizons do not underflow.

Families:
  * ``IID``            -- fixed weights, memoryless.
  * ``Markov``         -- order-k chain with initial laws for short histories.
  * ``BetaLearner``    -- Dirichlet/Polya posterior-predictive learner.
  * ``FiniteMixture``  -- Bayesian mixture of component measures.
  * ``Conditioned``    -- generic wrapper pinning a prefix of history.

All measures are immutable after construction. ``child(y)`` is the
conditional after one more symbol, unvalidated; ``Measure`` memoises each
family's step ``_child`` per object and symbol by a weak reference, so all
who step one object by y share a child while any holds it (``IID`` is its own
child; ``Markov`` keeps one per context). ``condition``, defined once in
``Measure``, validates a prefix and folds ``child`` over it. Construction
rejects any parameter that would yield a zero one-step probability
(Cromwell's rule), optionally smoothing user tables with a floor.

Each family gives all strings of one type (``TypeTable``, named by
``type_key``) one probability; ``type_log_probs`` scores whole levels. A
mixture's level is the log-sum-exp of its components' rows, unless its
posterior is concentrated (``_collapsed``): where the others' terms cannot
move a sum that holds 1.0, the live component's rows are the same bits.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, product
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import CromwellViolation, DomainError


def logsumexp(a, axis=None):
    # log(sum(exp(a))) along an axis, shifted by the maximum so that it
    # neither overflows nor loses a row whose entries are all -inf
    a = np.asarray(a, dtype=float)
    hi = np.max(a, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    body = np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=True)) + hi
    if axis is None:
        return float(body.ravel()[0])
    return np.squeeze(body, axis=axis)


Symbol = int
String = tuple  # tuple of symbols; () is the empty string

_RAMP = np.arange(256.0)  # Beta rising-factorial offsets; regrown on demand

#: tolerance for checking that a supplied distribution sums to one
SUM_TOL = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Finite observation space; symbols are 0 .. size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise DomainError(f"alphabet size must be >= 1, got {self.size}")

    def check_string(self, x: Sequence[Symbol]) -> String:
        try:
            x = tuple(map(operator.index, x))
        except TypeError as e:
            raise DomainError(f"symbols must be integers: {e}") from None
        size = self.size
        for s in x:
            if not 0 <= s < size:
                raise DomainError(f"symbol {s} outside alphabet of size {size}")
        return x


@dataclass(frozen=True)
class ChainView:
    """Bounded-memory view of a measure, when one exists.

    The one-step distribution depends only on the last ``order`` symbols of
    the full history (including any conditioning prefix). ``context`` is the
    current tail; during the initial ramp it may be shorter than ``order``.
    """

    order: int
    context: String
    dist: Callable[[String], np.ndarray]


def _tail(s: String, k: int) -> String:
    if k == 0:
        return ()
    return s if len(s) < k else s[-k:]


class TypeTable:
    """The order-k types of the strings of Y^<=m after a context c: the
    counts of a string's cells (context, y), the context being c plus the
    string so far while that is shorter than k (the ramp), else its last k
    symbols. A measure whose ``type_key`` agrees with (k, c) gives a type's
    strings one probability (Whittle 1955; Csiszar 1998), so a sum over Y^m
    collapses onto ``rows[m]``: lexicographic in their cell ``counts`` (a
    column per (context, y) of ``contexts``, y fastest; order 0 lists the
    count vectors of m), with their ``symbols`` counts, level ``depth``, the
    exact number ``mult`` of strings of the type and its ``log_mult``; levels
    0..m are the rows up to ``stop[m]``.
    """

    def __init__(self, a: int, order: int, context: String):
        self.key = a, order, context
        self.contexts = [context + s for j in range(order - len(context))
                         for s in product(range(a), repeat=j)]
        self.contexts += product(range(a), repeat=order)
        index = {c: i for i, c in enumerate(self.contexts)}
        # per context and symbol: (the cell's column, the next context)
        self._step = [[(i * a + y, index[_tail(c + (y,), order)])
                       for y in range(a)] for i, c in enumerate(self.contexts)]
        self._last = {(0,) * (a * len(self.contexts)): (index[context], 1)}
        self.counts = np.array(list(self._last), dtype=np.int32)
        self.symbols = np.zeros((1, a), dtype=np.int32)  # counts by symbol
        self.mult, self.stop, self.rows = [1], [1], [slice(0, 1)]  # by level
        self.depth = np.zeros(1, dtype=np.intp)  # each row's level
        self.log_mult = self._logs(self.counts, self.mult)

    def reach(self, m: int, budget: int) -> int:
        """Grow towards level m within ``budget`` rows (a level adds at most
        a times the rows so far); the deepest level <= m the budget affords."""
        a, new = self.key[0], []
        room = budget // (a + 1)
        while len(self.stop) <= m and self.stop[-1] <= room:
            nxt: dict = {}  # counts -> (context, multiplicity)
            for key, (i, mult) in self._last.items():
                for j, i2 in self._step[i]:
                    key2 = key[:j] + (key[j] + 1,) + key[j + 1:]
                    nxt[key2] = (i2, mult + nxt.get(key2, (0, 0))[1])
            self._last = dict(sorted(nxt.items()))
            new.append(np.array(list(self._last), dtype=np.int32))
            self.mult += [v[1] for v in self._last.values()]
            self.rows.append(slice(self.stop[-1], self.stop[-1] + len(nxt)))
            self.stop.append(self.rows[-1].stop)
        if new:
            new = np.vstack(new)
            self.counts = np.vstack([self.counts, new])
            self.symbols = self.counts.reshape(len(self.counts), -1, a).sum(1)
            self.depth = self.symbols.sum(1)  # a level's strings have m symbols
            self.log_mult = np.concatenate([
                self.log_mult, self._logs(new, self.mult[-len(new):])])
        return min(m, len(self.stop) - 1, bisect_right(self.stop, room))

    def _logs(self, counts: np.ndarray, mult: list) -> np.ndarray:
        if self.key[1]:
            return np.array([math.log(k) for k in mult])
        # order 0 as the count route had it, bit for bit: log m! - sum log c!
        log_fact = np.array([math.log(f) for f in accumulate(
            range(1, len(self.stop)), operator.mul, initial=1)])
        return log_fact[counts.sum(axis=1)] - log_fact[counts].sum(axis=1)


@lru_cache(maxsize=16)
def type_table(a: int, order: int, context: String) -> TypeTable:
    """The shared type table of (a, order, context); sixteen are kept."""
    return TypeTable(a, order, context)


def joint_type(measures: Sequence["Measure"]) -> Optional[Tuple[int, String]]:
    """The highest order after the longest context; None when a measure has
    no type or the contexts do not end alike."""
    joint = 0, ()
    for x in measures:
        key = x.type_key()
        if key != joint:
            if key is None:
                return None
            (k1, c1), (k2, c2) = joint, key
            c = c1 if len(c1) >= len(c2) else c2
            if _tail(c, k1) != c1 or _tail(c, k2) != c2:
                return None
            joint = max(k1, k2), c
    return joint


def _validated_weights(w, floor: Optional[float]) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise DomainError("weights must be a 1-d sequence")
    if floor is not None:
        w = np.maximum(w, floor)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise CromwellViolation(f"weights must be strictly positive, got {w}")
    s = w.sum()
    if abs(s - 1.0) > SUM_TOL:
        raise DomainError(f"weights sum to {s}, expected 1 within {SUM_TOL}")
    w = w / s
    w.flags.writeable = False
    return w


class Measure:
    """Base class: a probability measure given by one-step conditionals."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._memo: dict = {}  # y -> weak child; (table key, rows) -> log probs

    def __getstate__(self) -> dict:  # the memo is a cache of weak references
        return {**self.__dict__, "_memo": {}}

    @property
    def a(self) -> int:
        return self.alphabet.size

    # -- core interface --------------------------------------------------

    def one_step(self, history: String) -> np.ndarray:
        """Distribution of the next symbol given the observed history."""
        raise NotImplementedError

    def cylinder_log_prob(self, x: Sequence[Symbol]) -> float:
        """log P([x]); the empty string has log-probability 0."""
        x = self.alphabet.check_string(x)
        lp = 0.0
        for i, y in enumerate(x):
            lp += math.log(self.one_step(x[:i])[y])
        return lp

    def child(self, y: Symbol) -> "Measure":
        """The conditional measure after one more symbol ``y``, which the
        caller has checked against the alphabet; one object per symbol while
        anything holds it, so a leg steps onto the announced conditional."""
        ref = self._memo.get(y)
        m = ref and ref()
        if m is None:
            m = self._child(y)
            self._memo[y] = weakref.ref(m)
        return m

    def _child(self, y: Symbol) -> "Measure":
        """The family's one-symbol step, which ``child`` memoises."""
        return Conditioned(self, (y,))

    def condition(self, prefix: Sequence[Symbol]) -> "Measure":
        """The conditional measure on the continuation after ``prefix``."""
        m = self
        for y in self.alphabet.check_string(prefix):
            m = m.child(y)
        return m

    def sample_path(self, seed, t: int) -> String:
        """Draw ``t`` symbols; deterministic given the seed."""
        if t < 0:
            raise DomainError("path length must be >= 0")
        rng = np.random.default_rng(seed)
        path, m = [], self
        for _ in range(t):
            p = m.one_step(())
            y = int(rng.choice(self.a, p=p / p.sum()))
            path.append(y)
            m = m.child(y)
        return tuple(path)

    # -- capability hooks (used by the metric fast paths) -----------------

    def chain_view(self) -> Optional[ChainView]:
        """Bounded-memory representation, or None if the family has none."""
        return None

    def type_key(self) -> Optional[Tuple[int, String]]:
        """(k, c) when all strings of one order-k type after context c have
        one probability (see ``TypeTable``), else None: a chain's view."""
        v = self.chain_view()
        return None if v is None else (v.order, v.context)

    def type_log_probs(self, table: TypeTable, rows: slice) -> np.ndarray:
        """log P of a string of each type in ``rows`` (whole levels: one, or
        0..m) of a table whose key agrees with ``type_key``: a chain sums log
        P(y | context) by cell, a level at a time (a product rounds by shape)."""
        key = table.key, rows.start, rows.stop
        out = self._memo.get(key)
        if out is None:
            v = self.chain_view()
            log_theta = np.concatenate([np.log(v.dist(_tail(c, v.order)))
                                        for c in table.contexts])
            lo, hi = table.depth[rows.start], table.depth[rows.stop - 1]
            out = self._memo[key] = np.concatenate([
                table.counts[table.rows[m]] @ log_theta for m in range(lo, hi + 1)])
        return out


class IID(Measure):
    """Independent draws from fixed weights."""

    def __init__(self, weights, alphabet: Optional[Alphabet] = None,
                 floor: Optional[float] = None):
        w = _validated_weights(weights, floor)
        super().__init__(alphabet or Alphabet(w.size))
        if w.size != self.a:
            raise DomainError("weight vector length does not match alphabet")
        self._w = w
        self._logw = np.log(w)

    def one_step(self, history: String) -> np.ndarray:
        return self._w

    def cylinder_log_prob(self, x) -> float:
        x = self.alphabet.check_string(x)
        return float(self._logw[list(x)].sum()) if x else 0.0

    def child(self, y: Symbol) -> "IID":
        return self

    def sample_path(self, seed, t: int) -> String:
        if t < 0:
            raise DomainError("path length must be >= 0")
        rng = np.random.default_rng(seed)
        return tuple(int(y) for y in rng.choice(self.a, size=t, p=self._w))

    def chain_view(self):
        return ChainView(0, (), lambda tail: self._w)

    def type_key(self):
        return 0, ()


def bernoulli(p_one: float) -> IID:
    """Binary i.i.d. measure with P(1) = p_one."""
    return IID([1.0 - p_one, p_one])


class Markov(Measure):
    """Order-k Markov chain.

    ``transition`` has shape (a,)*k + (a,). ``initial`` supplies the laws for
    histories shorter than k: a list where ``initial[j]`` has shape
    (a,)*j + (a,); for order 1 a plain vector is accepted. ``context`` is the
    already-observed tail used by conditioned copies.
    """

    def __init__(self, transition, initial=None, context: String = (),
                 alphabet: Optional[Alphabet] = None, floor: Optional[float] = None):
        tr = np.asarray(transition, dtype=float)
        a = tr.shape[-1]
        super().__init__(alphabet or Alphabet(a))
        if tr.shape != (a,) * tr.ndim:
            raise DomainError(f"transition table has inconsistent shape {tr.shape}")
        self.order = tr.ndim - 1
        self._tr = self._norm_table(tr, floor)

        if initial is None:
            initial = [np.full((a,) * j + (a,), 1.0 / a) for j in range(self.order)]
        elif self.order == 1 and np.asarray(initial).ndim == 1:
            initial = [np.asarray(initial, dtype=float)]
        self._init = [self._norm_table(np.asarray(t, dtype=float), floor)
                      for t in initial]
        if len(self._init) != self.order:
            raise DomainError(f"need {self.order} initial laws, got {len(self._init)}")
        for j, t in enumerate(self._init):
            if t.shape != (a,) * (j + 1):
                raise DomainError(f"initial law {j} has shape {t.shape}")
        self._context = _tail(self.alphabet.check_string(context), self.order)
        self._states = {self._context: self}  # one conditional per context, shared

    def _norm_table(self, t: np.ndarray, floor) -> np.ndarray:
        if floor is not None:
            t = np.maximum(t, floor)
        if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
            raise CromwellViolation("transition table has a nonpositive entry")
        sums = t.sum(axis=-1, keepdims=True)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            raise DomainError("a transition row does not sum to 1")
        t = t / sums
        t.flags.writeable = False
        return t

    def dist_from_tail(self, tail: String) -> np.ndarray:
        if len(tail) == self.order:
            return self._tr[tail] if tail else self._tr
        return self._init[len(tail)][tail] if tail else self._init[0]

    def one_step(self, history: String) -> np.ndarray:
        if not history:
            return self.dist_from_tail(self._context)
        return self.dist_from_tail(_tail(self._context + tuple(history), self.order))

    def child(self, y: Symbol) -> "Markov":
        ctx = _tail(self._context + (y,), self.order)
        m = self._states.get(ctx)
        if m is None:
            m = self._states[ctx] = Markov.__new__(Markov)
            m.__dict__.update(self.__dict__, _context=ctx)
        return m

    def chain_view(self):
        return ChainView(self.order, self._context, self.dist_from_tail)

    def type_key(self):
        return self.order, self._context


class BetaLearner(Measure):
    """Dirichlet (Polya urn) sequential learner.

    One-step law after history h: (alpha_y + count_y(h)) / (sum alpha + |h|).
    A child adds its symbol's count to the pseudo-counts.
    """

    def __init__(self, pseudo_counts, alphabet: Optional[Alphabet] = None):
        a = np.asarray(pseudo_counts, dtype=float)
        if a.ndim != 1 or np.any(a <= 0.0) or not np.all(np.isfinite(a)):
            raise CromwellViolation("pseudo-counts must be strictly positive")
        super().__init__(alphabet or Alphabet(a.size))
        if a.size != self.a:
            raise DomainError("pseudo-count length does not match alphabet")
        a.flags.writeable = False
        self._alpha = a
        self._alpha0 = float(a.sum())
        self._rising = None  # type_log_probs' table, built on first use

    def one_step(self, history: String) -> np.ndarray:
        history = tuple(history)
        c = np.bincount(history, minlength=self.a) if history else 0
        return (self._alpha + c) / (self._alpha0 + len(history))

    def cylinder_log_prob(self, x) -> float:
        x = self.alphabet.check_string(x)
        c = np.zeros(self.a)
        lp = 0.0
        for n, y in enumerate(x):
            lp += math.log((self._alpha[y] + c[y]) / (self._alpha0 + n))
            c[y] += 1
        return lp

    def _child(self, y: Symbol) -> "BetaLearner":
        # bypass __init__ checks: posterior counts of a valid learner stay valid
        b = BetaLearner.__new__(BetaLearner)
        Measure.__init__(b, self.alphabet)
        a = self._alpha.copy()
        a[y] += 1.0
        a.flags.writeable = False
        b._alpha = a
        b._alpha0 = float(a.sum())
        b._rising = None
        return b

    def type_key(self):
        return 0, ()

    def type_log_probs(self, table: TypeTable, rows: slice) -> np.ndarray:
        # running sums of log(alpha_y + i), last row log(alpha0 + i), read at
        # each row's level (log-gamma differences near n lose ~eps * n log n)
        global _RAMP
        m = int(table.depth[rows.stop - 1])
        cum = self._rising
        if cum is None or cum.shape[1] <= m:
            if _RAMP.size < m:
                _RAMP = np.arange(2.0 * m)
            cum = self._rising = np.zeros((self.a + 1, m + 1))
            ends = np.empty((self.a + 1, 1))
            ends[:-1, 0], ends[-1, 0] = self._alpha, self._alpha0
            np.cumsum(np.log(ends + _RAMP[:m]), axis=1, out=cum[:, 1:])
        c = table.symbols[rows]
        return reduce(np.add, [cum[y].take(c[:, y]) for y in range(self.a)]
                      ) - cum[-1].take(table.depth[rows])


class FiniteMixture(Measure):
    """Bayesian mixture of component measures with positive weights.

    Weights are carried in log domain internally so that conditioning on a
    long history (which can drive a posterior weight far below the smallest
    positive double) never produces a literal zero.
    """

    def __init__(self, weights, components: Sequence[Measure]):
        comps = list(components)
        w = _validated_weights(weights, None)
        if not comps:
            raise DomainError("mixture needs at least one component")
        super().__init__(comps[0].alphabet)
        for c in comps:
            if c.alphabet.size != self.a:
                raise DomainError("mixture components disagree on the alphabet")
        if w.size != len(comps):
            raise DomainError("one weight per component required")
        self.components = comps
        self._lw = np.log(w).tolist()  # log weights, as floats
        self._next = None  # _laws(), on first use

    @property
    def _logw(self) -> np.ndarray:
        return np.array(self._lw)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self._logw)

    def _laws(self) -> Tuple[list, np.ndarray]:
        """Each component's law of the next symbol, and the mixture's."""
        if self._next is None:
            laws = [c.one_step(()) for c in self.components]
            law = reduce(np.add, [w * d for w, d in zip(
                map(math.exp, self._lw), laws) if w])  # +0.0 adds nothing
            law.flags.writeable = False
            self._next = laws, law
        return self._next

    def one_step(self, history: String) -> np.ndarray:
        history = tuple(history)
        if not history:
            return self._laws()[1]
        lw = self._logw + np.array([c.cylinder_log_prob(history)
                                    for c in self.components])
        dists = np.stack([c.one_step(history) for c in self.components])
        return np.exp(lw - logsumexp(lw)) @ dists

    def cylinder_log_prob(self, x) -> float:
        x = self.alphabet.check_string(x)
        return float(logsumexp(self._logw + np.array(
            [c.cylinder_log_prob(x) for c in self.components])))

    def _child(self, y: Symbol) -> "FiniteMixture":
        # Bayes' rule in floats: add each component's log law of y, then
        # renormalise by a max shift, so no weight rounds to a literal zero
        lw = [v + math.log(d[y]) for v, d in zip(self._lw, self._laws()[0])]
        hi = max(lw)
        z = hi + math.log(math.fsum(math.exp(v - hi) for v in lw))
        m = FiniteMixture.__new__(FiniteMixture)
        m.alphabet, m._next, m._memo = self.alphabet, None, {}
        m.components = [c.child(y) for c in self.components]
        m._lw = [v - z for v in lw]
        return m

    def type_key(self):
        return joint_type(self.components)

    def type_log_probs(self, table: TypeTable, rows: slice) -> np.ndarray:
        # logsumexp of the rows r_k = L_k + w_k, added in order as
        # np.sum(axis=0) of a stack; a concentrated posterior (_collapsed)
        # reads its live component's rows alone, with the same bits
        lps = [c.type_log_probs(table, rows) for c in self.components]
        i = _collapsed(lps, self._lw)
        if i is not None:
            return lps[i] + self._lw[i]
        lps = [r + v for r, v in zip(lps, self._lw)]
        hi = reduce(np.maximum, lps)
        hi = np.where(np.isfinite(hi), hi, 0.0)
        return np.log(reduce(np.add, [np.exp(r - hi) for r in lps])) + hi


def _collapsed(lps: list, lw: list) -> Optional[int]:
    """The component i of largest log weight w_i when each other term
    exp(r_k - r_i) of the logsumexp of r_k = L_k + w_k is below e^-(40 + ln K)
    on every row, else None. Then r_i is each row's maximum and the other
    terms sum below e^-40 < 2^-53 / 26, so a sum that holds exp(0) = 1.0
    rounds to 1.0, its log to 0.0 and the logsumexp to r_i, bit for bit.
    The gate w_k - w_i + max(L_k - L_i) errs from a computed r_k - r_i by a
    few ulps of |L| + |w|, inside the margin ln 26 while those are below
    1e15. As max(L_k - L_i) >= 0 (both laws sum to 1 over a level of the same
    multiplicities), the weights' gap is checked first."""
    *rest, top = sorted(lw)
    cut = top - 40.0 - math.log(len(lw))
    if rest and rest[-1] >= cut:
        return None
    i = lw.index(top)
    li = lps[i]
    for k, (r, v) in enumerate(zip(lps, lw)):
        if k != i and not v + float((r - li).max()) < cut:
            return None
    return i


class Conditioned(Measure):
    """Generic conditional measure: the base with a pinned history prefix."""

    def __init__(self, base: Measure, prefix: Sequence[Symbol]):
        super().__init__(base.alphabet)
        prefix = base.alphabet.check_string(prefix)
        if isinstance(base, Conditioned):
            prefix = base.prefix + prefix
            base = base.base
        self.base = base
        self.prefix = prefix

    def one_step(self, history: String) -> np.ndarray:
        return self.base.one_step(self.prefix + tuple(history))

    def cylinder_log_prob(self, x) -> float:
        x = self.alphabet.check_string(x)
        return (self.base.cylinder_log_prob(self.prefix + x)
                - self.base.cylinder_log_prob(self.prefix))

    def _child(self, y: Symbol) -> "Conditioned":
        c = Conditioned.__new__(Conditioned)
        Measure.__init__(c, self.alphabet)
        c.base, c.prefix = self.base, self.prefix + (y,)
        return c

    def chain_view(self):
        v = self.base.chain_view()
        if v is None:
            return None
        return ChainView(v.order, _tail(v.context + self.prefix, v.order), v.dist)
