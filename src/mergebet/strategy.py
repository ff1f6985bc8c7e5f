"""Sceptic strategies: fixed-epsilon gambling, the 2^-j mixture, lim-wrap.

A fixed-epsilon component watches the announced pair; whenever a horizon m
certifies that the affinity of the two announcements drops strictly below
1 - epsilon, it stakes its whole component capital on a pair of square-root
likelihood-ratio hedges (one against each forecaster) expiring in m steps,
then stays quiet until expiry. Whatever block is realized, the geometric
mean of the two hedge multipliers is exactly 1/H_m >= 1/(1-epsilon), so each
completed cycle grows the geometric-mean capital outcome-independently.

The full Sceptic is the 2^-j-weighted mixture of components for
epsilon = 2^-j, j = 1..J, truncated at J with the residual weight held as
cash; each step one search of the announced pair's engine answers every idle
component's threshold 1 - epsilon. ``lim_wrap`` converts an unbounded
capital path into a divergent one by splitting capital across
doubling-threshold accounts that freeze once they hit their target; it
transforms the book's capital and places no order of its own.

The protocol engine holds the only book of hedge legs, and its ``capital``
is the only valuation of the Sceptic's capital. The components that open on
one step at one horizon m form a cohort: their positions differ only in the
scale w_j K_j, so the order carries one pair of unit legs (scale 1/H_m) per
cohort, at the members' sum of w_j K_j. At expiry each member multiplies its
capitals by the legs' scales, its cycle's multipliers. The Sceptic's
``settle(book)`` runs after the engine's, and only closes the cohorts that
expired and feeds the book's capital to lim-wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError
from .measures import Measure
from .metrics import (DEFAULT_BUDGET, hellinger_restricted, pair_profile,
                      tree_walk)
from .protocol import BetOrder, ForecastPair, HedgeLeg, ProtocolState, total


def build_hedge(p_own: Measure, p_other: Measure, m: int, k: float,
                budget: int = DEFAULT_BUDGET) -> BetOrder:
    """Explicit form of the hedge: stakes on every string of length m.

    Costs exactly k at the own forecast's prices and pays
    k * sqrt(other(x*)/own(x*))/H_m on the realized block x*. Its symbolic
    form, which the Sceptic books, is ``HedgeLeg(k / H_m, own, other, m)``.
    """
    if k < 0:
        raise DomainError("capital must be nonnegative")
    h = hellinger_restricted(p_own, p_other, m, budget=budget)
    return BetOrder({x: k * math.exp(0.5 * (lq - lp)) / h for x, (lp, lq)
                     in tree_walk((p_own, p_other), m, budget) if len(x) == m})


@dataclass
class CycleRecord:
    """One completed hedge cycle of a component."""

    start_step: int
    horizon: int
    h_m: float
    mult_i: float
    mult_ii: float


class EpsilonComponent:
    """State machine of the fixed-epsilon gambling routine.

    Component-local capitals start at 1 per side; while holding, the entire
    capital sits in its cohort's pair of unit hedge legs and no new bets are
    placed. The legs are the very objects the protocol engine books and
    advances: when they expire, their scales multiply its capitals.
    """

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        self.epsilon = epsilon
        self.capital_i = 1.0
        self.capital_ii = 1.0
        #: the open cycle's cohort legs against forecaster I and II, or None
        self.legs: Optional[Tuple[HedgeLeg, HedgeLeg]] = None
        self._cycle = (0, 1.0)  # horizon and H_m of the open cycle
        self.bet_steps: List[int] = []
        self.cycles: List[CycleRecord] = []

    @property
    def holding(self) -> bool:
        return self.legs is not None

    def open_cycle(self, legs: Tuple[HedgeLeg, HedgeLeg], h: float, step: int):
        """Stake the whole capital on unit legs of H_m = h at step."""
        self.legs, self._cycle = legs, (legs[0].horizon, h)
        self.bet_steps.append(step)

    def settle(self) -> None:
        """Close the open cycle, whose legs the engine has run to expiry."""
        mult_i, mult_ii = self.legs[0].scale, self.legs[1].scale
        self.cycles.append(CycleRecord(self.bet_steps[-1], *self._cycle,
                                       mult_i, mult_ii))
        self.capital_i *= mult_i
        self.capital_ii *= mult_ii
        self.legs = None


class MixtureSceptic:
    """2^-j-weighted mixture of epsilon components plus a cash reserve."""

    def __init__(self, j_max: int = 20, m_max: int = 64,
                 budget: int = DEFAULT_BUDGET):
        if j_max < 1:
            raise DomainError("need at least one component")
        if m_max < 1:
            raise DomainError("m_max must be >= 1")
        self.m_max = m_max
        self.budget = budget
        self.weights = [2.0 ** -(j + 1) for j in range(j_max)]
        self.components = [EpsilonComponent(2.0 ** -(j + 1))
                           for j in range(j_max)]
        self.last_bets_placed = False
        self.last_active = 0
        self._step = 0
        #: settlement step -> the members of the cohorts that expire at it
        self._due: Dict[int, List[EpsilonComponent]] = {}
        self._idle = None  # _idle_set(): kept until a cycle opens or settles

    def _idle_set(self) -> Tuple[list, List[float]]:  # idle (w, c), 1 - eps
        idle = [(w, c) for w, c in zip(self.weights, self.components)
                if not c.holding]
        return idle, [1.0 - c.epsilon for _, c in idle]

    def step_orders(self, forecasts: ForecastPair) -> Tuple[BetOrder, BetOrder]:
        self._step += 1
        engine = pair_profile(forecasts.p_i, forecasts.p_ii, self.budget)
        idle, thresholds = self._idle = self._idle or self._idle_set()
        found = engine.search(thresholds, self.m_max)
        self.last_active = len(self.components) - (quiet := found.count(None))
        self.last_bets_placed = quiet < len(found)
        if not self.last_bets_placed:  # no threshold certified: a quiet step
            return BetOrder(), BetOrder()
        self._idle = None
        cohorts: Dict[int, list] = {}
        for wc, m in zip(idle, found):
            if m is not None:
                cohorts.setdefault(m, []).append(wc)
        legs_i, legs_ii = [], []
        for m, cohort in cohorts.items():
            h = engine.h(m)
            legs = (HedgeLeg(1.0 / h, forecasts.p_i, forecasts.p_ii, m),
                    HedgeLeg(1.0 / h, forecasts.p_ii, forecasts.p_i, m))
            for _, comp in cohort:
                comp.open_cycle(legs, h, self._step)
            legs_i.append((total([w * c.capital_i for w, c in cohort]), legs[0]))
            legs_ii.append((total([w * c.capital_ii for w, c in cohort]), legs[1]))
            self._due.setdefault(self._step + m - 1, []).extend(c for _, c in cohort)
        return BetOrder(legs=legs_i), BetOrder(legs=legs_ii)

    def settle(self, book: ProtocolState) -> None:
        """Close the cohorts whose legs the engine has run to expiry."""
        for comp in self._due.pop(self._step, ()):
            comp.settle()
            self._idle = None


class LimWrap:
    """Streaming wrapper: account k mirrors the base capital at weight 2^-k
    until the base first reaches 2^k, then holds its value as cash forever.
    Accounts freeze in order of k, so ``frozen`` holds accounts 1..len."""

    def __init__(self, num_accounts: int = 30):
        if num_accounts < 1:
            raise DomainError("need at least one account")
        self.weights = [2.0 ** -k for k in range(1, num_accounts + 1)]
        self.targets = [2.0 ** k for k in range(1, num_accounts + 1)]
        self.frozen: List[float] = []
        self._head = 2.0 ** -num_accounts  # the residual, plus each frozen value

    def update(self, base_capital: float) -> float:
        k = len(self.frozen)
        while k < len(self.targets) and base_capital >= self.targets[k]:
            self.frozen.append(self.weights[k] * base_capital)
            self._head += self.frozen[-1]
            k += 1
        total = self._head
        for w in self.weights[k:]:
            total += w * base_capital
        return total


def wrap_capital_path(path: Sequence[float],
                      num_accounts: int = 30) -> List[float]:
    """Apply the lim-wrap transform to a scripted base capital path."""
    wrapper = LimWrap(num_accounts)
    return [wrapper.update(k) for k in path]


class LimWrappedSceptic:
    """Lim-wrap as a transform of the book's capital K: account k holds 2^-k
    of the mixture up to its stop time tau_k, so by linearity of the protocol
    it is worth 2^-k K(min(n, tau_k)), which ``LimWrap.update`` computes. The
    orders, and so the engine's book, are the mixture's own."""

    def __init__(self, base: MixtureSceptic, num_accounts: int = 30):
        self.base = base
        self.wrappers = {"I": LimWrap(num_accounts), "II": LimWrap(num_accounts)}
        self._capital = {"I": 1.0, "II": 1.0}

    def step_orders(self, forecasts: ForecastPair) -> Tuple[BetOrder, BetOrder]:
        return self.base.step_orders(forecasts)

    def settle(self, book: ProtocolState) -> None:
        self.base.settle(book)
        for side, wrapper in self.wrappers.items():
            self._capital[side] = wrapper.update(book.capital(side))

    def capital(self, side: str) -> float:
        return self._capital[side]
