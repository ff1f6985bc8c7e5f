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
transforms the mixture's capital and places no order of its own.

The protocol engine holds the only book of hedge legs. A component's order
carries the legs it built, at its mixture weight rather than as rescaled
copies; the engine advances them, and each component derives its capital and
its cycle records from those same legs. The Sceptic's ``settle`` runs after
the engine's, and only closes expired cycles and updates lim-wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError
from .measures import Measure
from .metrics import (DEFAULT_BUDGET, hellinger_restricted, pair_profile,
                      tree_walk)
from .protocol import BetOrder, ForecastPair, HedgeLeg


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
    capital sits in the open pair of hedge legs and no new bets are placed.
    The legs are the very objects the protocol engine books and advances, so
    the component keeps no account of its own while holding: it marks its
    capital from the legs, and when they expire their scales are its capitals.
    """

    def __init__(self, epsilon: float, budget: int = DEFAULT_BUDGET):
        if not 0.0 < epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        self.epsilon = epsilon
        self.budget = budget
        self.capital_i = 1.0
        self.capital_ii = 1.0
        #: the open cycle's legs against forecaster I and II, or None
        self.legs: Optional[Tuple[HedgeLeg, HedgeLeg]] = None
        self._cycle = (0, 1.0)  # horizon and H_m of the open cycle
        self.bet_steps: List[int] = []
        self.cycles: List[CycleRecord] = []

    @property
    def holding(self) -> bool:
        return self.legs is not None

    def open_cycle(self, forecasts: ForecastPair, m: int, h: float, step: int):
        """Stake the whole capital on legs of horizon m (H_m = h) at step."""
        self.legs = (HedgeLeg(self.capital_i / h, forecasts.p_i,
                              forecasts.p_ii, m),
                     HedgeLeg(self.capital_ii / h, forecasts.p_ii,
                              forecasts.p_i, m))
        self._cycle = (m, h)
        self.bet_steps.append(step)

    def settle(self) -> None:
        """Close the open cycle once the engine has run its legs to expiry."""
        if self.legs is None or self.legs[0].horizon > 0:
            return
        pay_i, pay_ii = self.legs[0].scale, self.legs[1].scale
        self.cycles.append(CycleRecord(
            self.bet_steps[-1], *self._cycle,
            pay_i / self.capital_i, pay_ii / self.capital_ii))
        self.capital_i, self.capital_ii = pay_i, pay_ii
        self.legs = None

    def capital(self, side: str) -> float:
        """Component-local capital: the open leg's mark while holding."""
        if self.legs is None:
            return self.capital_i if side == "I" else self.capital_ii
        return self.legs[0 if side == "I" else 1].value(self.budget)


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
        self.components = [EpsilonComponent(2.0 ** -(j + 1), budget)
                           for j in range(j_max)]
        self.reserve = 1.0 - sum(self.weights)
        self.last_bets_placed = False
        self.last_active = 0
        self._step = 0

    def step_orders(self, forecasts: ForecastPair) -> Tuple[BetOrder, BetOrder]:
        self._step += 1
        engine = pair_profile(forecasts.p_i, forecasts.p_ii, self.budget)
        idle = [(w, c) for w, c in zip(self.weights, self.components)
                if not c.holding]
        found = engine.search([1.0 - c.epsilon for _, c in idle], self.m_max)
        legs_i, legs_ii = [], []
        for (w, comp), m in zip(idle, found):
            if m is not None:
                comp.open_cycle(forecasts, m, engine.h(m), self._step)
                legs_i.append((w, comp.legs[0]))
                legs_ii.append((w, comp.legs[1]))
        self.last_bets_placed = bool(legs_i)
        self.last_active = len(self.components) - len(idle) + len(legs_i)
        return BetOrder(legs=legs_i), BetOrder(legs=legs_ii)

    def settle(self, y: int) -> None:
        """Close expired cycles; the engine has already advanced the legs."""
        for comp in self.components:
            comp.settle()

    def capital(self, side: str) -> float:
        return math.fsum(w * c.capital(side) for w, c in
                         zip(self.weights, self.components)) + self.reserve


@dataclass
class LimWrapConfig:
    """Doubling-threshold accounts for the unbounded-to-divergent transform."""

    num_accounts: int = 30

    def __post_init__(self):
        if self.num_accounts < 1:
            raise DomainError("need at least one account")


class LimWrap:
    """Streaming wrapper: account k mirrors the base capital at weight 2^-k
    until the base first reaches 2^k, then holds its value as cash forever.
    Accounts freeze in order of k, so ``frozen`` holds accounts 1..len."""

    def __init__(self, cfg: LimWrapConfig = LimWrapConfig()):
        self.weights = [2.0 ** -k for k in range(1, cfg.num_accounts + 1)]
        self.targets = [2.0 ** k for k in range(1, cfg.num_accounts + 1)]
        self.frozen: List[float] = []
        self._head = 2.0 ** -cfg.num_accounts  # the residual, plus each frozen value

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
                      cfg: LimWrapConfig = LimWrapConfig()) -> List[float]:
    """Apply the lim-wrap transform to a scripted base capital path."""
    wrapper = LimWrap(cfg)
    return [wrapper.update(k) for k in path]


class LimWrappedSceptic:
    """Lim-wrap as a transform of the mixture's capital K: account k holds
    2^-k of the mixture up to its stop time tau_k, so by linearity of the
    protocol it is worth 2^-k K(min(n, tau_k)), which ``LimWrap.update``
    computes. The orders, and so the engine's book, are the mixture's own."""

    def __init__(self, base: MixtureSceptic, cfg: LimWrapConfig = LimWrapConfig()):
        self.base = base
        self.wrappers = {"I": LimWrap(cfg), "II": LimWrap(cfg)}
        self._capital = {"I": 1.0, "II": 1.0}

    def step_orders(self, forecasts: ForecastPair) -> Tuple[BetOrder, BetOrder]:
        return self.base.step_orders(forecasts)

    def settle(self, y: int) -> None:
        self.base.settle(y)
        for side, wrapper in self.wrappers.items():
            self._capital[side] = wrapper.update(self.base.capital(side))

    def capital(self, side: str) -> float:
        return self._capital[side]

    def log2_capital(self, side: str) -> float:
        return math.log2(max(self._capital[side], 1e-300))
