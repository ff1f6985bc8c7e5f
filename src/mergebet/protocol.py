"""The betting protocol: futures-contract orders, settlement, capitals.

Each step the two Forecasters announce measures over the whole future, the
Sceptic places one order per side, Reality reveals a symbol, and the books
are settled. Accounting is cash plus mark-to-market: buying at the quoted
price leaves capital unchanged, a contract on a single symbol pays 1 when it
matches, contracts inconsistent with the observation die worthless, and
longer contracts are re-based to their tails and re-marked at the next
forecast's prices. This is equivalent to the incremental capital-update
reading in which length-1 contracts settle once and longer contracts are
charged once and re-marked thereafter (the unique non-double-counting
reading); the brute-force cross-check lives in the harness oracles.

Orders may contain explicit stakes on finite strings and/or structured hedge
legs. A hedge leg stakes scale * sqrt(Q(x)/P(x)) on every x in Y^m, which
cannot be enumerated for large m; it is carried symbolically and marked as
scale * H_r(P', Q') where P', Q' are the leg's measures conditioned on the
symbols observed so far. Under a coherent forecaster P', Q' are the announced
measures themselves (``child`` is memoised), so this is the exact mark at the
announced forecast and reads the announced pair's engine.

The engine is the only book of hedge legs. An order carries each leg next to
a coefficient (the component's mixture weight), and the engine books that
very object: ``settle_step`` is the one place a leg advances, and a strategy
that built the leg reads its state from it. A mark reads, and a settlement
steps, each distinct pair (own, other) of its legs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, PhaseError
from .measures import Alphabet, Measure, String
from .metrics import DEFAULT_BUDGET, hellinger_restricted, pair_profile

SIDES = ("I", "II")


@dataclass
class ForecastPair:
    """The step-n announcements, each a measure over the continuation."""

    p_i: Measure
    p_ii: Measure

    def side(self, s: str) -> Measure:
        if s == "I":
            return self.p_i
        if s == "II":
            return self.p_ii
        raise DomainError(f"unknown side {s!r}")


@dataclass
class HedgeLeg:
    """Symbolic stake of scale * sqrt(other(x)/own(x)) on every x in Y^horizon.

    Mutable: the engine that books the leg advances it one symbol at a time,
    onto the measures that coherent forecasters announce for the next step.
    """

    scale: float
    own: Measure
    other: Measure
    horizon: int

    def value(self, budget: int = DEFAULT_BUDGET) -> float:
        return self.scale * hellinger_restricted(self.own, self.other,
                                                 self.horizon, budget=budget)

    def advance(self, y: int, step: Optional[tuple] = None) -> Optional[float]:
        """Observe one symbol, already checked against the alphabet; returns
        the cash payoff if the leg expires. Legs of one pair share ``step``."""
        ratio, self.own, self.other = step or leg_step(self.own, self.other, y)
        self.scale *= ratio
        self.horizon -= 1
        return self.scale if self.horizon == 0 else None


def leg_step(own: Measure, other: Measure, y: int
             ) -> Tuple[float, Measure, Measure]:
    """sqrt(other(y)/own(y)) and the children of own and other at y."""
    return (math.sqrt(other.one_step(())[y] / own.one_step(())[y]),
            own.child(y), other.child(y))


#: a hedge leg held at a coefficient: the position is coef * leg
Position = Tuple[float, HedgeLeg]


@dataclass
class BetOrder:
    """Sceptic's move: finitely many stakes on future strings.

    ``stakes`` maps nonempty future-relative strings to real stakes; ``legs``
    are symbolic hedge components as (coefficient, leg) pairs. The engine
    accepts signed explicit stakes; the strategies in this repo only ever use
    nonnegative ones.
    """

    stakes: Dict[String, float] = field(default_factory=dict)
    legs: List[Position] = field(default_factory=list)

    def __post_init__(self):
        for x in self.stakes:
            if len(x) == 0:
                raise DomainError("stakes must be on nonempty strings")

    @staticmethod
    def zero() -> "BetOrder":
        return BetOrder()

    def is_zero(self) -> bool:
        return not self.legs and all(v == 0.0 for v in self.stakes.values())


def order_cost(order: BetOrder, forecast: Measure,
               budget: int = DEFAULT_BUDGET) -> float:
    """Purchase cost of the order at the forecast's quoted prices."""
    cost = math.fsum(v * math.exp(forecast.cylinder_log_prob(x))
                     for x, v in order.stakes.items())
    engines, marks = {}, []
    for k, leg in order.legs:
        if leg.horizon < 0:
            raise DomainError("horizon must be >= 0")
        pair = leg.own, leg.other
        engine = engines.get(pair) or engines.setdefault(
            pair, pair_profile(*pair, budget))
        marks.append(k * (leg.scale * engine.h(leg.horizon)))
    return cost + math.fsum(marks)


@dataclass
class Portfolio:
    """One side's book: cash plus open contracts (explicit and symbolic)."""

    cash: float = 1.0
    contracts: Dict[String, float] = field(default_factory=dict)
    legs: List[Position] = field(default_factory=list)


class ProtocolState:
    """Sequential protocol run: step counter, history, per-side books.

    Phase order within a step is enforced: forecasts are announced (at
    construction or by the previous settlement), each side's order may be
    placed at most once, then ``settle_step`` consumes the observation
    together with the next announcements.
    """

    def __init__(self, alphabet: Alphabet, forecasts: ForecastPair,
                 budget: int = DEFAULT_BUDGET):
        self.alphabet = alphabet
        self.n = 1
        self._history: List[int] = []
        self.budget = budget
        self.forecasts = forecasts
        self.portfolios = {s: Portfolio() for s in SIDES}
        self._placed = {s: False for s in SIDES}

    # -- moves -------------------------------------------------------------

    def place_order(self, side: str, order: BetOrder) -> "ProtocolState":
        if side not in SIDES:
            raise DomainError(f"unknown side {side!r}")
        if self._placed[side]:
            raise PhaseError(f"side {side} already placed an order at step {self.n}")
        self._placed[side] = True
        if order.is_zero():
            return self
        pf = self.portfolios[side]
        pf.cash -= order_cost(order, self.forecasts.side(side), self.budget)
        for x, v in order.stakes.items():
            self.alphabet.check_string(x)
            pf.contracts[x] = pf.contracts.get(x, 0.0) + v
        pf.legs.extend(order.legs)
        return self

    def settle_step(self, y: int, next_forecasts: ForecastPair) -> "ProtocolState":
        (y,) = self.alphabet.check_string((y,))  # before either book moves
        steps: Dict[tuple, tuple] = {}  # (own, other) -> its leg_step at y
        for side in SIDES:
            pf = self.portfolios[side]
            new: Dict[String, float] = {}
            for x, pos in pf.contracts.items():
                if x[0] != y:
                    continue  # inconsistent prefix: dies at value 0
                if len(x) == 1:
                    pf.cash += pos  # matured single-symbol contract pays 1
                else:
                    tail = x[1:]
                    new[tail] = new.get(tail, 0.0) + pos
            pf.contracts = new
            kept = []
            for k, leg in pf.legs:
                pair = leg.own, leg.other
                payoff = leg.advance(y, steps.get(pair) or steps.setdefault(
                    pair, leg_step(*pair, y)))
                if payoff is None:
                    kept.append((k, leg))
                else:
                    pf.cash += k * payoff
            pf.legs = kept
        self._history.append(y)
        self.n += 1
        self.forecasts = next_forecasts
        self._placed = {s: False for s in SIDES}
        return self

    # -- observers -----------------------------------------------------------

    @property
    def history(self) -> String:
        return tuple(self._history)

    def capital(self, side: str) -> float:
        if side not in SIDES:
            raise DomainError(f"unknown side {side!r}")
        pf = self.portfolios[side]
        return pf.cash + order_cost(BetOrder(pf.contracts, pf.legs),
                                    self.forecasts.side(side), self.budget)

    def log2_capital(self, side: str) -> float:
        return math.log2(max(self.capital(side), 1e-300))
