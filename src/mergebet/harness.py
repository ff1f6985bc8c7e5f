"""Experiment configuration, execution, traces, and brute-force oracles.

A config is parsed, and checked once, straight into its players; a game
starts at n = 1, where each player starts afresh, so a parsed config replays.
Measures are immutable, so ``measure_from_spec`` builds each spec once: equal
specs (a shared chain, every seed of a sweep) share one object and its memos.

The oracles deliberately recompute everything the slow way (full-path
enumeration, literal incremental capital updates, explicit sums over events)
so that the engine and metric fast paths can be checked against code that
shares none of their machinery.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, ConfigError, DomainError
from .measures import (BetaLearner, FiniteMixture, IID, Markov, Measure,
                       String)
from .metrics import (DEEPEST, DEFAULT_BUDGET, HorizonProfile,
                      hellinger_restricted, tv_restricted)
from .protocol import ForecastPair, ProtocolState
from .scenarios import (CoherentForecaster, SampledReality, ScriptedForecaster,
                        ScriptedReality, SwitchingReality, catalog)
from .strategy import LimWrappedSceptic, MixtureSceptic

TRACE_HEADER = "n,y,h_m,tv_m,log2_k1,log2_k2,log2_geomean,components_active,bet_placed"


# -- config parsing ------------------------------------------------------------

def _integer(v, where: str, lo: int) -> int:
    """A config integer >= lo; a float or a string is refused, not truncated."""
    if isinstance(v, bool) or not isinstance(v, int) or v < lo:
        raise ConfigError(f"{where}: need an integer >= {lo}, got {v!r}")
    return v


def _symbols(s, alphabet_size: int, where: str) -> list:
    """A config's list (or tuple) of symbols, each an integer of the alphabet."""
    if not isinstance(s, (list, tuple)):
        raise ConfigError(f"{where}: need a list of symbols")
    for v in s:
        if isinstance(v, bool) or not isinstance(v, int) \
                or not 0 <= v < alphabet_size:
            raise ConfigError(f"{where}: invalid symbol {v!r}")
    return s


def _fields(d: dict, where: str, *names: str) -> dict:
    """``d``, once each of its keys is one of ``names``: a key that its level
    of the config does not read is refused, not silently dropped."""
    for key in d:
        if key not in names:
            raise ConfigError(f"{where}.{key}".lstrip(".") + ": unknown field")
    return d


#: measures built from specs, by the canonical JSON of (spec, alphabet size)
_MEASURES: Dict[str, Measure] = {}


def measure_from_spec(spec: dict, alphabet_size: int, where: str = "measure"
                      ) -> Measure:
    """The measure of a JSON-schema dict: one object per (spec, alphabet size),
    64 kept; a spec that raises, or that JSON cannot encode, is not kept."""
    try:
        key = json.dumps([spec, alphabet_size], sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        return _build_measure(spec, alphabet_size, where)
    if key not in _MEASURES:
        if len(_MEASURES) >= 64:
            _MEASURES.clear()
        _MEASURES[key] = _build_measure(spec, alphabet_size, where)
    return _MEASURES[key]


def _build_measure(spec: dict, alphabet_size: int, where: str) -> Measure:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"{where}: expected an object with a 'family' field")
    fam = spec["family"]
    try:
        if fam == "iid":
            _fields(spec, where, "family", "weights", "floor")
            m = IID(spec["weights"], floor=spec.get("floor"))
        elif fam == "markov":
            _fields(spec, where, "family", "transition", "initial", "floor")
            m = Markov(spec["transition"], initial=spec.get("initial"),
                       floor=spec.get("floor"))
        elif fam == "beta_learner":
            _fields(spec, where, "family", "pseudo_counts")
            m = BetaLearner(spec["pseudo_counts"])
        elif fam == "mixture":
            _fields(spec, where, "family", "weights", "components")
            comps = [measure_from_spec(c, alphabet_size,
                                       f"{where}.components[{i}]")
                     for i, c in enumerate(spec.get("components", []))]
            m = FiniteMixture(spec["weights"], comps)
        elif fam == "conditioned":
            _fields(spec, where, "family", "base", "prefix")
            base = measure_from_spec(spec["base"], alphabet_size, f"{where}.base")
            m = base.condition(_symbols(spec["prefix"], alphabet_size,
                                        f"{where}.prefix"))
        else:
            raise ConfigError(f"{where}: unknown measure family {fam!r}")
    except KeyError as e:
        raise ConfigError(f"{where}: missing field {e.args[0]!r}") from e
    except (TypeError, ValueError, OverflowError) as e:  # 10**400 too
        raise ConfigError(f"{where}: {e}") from e
    if m.a != alphabet_size:
        raise ConfigError(f"{where}: measure alphabet {m.a} != {alphabet_size}")
    return m


def _forecaster(d: dict, alphabet_size: int, where: str):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    if d["kind"] == "coherent":
        _fields(d, where, "kind", "measure")
        return CoherentForecaster(measure_from_spec(
            d.get("measure"), alphabet_size, f"{where}.measure"))
    if d["kind"] == "scripted":
        ms = _fields(d, where, "kind", "measures").get("measures")
        if not isinstance(ms, list) or not ms:
            raise ConfigError(f"{where}.measures: need a nonempty list")
        return ScriptedForecaster([
            measure_from_spec(m, alphabet_size, f"{where}.measures[{i}]")
            for i, m in enumerate(ms)])
    raise ConfigError(f"{where}.kind: unknown forecaster kind {d['kind']!r}")


def _reality(d: dict, alphabet_size: int, t: int, seed: int, where: str):
    """Reality; a sampling one is seeded by ``seed`` unless it names its own."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    kind = d["kind"]
    if kind == "scripted":
        string = _symbols(_fields(d, where, "kind", "string").get("string"),
                          alphabet_size, f"{where}.string")
        if len(string) < t:
            raise ConfigError(f"{where}.string: {len(string)} symbols for "
                              f"T = {t} steps")
        return ScriptedReality(string)
    if d.get("seed") is not None:
        seed = _integer(d["seed"], f"{where}.seed", 0)
    if kind == "sample":
        _fields(d, where, "kind", "measure", "seed")
        return SampledReality(measure_from_spec(
            d.get("measure"), alphabet_size, f"{where}.measure"), seed)
    if kind == "switch_at":
        _fields(d, where, "kind", "step", "before", "after", "seed")
        return SwitchingReality(
            _integer(d.get("step"), f"{where}.step", 0),
            measure_from_spec(d.get("before"), alphabet_size, f"{where}.before"),
            measure_from_spec(d.get("after"), alphabet_size, f"{where}.after"),
            seed)
    raise ConfigError(f"{where}.kind: unknown reality kind {kind!r}")


@dataclass
class ExperimentConfig:
    alphabet_size: int
    t: int
    forecaster_i: CoherentForecaster | ScriptedForecaster
    forecaster_ii: CoherentForecaster | ScriptedForecaster
    reality: SampledReality | ScriptedReality | SwitchingReality
    j_max: int = 20
    m_max: int = 64
    lim_wrap: bool = False
    m_report: int = 8
    budget: int = DEFAULT_BUDGET
    raw: dict = field(default_factory=dict)
    seed: int = 0  # after raw: so __init__ (and dataclasses.replace) reseeds

    def __setattr__(self, name: str, value) -> None:
        if name == "seed" and getattr(self, "raw", None):  # reseeds Reality
            self.reality = _reality(self.raw.get("reality"), self.alphabet_size,
                                    self.t, _integer(value, "seed", 0), "reality")
        super().__setattr__(name, value)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root must be an object")
        _fields(d, "", "alphabet_size", "T", "forecaster_I", "forecaster_II",
                "reality", "sceptic", "m_report", "seed", "budget")
        for key in ("alphabet_size", "T"):
            if key not in d:
                raise ConfigError(f"missing field {key!r}")
        a = _integer(d["alphabet_size"], "alphabet_size", 1)
        t = _integer(d["T"], "T", 0)
        seed = _integer(d.get("seed", 0), "seed", 0)
        sceptic = d.get("sceptic", {})
        if not isinstance(sceptic, dict):
            raise ConfigError("sceptic: must be an object")
        _fields(sceptic, "sceptic", "J", "M_max", "lim_wrap")
        lim_wrap = sceptic.get("lim_wrap", False)
        if not isinstance(lim_wrap, bool):  # bool("false") is True
            raise ConfigError(f"sceptic.lim_wrap: need a boolean, got {lim_wrap!r}")
        # an m_report past the walk's budget is no error here: the chain and
        # type routes serve it, and an untyped pair raises BudgetExceeded
        return ExperimentConfig(
            alphabet_size=a, t=t,
            forecaster_i=_forecaster(d.get("forecaster_I"), a, "forecaster_I"),
            forecaster_ii=_forecaster(d.get("forecaster_II"), a, "forecaster_II"),
            reality=None,  # built from raw by the seed's assignment
            j_max=_integer(sceptic.get("J", 20), "sceptic.J", 1),
            m_max=_integer(sceptic.get("M_max", 64), "sceptic.M_max", 1),
            lim_wrap=lim_wrap,
            m_report=_integer(d.get("m_report", 8), "m_report", 0),
            seed=seed,
            budget=_integer(d.get("budget", DEFAULT_BUDGET), "budget", 1),
            raw=d,
        )

    def forecasters(self) -> Tuple[object, object]:
        """Forecasters I and II, as one game plays them."""
        return self.forecaster_i, self.forecaster_ii

    @staticmethod
    def load(path_or_name: str) -> "ExperimentConfig":
        """Load from a JSON file path or a shipped scenario name."""
        cat = catalog()
        if path_or_name in cat:
            return ExperimentConfig.from_dict(cat[path_or_name])

        def finite(s: str) -> float:  # NaN, ±Infinity, and 1e999 read as inf
            if math.isfinite(v := float(s)):
                return v
            raise ConfigError(f"{path_or_name}: non-finite number {s}")

        try:
            with open(path_or_name, encoding="utf-8") as fh:
                d = json.load(fh, parse_float=finite, parse_constant=finite)
        except FileNotFoundError as e:
            raise ConfigError(f"no such config file or scenario: "
                              f"{path_or_name!r}") from e
        except (OSError, UnicodeDecodeError) as e:  # a folder, unreadable
            raise ConfigError(f"cannot read config {path_or_name!r}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path_or_name}: invalid JSON at line "
                              f"{e.lineno}: {e.msg}") from e
        return ExperimentConfig.from_dict(d)


# -- trace ---------------------------------------------------------------------

@dataclass
class TraceRow:
    n: int
    y: int
    h_m: float
    tv_m: float
    log2_k1: float
    log2_k2: float
    log2_geomean: float
    components_active: int
    bet_placed: int


@dataclass
class Trace:
    rows: List[TraceRow] = field(default_factory=list)
    component_bets: List[int] = field(default_factory=list)
    component_bet_steps: List[List[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        lines = [TRACE_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.n), str(r.y),
                format(r.h_m, ".17g"), format(r.tv_m, ".17g"),
                format(r.log2_k1, ".17g"), format(r.log2_k2, ".17g"),
                format(r.log2_geomean, ".17g"),
                str(r.components_active), str(r.bet_placed)]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


# -- execution -------------------------------------------------------------

def play(forecasters, sceptic, reality, t: int, budget: int = DEFAULT_BUDGET,
         on_step: Optional[Callable[[int, int, ForecastPair, ProtocolState],
                                    None]] = None) -> ProtocolState:
    """Play ``t`` rounds of the protocol; returns the settled engine.

    Every game runs through this loop. In each round the two forecasters
    announce, the Sceptic orders, both orders are placed, Reality moves, the
    engine settles (the one place a hedge leg advances) and then the Sceptic
    settles. ``on_step(n, y, pair, state)`` sees the round's announced pair
    and the settled engine. A Sceptic has ``step_orders(pair)``, returning
    the orders of sides I and II, and ``settle(book)``, which reads the
    settled engine; a Reality has ``next(n, history)``.
    """
    f_i, f_ii = forecasters
    DEEPEST.clear()  # a game's type route follows its own horizons
    history: List[int] = []
    pair = ForecastPair(f_i.announce(1, history), f_ii.announce(1, history))
    state = ProtocolState(pair.p_i.alphabet, pair, budget)
    for n in range(1, t + 1):
        o_i, o_ii = sceptic.step_orders(pair)
        state.place_order("I", o_i)
        state.place_order("II", o_ii)
        y = reality.next(n, history)
        history.append(y)
        announced, pair = pair, ForecastPair(f_i.announce(n + 1, history),
                                             f_ii.announce(n + 1, history))
        state.settle_step(y, pair)
        sceptic.settle(state)
        if on_step is not None:
            on_step(n, y, announced, state)
    return state


def run_experiment(cfg: ExperimentConfig) -> Trace:
    """Drive the protocol for T steps and record the per-step trace."""
    mixture = MixtureSceptic(cfg.j_max, cfg.m_max, cfg.budget)
    sceptic = LimWrappedSceptic(mixture) if cfg.lim_wrap else mixture
    trace = Trace()

    def record(n: int, y: int, pair: ForecastPair, state: ProtocolState):
        # after the horizon search, so an enumerated pair is walked once
        h_m = hellinger_restricted(pair.p_i, pair.p_ii, cfg.m_report,
                                   budget=cfg.budget)
        tv_m = tv_restricted(pair.p_i, pair.p_ii, cfg.m_report, cfg.budget)
        book = sceptic if cfg.lim_wrap else state  # lim-wraps state.capital
        lk1 = math.log2(max(book.capital("I"), 1e-300))
        lk2 = math.log2(max(book.capital("II"), 1e-300))
        trace.rows.append(TraceRow(
            n, y, h_m, tv_m, lk1, lk2, 0.5 * (lk1 + lk2),
            mixture.last_active, int(mixture.last_bets_placed)))

    capped = HorizonProfile.capped_searches
    play(cfg.forecasters(), sceptic, cfg.reality, cfg.t, cfg.budget, record)
    capped = HorizonProfile.capped_searches - capped
    if capped:
        logging.getLogger(__name__).warning(
            "%d horizon searches capped by the enumeration budget of %d "
            "terms (M_max %d)", capped, cfg.budget, cfg.m_max)
    trace.component_bet_steps = [c.bet_steps for c in mixture.components]
    trace.component_bets = [len(s) for s in trace.component_bet_steps]
    return trace


def summarize(trace: Trace, tol_merge: float = 1e-3,
              growth_floor: float = 20.0) -> dict:
    """Final/max capitals, metric surrogates, and the disjunction check; a
    value that is not finite reads None, and so does any claim of a run with
    such a capital (first at ``nonfinite_step``)."""
    if len(trace) == 0:
        raise DomainError("cannot summarize an empty trace")
    last = trace.rows[-1]
    max_geo = max(r.log2_geomean for r in trace.rows)
    merge_arm = (1.0 - last.h_m) < tol_merge
    growth_arm = max_geo >= growth_floor
    bad = next((r.n for r in trace.rows if not math.isfinite(r.log2_geomean)), None)
    report = {
        "steps": len(trace),
        "final_log2_k1": last.log2_k1,
        "final_log2_k2": last.log2_k2,
        "final_log2_geomean": last.log2_geomean,
        "max_log2_geomean": max_geo,
        "final_h_m": last.h_m,
        "final_tv_m": last.tv_m,
        "bets_total": sum(r.bet_placed for r in trace.rows),
        "component_bets": list(trace.component_bets),
        "tol_merge": tol_merge,
        "growth_floor": growth_floor,
        "merge_arm": merge_arm,
        "growth_arm": growth_arm,
        "disjunction_satisfied": merge_arm or growth_arm,
        "nonfinite_step": bad,
    }
    if bad is not None:
        report.update(growth_arm=None, disjunction_satisfied=None)
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in report.items()}


# -- oracles ---------------------------------------------------------------

def run_on_path(cfg: ExperimentConfig, path: Sequence[int]) -> Tuple[float, float]:
    """Final capitals when Reality plays exactly ``path``."""
    state = play(cfg.forecasters(),
                 MixtureSceptic(cfg.j_max, cfg.m_max, cfg.budget),
                 ScriptedReality(path), len(path), cfg.budget)
    return state.capital("I"), state.capital("II")


def oracle_expect_capital(cfg: ExperimentConfig, side: str) -> float:
    """Exact E[K_side] at T by exhaustive enumeration of Reality's paths."""
    a, t = cfg.alphabet_size, cfg.t
    if a ** t > 2 ** 20:
        raise BudgetExceeded(f"{a}^{t} paths exceed the oracle budget")
    f = cfg.forecaster_i if side == "I" else cfg.forecaster_ii
    if not isinstance(f, CoherentForecaster):
        raise DomainError("oracle requires a coherent forecaster")
    total = 0.0
    for path in itertools.product(range(a), repeat=t):
        k_i, k_ii = run_on_path(cfg, path)
        total += math.exp(f.measure.cylinder_log_prob(path)) * \
            (k_i if side == "I" else k_ii)
    return total


def oracle_metrics(p: Measure, q: Measure, m: int
                   ) -> Tuple[float, float, Optional[float]]:
    """(H_m, TV_m, sup-over-events TV) by direct enumeration.

    The sup form scans all subsets of Y^m and is only attempted when
    a^m <= 12; otherwise the third entry is None.
    """
    a = p.a
    if a ** m > 2 ** 20:
        raise BudgetExceeded(f"{a}^{m} strings exceed the oracle budget")
    probs: List[Tuple[float, float]] = []
    for x in itertools.product(range(a), repeat=m):
        pp, qq = 1.0, 1.0
        for i in range(m):
            pp *= p.one_step(x[:i])[x[i]]
            qq *= q.one_step(x[:i])[x[i]]
        probs.append((pp, qq))
    h = math.fsum(math.sqrt(pp * qq) for pp, qq in probs)
    tv = math.fsum(abs(pp - qq) for pp, qq in probs)
    sup_tv = None
    if a ** m <= 12:
        best = 0.0
        for mask in range(2 ** len(probs)):
            pe = math.fsum(pp for i, (pp, _) in enumerate(probs)
                           if mask >> i & 1)
            qe = math.fsum(qq for i, (_, qq) in enumerate(probs)
                           if mask >> i & 1)
            best = max(best, abs(pe - qe))
        sup_tv = 2.0 * best
    return h, tv, sup_tv


def incremental_capitals(forecasts: Sequence[ForecastPair],
                         orders: Sequence[Tuple[Dict[String, float],
                                                Dict[String, float]]],
                         outcomes: Sequence[int]) -> List[Tuple[float, float]]:
    """Literal incremental capital updates of the protocol.

    ``forecasts`` holds the pairs for steps 1..T+1, ``orders`` the fresh
    explicit stakes per step per side, ``outcomes`` Reality's symbols. The
    effective step-n move carries forward the re-bought tails of the
    previous move, length-1 contracts settle once in the payoff line, and
    contracts of length >= 2 are charged once and re-marked at the next
    announcement. Returns (K_I, K_II) after each step's re-marking.
    """
    t = len(outcomes)
    caps = {"I": 1.0, "II": 1.0}
    carried: Dict[str, Dict[String, float]] = {"I": {}, "II": {}}
    out: List[Tuple[float, float]] = []
    for n in range(1, t + 1):
        y = outcomes[n - 1]
        for si, side in enumerate(("I", "II")):
            price_n = forecasts[n - 1].side(side)
            price_n1 = forecasts[n].side(side)
            f: Dict[String, float] = dict(carried[side])
            for x, v in orders[n - 1][si].items():
                f[x] = f.get(x, 0.0) + v
            # payoff line: length-1 part settles now
            k = caps[side]
            k += f.get((y,), 0.0)
            k -= math.fsum(f.get((s,), 0.0)
                           * math.exp(price_n.cylinder_log_prob((s,)))
                           for s in range(price_n.a))
            # re-marking line at the next announcement
            k += math.fsum(v * math.exp(price_n1.cylinder_log_prob(x[1:]))
                           for x, v in f.items() if len(x) >= 2 and x[0] == y)
            k -= math.fsum(v * math.exp(price_n.cylinder_log_prob(x))
                           for x, v in f.items() if len(x) >= 2)
            caps[side] = k
            carried[side] = {x[1:]: v for x, v in f.items()
                             if len(x) >= 2 and x[0] == y}
        out.append((caps["I"], caps["II"]))
    return out
