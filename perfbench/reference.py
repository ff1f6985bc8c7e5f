"""Reference computations that share no code with ``mergebet.metrics``.

Each forecaster measure of a workload config is rebuilt here from its JSON
form as a small posterior tracker over the binary alphabet:

* i.i.d.: fixed weights; the pair affinity is the closed form rho^m.
* Beta learner: Polya-urn (beta-binomial) block probabilities as products
  of the urn's one-step ratios.
* Mixture of i.i.d. or of order-1 Markov chains: posterior weights updated
  from the observed symbols (the trace's ``y`` column); Markov mixtures are
  summed by brute force over all 2^m strings from the transition tables.

A tracker's ``block(m)`` lists (multiplicity, probability of one string)
pairs over Y^m: exchangeable families group strings by their count of ones,
Markov mixtures list every string once. ``h_tv`` turns two such lists into
(H_m, TV_m).

Run as a script to print the derived expectations the benchmark checks
against (hedge strides, growth bounds, reference metrics of each first pair).
"""

from __future__ import annotations

import itertools
import math
from typing import List, Tuple

Block = List[Tuple[int, float]]


def _binary(weights) -> Tuple[float, float]:
    if len(weights) != 2:
        raise ValueError("reference covers the binary alphabet only")
    return float(weights[0]), float(weights[1])


class IIDRef:
    def __init__(self, weights):
        self.p0, self.p1 = _binary(weights)

    def observe(self, y: int) -> None:
        pass

    def block(self, m: int) -> Block:
        return [(math.comb(m, c), self.p1 ** c * self.p0 ** (m - c))
                for c in range(m + 1)]


class BetaRef:
    """Polya urn: each drawn symbol adds one to its pseudo-count.

    Block probabilities are products of the urn's one-step ratios, exact to
    a few ulp. Differences of ``lgamma`` values would lose about
    ``eps * |lgamma(a)|`` absolutely, which exceeds 1e-12 once the counts
    reach a few thousand; ``rounding_scale`` bounds that loss for a route
    that does compute them so.
    """

    def __init__(self, pseudo_counts):
        self.a0, self.a1 = _binary(pseudo_counts)

    def observe(self, y: int) -> None:
        if y:
            self.a1 += 1.0
        else:
            self.a0 += 1.0

    def block(self, m: int) -> Block:
        a0, a1 = self.a0, self.a1
        out = []
        for c in range(m + 1):
            p = 1.0
            for i in range(c):
                p *= (a1 + i) / (a0 + a1 + i)
            for i in range(m - c):
                p *= (a0 + i) / (a0 + a1 + c + i)
            out.append((math.comb(m, c), p))
        return out

    def rounding_scale(self, m: int) -> float:
        """Sum of |lgamma| terms in a log-gamma evaluation of ``block(m)``."""
        a0, a1 = self.a0, self.a1
        return math.fsum(abs(math.lgamma(v)) for v in
                         (a0, a1, a0 + m, a1 + m, a0 + a1, a0 + a1 + m))


def _normalized(logw: List[float]) -> List[float]:
    hi = max(logw)
    w = [math.exp(v - hi) for v in logw]
    s = math.fsum(w)
    return [v / s for v in w]


class IIDMixtureRef:
    def __init__(self, weights, components):
        self.logw = [math.log(w) for w in weights]
        self.comps = [_binary(c["weights"]) for c in components]

    def observe(self, y: int) -> None:
        self.logw = [lw + math.log(c[y]) for lw, c in zip(self.logw, self.comps)]

    def posterior(self) -> List[float]:
        return _normalized(self.logw)

    def block(self, m: int) -> Block:
        post = self.posterior()
        return [(math.comb(m, c),
                 math.fsum(w * p1 ** c * p0 ** (m - c)
                           for w, (p0, p1) in zip(post, self.comps)))
                for c in range(m + 1)]


class MarkovMixtureRef:
    """Mixture of order-1 Markov chains."""

    def __init__(self, weights, components):
        self.logw = [math.log(w) for w in weights]
        self.tables = [[_binary(row) for row in c["transition"]]
                       for c in components]
        self.initial = [_binary(c.get("initial", [0.5, 0.5]))
                        for c in components]
        self.last = None

    def _law(self, k: int, prev):
        return self.initial[k] if prev is None else self.tables[k][prev]

    def observe(self, y: int) -> None:
        self.logw = [lw + math.log(self._law(k, self.last)[y])
                     for k, lw in enumerate(self.logw)]
        self.last = y

    def block(self, m: int) -> Block:
        post = _normalized(self.logw)
        out = []
        for x in itertools.product((0, 1), repeat=m):
            terms = []
            for k, w in enumerate(post):
                p, prev = w, self.last
                for y in x:
                    p *= self._law(k, prev)[y]
                    prev = y
                terms.append(p)
            out.append((1, math.fsum(terms)))
        return out


def tracker(spec: dict):
    """Posterior tracker for one measure of the config's JSON schema."""
    fam = spec["family"]
    if fam == "iid":
        return IIDRef(spec["weights"])
    if fam == "beta_learner":
        return BetaRef(spec["pseudo_counts"])
    if fam == "mixture":
        kinds = {c["family"] for c in spec["components"]}
        if kinds == {"iid"}:
            return IIDMixtureRef(spec["weights"], spec["components"])
        if kinds == {"markov"}:
            return MarkovMixtureRef(spec["weights"], spec["components"])
    raise ValueError(f"no reference for measure family {fam!r}")


def rho(p: IIDRef, q: IIDRef) -> float:
    """Per-symbol Hellinger affinity of two i.i.d. laws."""
    return math.fsum([math.sqrt(p.p0 * q.p0), math.sqrt(p.p1 * q.p1)])


def h_tv(p, q, m: int) -> Tuple[float, float]:
    """(H_m, TV_m) of two trackers in their current posterior state."""
    if m == 0:
        return 1.0, 0.0
    bp, bq = p.block(m), q.block(m)
    tv = math.fsum(k * abs(a - b) for (k, a), (_, b) in zip(bp, bq))
    if isinstance(p, IIDRef) and isinstance(q, IIDRef):
        return rho(p, q) ** m, tv
    if len(bp) != len(bq):
        raise ValueError("reference pair mixes exchangeable and Markov blocks")
    h = math.fsum(k * math.sqrt(a * b) for (k, a), (_, b) in zip(bp, bq))
    return h, tv


def tolerance(p, q, m: int, base: float) -> float:
    """``base`` plus, for Beta learners, the rounding bound of a log-gamma
    evaluation of their horizon-m block probabilities."""
    scale = math.fsum(t.rounding_scale(m) for t in (p, q)
                      if isinstance(t, BetaRef))
    return base + scale * 2.0 ** -52


def at_rows(cfg: dict, ys, rows, fn) -> dict:
    """``fn(p, q)`` for the announced pair at each given 1-based trace row.

    Row n is reported before Reality reveals y_n, so its pair is the
    announcement conditioned on y_1 .. y_{n-1}.
    """
    p = tracker(cfg["forecaster_I"]["measure"])
    q = tracker(cfg["forecaster_II"]["measure"])
    wanted = set(rows)
    out = {}
    for n, y in enumerate(ys, start=1):
        if n in wanted:
            out[n] = fn(p, q)
        p.observe(y)
        q.observe(y)
    return out


def hedge_strides(cfg: dict) -> List[int]:
    """Horizon m_j = min{m : rho^m < 1 - 2^-j} per component of an i.i.d.
    pair, or 0 when no m <= M_max certifies it."""
    p = tracker(cfg["forecaster_I"]["measure"])
    q = tracker(cfg["forecaster_II"]["measure"])
    r = rho(p, q)
    sceptic = cfg.get("sceptic", {})
    strides = []
    for j in range(1, sceptic.get("J", 20) + 1):
        found = 0
        for m in range(1, sceptic.get("M_max", 64) + 1):
            if r ** m < 1.0 - 2.0 ** -j:
                found = m
                break
        strides.append(found)
    return strides


def growth_floor(cfg: dict) -> float:
    """Lower bound on the final log2 geometric-mean capital of an i.i.d. pair.

    K_side >= K_side^(j=1) / 2 and each completed j=1 cycle multiplies that
    component's geometric-mean capital by exactly 1/H_{m_1} = rho^-m_1.
    """
    p = tracker(cfg["forecaster_I"]["measure"])
    q = tracker(cfg["forecaster_II"]["measure"])
    m1 = hedge_strides(cfg)[0]
    if m1 == 0:
        return -1.0
    cycles = cfg["T"] // m1
    return -1.0 + cycles * m1 * math.log2(1.0 / rho(p, q))


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads

    for name in workloads.NAMES:
        for op in workloads.distinct_pairs(workloads.build(name, seed=0)):
            cfg = op.config
            line = f"{name}/{op.label}: T={cfg['T']}"
            if cfg["forecaster_I"]["measure"]["family"] == "iid":
                line += (f" strides={hedge_strides(cfg)}"
                         f" growth_floor={growth_floor(cfg):.6f}")
            p = tracker(cfg["forecaster_I"]["measure"])
            q = tracker(cfg["forecaster_II"]["measure"])
            h, tv = h_tv(p, q, cfg.get("m_report", 8))
            line += f" first-pair H_m={h:.17g} TV_m={tv:.17g}"
            print(line)
