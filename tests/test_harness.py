"""Config parsing, experiment driver, traces, and brute-force oracles."""

import json
import math

import numpy as np
import pytest

from mergebet.errors import BudgetExceeded, ConfigError, DomainError
from mergebet.harness import (ExperimentConfig, TRACE_HEADER,
                              incremental_capitals, measure_from_spec,
                              oracle_expect_capital, oracle_metrics, play,
                              run_experiment, run_on_path, summarize)
from mergebet import measures, metrics, protocol, strategy
from mergebet.measures import Conditioned, FiniteMixture, IID, bernoulli
from mergebet.protocol import ForecastPair, HedgeLeg, ProtocolState
from mergebet.scenarios import catalog, make_reality
from mergebet.strategy import MixtureSceptic, wrap_capital_path

FAIR = {"family": "iid", "weights": [0.5, 0.5]}


def tiny_config(**overrides):
    d = {
        "alphabet_size": 2,
        "T": 6,
        "forecaster_I": {"kind": "coherent",
                         "measure": {"family": "iid", "weights": [0.6, 0.4]}},
        "forecaster_II": {"kind": "coherent",
                          "measure": {"family": "iid", "weights": [0.4, 0.6]}},
        "reality": {"kind": "sample", "measure": FAIR},
        "sceptic": {"J": 3, "M_max": 4},
        "m_report": 4,
        "seed": 0,
    }
    d.update(overrides)
    return d


# -- config parsing ------------------------------------------------------------


def test_measure_from_spec_families():
    m = measure_from_spec(FAIR, 2)
    np.testing.assert_allclose(m.one_step(()), [0.5, 0.5])
    m = measure_from_spec({"family": "beta_learner",
                           "pseudo_counts": [1, 1]}, 2)
    assert m.one_step(())[0] == 0.5
    m = measure_from_spec({"family": "markov",
                           "transition": [[0.9, 0.1], [0.2, 0.8]],
                           "initial": [0.5, 0.5]}, 2)
    np.testing.assert_allclose(m.one_step((1,)), [0.2, 0.8])
    m = measure_from_spec({"family": "mixture", "weights": [0.5, 0.5],
                           "components": [FAIR, FAIR]}, 2)
    np.testing.assert_allclose(m.one_step(()), [0.5, 0.5])
    m = measure_from_spec({"family": "conditioned", "base": FAIR,
                           "prefix": [1]}, 2)
    np.testing.assert_allclose(m.one_step(()), [0.5, 0.5])


@pytest.mark.parametrize("base", [
    {"family": "beta_learner", "pseudo_counts": [2.0, 0.5]},
    {"family": "mixture", "weights": [0.3, 0.7], "components": [
        {"family": "beta_learner", "pseudo_counts": [1.0, 3.0]},
        {"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]}]}])
def test_conditioned_config_is_the_posterior_of_its_base(base):
    # the family's own one-symbol steps give the law of Conditioned, typed
    prefix = [0, 1, 1]
    built = measure_from_spec({"family": "conditioned", "base": base,
                               "prefix": prefix}, 2)
    wrapped = Conditioned(measure_from_spec(base, 2), prefix)
    assert built.type_key() is not None and wrapped.type_key() is None
    for x in [(), (0,), (1, 0), (1, 1, 0), (0, 0, 1, 1)]:
        np.testing.assert_allclose(built.one_step(x), wrapped.one_step(x),
                                   rtol=0, atol=1e-15)
        assert abs(built.cylinder_log_prob(x)
                   - wrapped.cylinder_log_prob(x)) <= 1e-15


def test_a_conditioned_config_never_walks_the_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("metrics.tree_walk reached")

    monkeypatch.setattr(metrics, "tree_walk", refuse)
    d = catalog()["merge-beta"]
    for side in ("forecaster_I", "forecaster_II"):
        d[side]["measure"] = {"family": "conditioned", "prefix": [0],
                              "base": d[side]["measure"]}
    cfg = ExperimentConfig.from_dict(d)
    cfg.t = 40
    assert len(run_experiment(cfg)) == 40


def test_config_error_paths():
    with pytest.raises(ConfigError, match="family"):
        measure_from_spec({}, 2)
    with pytest.raises(ConfigError, match="unknown measure family"):
        measure_from_spec({"family": "cauchy"}, 2)
    with pytest.raises(ConfigError, match="weights"):
        measure_from_spec({"family": "iid"}, 2)
    with pytest.raises(ConfigError, match="alphabet"):
        measure_from_spec({"family": "iid", "weights": [0.2, 0.3, 0.5]}, 2)


def test_config_missing_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"alphabet_size": 2})
    cfg = tiny_config()
    del cfg["forecaster_I"]
    with pytest.raises(ConfigError, match="forecaster_I"):
        ExperimentConfig.from_dict(cfg)


def test_config_bounds():
    with pytest.raises(ConfigError, match="T"):
        ExperimentConfig.from_dict(tiny_config(T=-1))
    with pytest.raises(ConfigError, match="m_report"):
        ExperimentConfig.from_dict(tiny_config(m_report=-1))
    with pytest.raises(ConfigError, match="J"):
        ExperimentConfig.from_dict(tiny_config(sceptic={"J": 0}))
    # 2^23 strings pass the default budget, but the type route serves them
    d = catalog()["merge-beta"]
    d.update(T=20, m_report=23)
    trace = run_experiment(ExperimentConfig.from_dict(d))
    assert len(trace) == 20 and 0.0 < trace.rows[-1].h_m <= 1.0


@pytest.mark.parametrize("field, overrides", [
    ("budget", {"budget": 0}),
    ("seed", {"seed": -1}),
    ("seed", {"seed": 1.5}),
    ("reality.seed", {"reality": {"kind": "sample", "measure": FAIR,
                                  "seed": -2}}),
    ("reality.seed", {"reality": {"kind": "sample", "measure": FAIR,
                                  "seed": "7"}}),
    ("reality.step", {"reality": {"kind": "switch_at", "before": FAIR,
                                  "after": FAIR}}),
    ("reality.step", {"reality": {"kind": "switch_at", "step": "3",
                                  "before": FAIR, "after": FAIR}}),
    ("sceptic.lim_wrap", {"sceptic": {"J": 3, "lim_wrap": "false"}}),
    ("forecaster_I.measure.prefix", {"forecaster_I": {
        "kind": "coherent", "measure": {"family": "conditioned",
                                        "base": FAIR, "prefix": [0.9, 1.2]}}}),
    ("reality.string", {"T": 10, "reality": {"kind": "scripted",
                                             "string": [0, 1, 1]}}),
])
def test_config_rejects_bad_integers_and_symbols(field, overrides):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict(tiny_config(**overrides))


def test_config_load_rejects_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        ExperimentConfig.load("/nonexistent/path.json")


def test_config_load_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.load(str(bad))


def test_config_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config()))
    cfg = ExperimentConfig.load(str(path))
    assert cfg.t == 6
    assert cfg.j_max == 3


# -- run_experiment ----------------------------------------------------------


def test_capped_horizon_search_logged_once_per_run(caplog):
    chains = [{"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]},
              {"family": "markov", "transition": [[0.4, 0.6], [0.6, 0.4]]}]

    def mixture(w):
        return {"kind": "coherent", "measure": {
            "family": "mixture", "weights": w, "components": chains}}

    # a mixture of chains has neither a chain view nor a count form, so its
    # horizon search is enumerated and capped at m=8 by a 2^8 budget
    cfg = ExperimentConfig.from_dict(tiny_config(
        T=30, forecaster_I=mixture([0.5, 0.5]), forecaster_II=mixture([0.9, 0.1]),
        sceptic={"J": 4, "M_max": 64}, budget=2 ** 8))
    with caplog.at_level("WARNING"):
        run_experiment(cfg)
    capped = [r for r in caplog.records if "capped" in r.getMessage()]
    assert len(capped) == 1
    assert capped[0].getMessage().split()[0].isdigit()


def test_engine_is_the_only_book_of_hedge_legs(monkeypatch):
    # every leg advance is the engine's: one per leg it holds per settlement
    advances, held = [], []
    advance, settle = HedgeLeg.advance, ProtocolState.settle_step

    def counted_advance(self, y, step=None):
        advances.append(y)
        return advance(self, y, step)

    def counted_settle(self, y, pair):
        held.append(sum(len(pf.legs) for pf in self.portfolios.values()))
        return settle(self, y, pair)

    monkeypatch.setattr(HedgeLeg, "advance", counted_advance)
    monkeypatch.setattr(ProtocolState, "settle_step", counted_settle)
    cfg = ExperimentConfig.load("diverge-iid")
    cfg.t = 300
    trace = run_experiment(cfg)
    assert sum(trace.component_bets) > 0
    assert len(held) == 300
    assert len(advances) == sum(held) > 0


MARKOV_MIX_CHAINS = [
    {"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]},
    {"family": "markov", "transition": [[0.4, 0.6], [0.6, 0.4]]}]


def test_fresh_mixture_posteriors_skip_the_generic_logsumexp(monkeypatch):
    # a mixture's type level sums its components' rows itself; and once the
    # horizon search settles, each step scores its two fresh posteriors at
    # two levels (the search's and the report's) of singular-pair's large
    # table, and once each over every level of markov-mix's small one
    def refuse(*args, **kwargs):
        raise AssertionError("measures.logsumexp reached")

    calls, per_step, levels = [0], [], set()
    type_log_probs, settle = (FiniteMixture.type_log_probs,
                              ProtocolState.settle_step)

    def counted_type_log_probs(self, table, rows):
        calls[0] += 1
        levels.add(table.depth[rows.stop - 1] - table.depth[rows.start] + 1)
        return type_log_probs(self, table, rows)

    def counted_settle(self, y, pair):
        per_step.append(calls[0])
        calls[0] = 0
        return settle(self, y, pair)

    monkeypatch.setattr(measures, "logsumexp", refuse)
    monkeypatch.setattr(FiniteMixture, "type_log_probs", counted_type_log_probs)
    monkeypatch.setattr(ProtocolState, "settle_step", counted_settle)
    cfg = ExperimentConfig.load("singular-pair")
    cfg.t = 200
    run_experiment(cfg)
    assert len(per_step) == 200
    assert max(per_step[50:]) <= 4
    assert levels == {1}  # its 2145-row table is scored a level at a time

    def mix(w):
        return {"kind": "coherent", "measure": {
            "family": "mixture", "weights": w, "components": MARKOV_MIX_CHAINS}}

    measures.type_table.cache_clear()  # as a fresh process: no test grew it
    trace = run_experiment(ExperimentConfig.from_dict(tiny_config(
        T=200, forecaster_I=mix([0.5, 0.5]), forecaster_II=mix([0.9, 0.1]),
        reality={"kind": "sample", "measure": MARKOV_MIX_CHAINS[0]},
        sceptic={"J": 8, "M_max": 8, "lim_wrap": False}, m_report=6,
        seed=16)))
    assert len(trace) == 200 and sum(per_step[200:]) > 0
    assert max(per_step[250:]) <= 2


def test_concentrated_posteriors_skip_the_full_logsumexp(monkeypatch):
    # singular-pair's skew components lose all weight that a sum holding 1.0
    # could show within ~30 steps, so from then on every mixture level reads
    # its live component alone; markov-mix's posteriors stay mixed (its most
    # concentrated log-weight gap over seeds 16-31 is -12.7)
    calls, per_step = [0, 0], []  # scorings, full sums
    collapsed, settle = measures._collapsed, ProtocolState.settle_step

    def counted_collapsed(lps, lw):
        i = collapsed(lps, lw)
        calls[0] += 1
        calls[1] += i is None
        return i

    def counted_settle(self, y, pair):
        per_step.append(tuple(calls))
        calls[:] = [0, 0]
        return settle(self, y, pair)

    monkeypatch.setattr(measures, "_collapsed", counted_collapsed)
    monkeypatch.setattr(ProtocolState, "settle_step", counted_settle)
    cfg = ExperimentConfig.load("singular-pair")
    cfg.t = 600
    run_experiment(cfg)
    late = per_step[400:]
    assert len(late) == 200 and sum(c[0] for c in late) >= 200
    assert sum(c[1] for c in late) == 0

    def mix(w):
        return {"kind": "coherent", "measure": {
            "family": "mixture", "weights": w, "components": MARKOV_MIX_CHAINS}}

    per_step.clear()
    calls[:] = [0, 0]
    run_experiment(ExperimentConfig.from_dict(tiny_config(
        T=24, forecaster_I=mix([0.5, 0.5]), forecaster_II=mix([0.9, 0.1]),
        reality={"kind": "sample", "measure": MARKOV_MIX_CHAINS[0]},
        sceptic={"J": 8, "M_max": 8, "lim_wrap": False}, m_report=6,
        seed=16)))
    per_step.append(tuple(calls))  # the last step's report
    scored, full_path = map(sum, zip(*per_step))
    assert scored > 0 and full_path == scored


def test_type_scoring_does_not_depend_on_how_far_the_shared_table_grew(
        monkeypatch):
    # merge-beta's 153-row table at M_max = 16 is scored in one pass per
    # fresh posterior, whether or not another game grew it to level 64 before
    calls = [0]
    type_log_probs = measures.BetaLearner.type_log_probs

    def counted(self, table, rows):
        calls[0] += 1
        return type_log_probs(self, table, rows)

    def per_step():
        calls[0] = 0
        cfg = ExperimentConfig.load("merge-beta")
        cfg.t = 300
        run_experiment(cfg)
        return calls[0] / cfg.t

    monkeypatch.setattr(measures.BetaLearner, "type_log_probs", counted)
    measures.type_table.cache_clear()  # as a fresh process: no test grew it
    fresh = per_step()
    measures.type_table(2, 0, ()).reach(64, metrics.DEFAULT_BUDGET)
    assert per_step() == fresh <= 2.0


def coherent(measure):
    return {"kind": "coherent", "measure": measure}


def beta(*counts):
    return {"family": "beta_learner", "pseudo_counts": list(counts)}


#: a pair of measures per family whose forecasts part, so the Sceptic bets
LEG_PAIRS = {
    "iid": ({"family": "iid", "weights": [0.7, 0.3]},
            {"family": "iid", "weights": [0.3, 0.7]}),
    "markov": MARKOV_MIX_CHAINS,
    "beta_learner": (beta(6.0, 1.0), beta(1.0, 6.0)),
    "mixture": ({"family": "mixture", "weights": [0.5, 0.5],
                 "components": [beta(6.0, 1.0), MARKOV_MIX_CHAINS[0]]},
                {"family": "mixture", "weights": [0.9, 0.1],
                 "components": [beta(1.0, 6.0), MARKOV_MIX_CHAINS[1]]}),
    "conditioned": ({"family": "conditioned", "base": beta(6.0, 1.0),
                     "prefix": [0, 0]},
                    {"family": "conditioned", "base": beta(1.0, 6.0),
                     "prefix": [1]}),
}


@pytest.mark.parametrize("family", sorted(LEG_PAIRS))
def test_legs_step_onto_the_announced_measures(family):
    # a leg advanced by y is the child of its measure, which the coherent
    # forecaster announced a moment before: one object, so one pair engine
    p, q = LEG_PAIRS[family]
    cfg = ExperimentConfig.from_dict(tiny_config(
        T=16, forecaster_I=coherent(p), forecaster_II=coherent(q),
        sceptic={"J": 6, "M_max": 6}))
    held = [0]

    def check(n, y, announced, state):
        now = state.forecasts
        for own, other in (("I", "II"), ("II", "I")):
            for _, leg in state.portfolios[own].legs:
                assert leg.own is now.side(own)
                assert leg.other is now.side(other)
                held[0] += 1

    play(cfg.forecasters(), MixtureSceptic(cfg.j_max, cfg.m_max, cfg.budget),
         make_reality(cfg.reality, cfg.seed), cfg.t, cfg.budget, check)
    assert held[0] > 0


def test_a_coherent_step_builds_one_pair_engine(monkeypatch):
    # the Sceptic's search, the legs' marks and the report read one engine
    builds = [0]
    init = metrics.HorizonProfile.__init__

    def counted_init(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(metrics.HorizonProfile, "__init__", counted_init)
    cfg = ExperimentConfig.from_dict(tiny_config(
        T=24, forecaster_I=coherent({"family": "mixture", "weights": [0.5, 0.5],
                                     "components": MARKOV_MIX_CHAINS}),
        forecaster_II=coherent({"family": "mixture", "weights": [0.9, 0.1],
                                "components": MARKOV_MIX_CHAINS}),
        reality={"kind": "sample", "measure": MARKOV_MIX_CHAINS[0]},
        sceptic={"J": 8, "M_max": 8, "lim_wrap": False}, m_report=6,
        seed=16))
    trace = run_experiment(cfg)
    assert sum(trace.component_bets) > 0
    assert builds[0] / cfg.t <= 1.1


def test_a_diverge_step_reads_the_announced_pair_once_per_use(monkeypatch):
    # one engine read for the Sceptic's search, one per leg pair in each mark
    # and the report's two, and one step per leg pair in each settlement,
    # however many legs are open
    lookups, settles, held = [0], [], []
    lookup, one_step = metrics.pair_profile, IID.one_step
    settle = ProtocolState.settle_step

    def counted_lookup(*args, **kwargs):
        lookups[0] += 1
        return lookup(*args, **kwargs)

    def counted_one_step(self, history):
        if settles and settles[-1][1] is None:
            settles[-1][0] += 1
        return one_step(self, history)

    def counted_settle(self, y, pair):
        held.append(sum(len(pf.legs) for pf in self.portfolios.values()))
        settles.append([0, None])
        out = settle(self, y, pair)
        settles[-1][1] = lookups[0]
        lookups[0] = 0
        return out

    for mod in (metrics, strategy, protocol):
        monkeypatch.setattr(mod, "pair_profile", counted_lookup)
    monkeypatch.setattr(IID, "one_step", counted_one_step)
    monkeypatch.setattr(ProtocolState, "settle_step", counted_settle)
    cfg = ExperimentConfig.load("diverge-iid")
    cfg.t = 300
    assert cfg.j_max == 10
    trace = run_experiment(cfg)
    assert sum(trace.component_bets) > 0 and max(held) >= 10
    assert len(settles) == 300
    assert max(n for _, n in settles) <= 7  # the parent made 34 a step
    assert max(n for n, _ in settles) <= 4


def test_zero_steps_empty_trace():
    cfg = ExperimentConfig.from_dict(tiny_config(T=0))
    trace = run_experiment(cfg)
    assert len(trace) == 0
    assert trace.component_bets == [0, 0, 0]


def betting_config(**overrides):
    # wide forecast gap, so hedges trigger even with a small horizon cap
    d = tiny_config(**overrides)
    d["forecaster_I"] = {"kind": "coherent",
                         "measure": {"family": "iid", "weights": [0.9, 0.1]}}
    d["forecaster_II"] = {"kind": "coherent",
                          "measure": {"family": "iid", "weights": [0.1, 0.9]}}
    return d


def test_trace_reproducible_bit_identical(tmp_path):
    cfg = betting_config(T=40, sceptic={"J": 4, "M_max": 8}, seed=3)
    a = run_experiment(ExperimentConfig.from_dict(cfg)).to_csv()
    b = run_experiment(ExperimentConfig.from_dict(cfg)).to_csv()
    assert a == b
    assert a.splitlines()[0] == TRACE_HEADER
    assert len(a.splitlines()) == 41


def test_trace_header_fixed():
    assert TRACE_HEADER == ("n,y,h_m,tv_m,log2_k1,log2_k2,log2_geomean,"
                            "components_active,bet_placed")


def test_identical_forecasters_merge_trivially():
    cfg = tiny_config(T=30)
    cfg["forecaster_II"] = cfg["forecaster_I"]
    trace = run_experiment(ExperimentConfig.from_dict(cfg))
    assert all(r.h_m == pytest.approx(1.0, abs=1e-12) for r in trace.rows)
    assert all(r.log2_k1 == pytest.approx(0.0, abs=1e-12) for r in trace.rows)
    rep = summarize(trace)
    assert rep["merge_arm"]
    assert rep["disjunction_satisfied"]


def test_scripted_reality_run_capitals_match_manual():
    cfg = tiny_config(T=4)
    cfg["reality"] = {"kind": "scripted", "string": [1, 0, 1, 1]}
    trace = run_experiment(ExperimentConfig.from_dict(cfg))
    k_i, k_ii = run_on_path(ExperimentConfig.from_dict(cfg), (1, 0, 1, 1))
    assert trace.rows[-1].log2_k1 == pytest.approx(math.log2(max(k_i, 1e-300)),
                                                   abs=1e-9)
    assert trace.rows[-1].log2_k2 == pytest.approx(math.log2(max(k_ii, 1e-300)),
                                                   abs=1e-9)


def test_lim_wrap_rows_are_the_wrap_of_the_mixtures_capital():
    d = catalog()["diverge-iid"]
    d["T"] = 400
    plain = run_experiment(ExperimentConfig.from_dict(d))
    d["sceptic"] = dict(d["sceptic"], lim_wrap=True)
    wrapped = run_experiment(ExperimentConfig.from_dict(d))
    assert len(plain) == len(wrapped) == 400
    same = ("y", "h_m", "tv_m", "bet_placed", "components_active")
    for a, b in zip(plain.rows, wrapped.rows):
        assert [getattr(a, f) for f in same] == [getattr(b, f) for f in same]
    for side in ("log2_k1", "log2_k2"):
        want = wrap_capital_path([2.0 ** getattr(r, side) for r in plain.rows])
        got = [2.0 ** getattr(r, side) for r in wrapped.rows]
        worst = max(abs(g - w) / w for g, w in zip(got, want))
        assert worst <= 1e-9, (side, worst)


def test_summarize_rejects_empty():
    cfg = ExperimentConfig.from_dict(tiny_config(T=0))
    with pytest.raises(DomainError):
        summarize(run_experiment(cfg))


def test_summarize_monotone_in_growth_floor():
    cfg = ExperimentConfig.from_dict(
        betting_config(T=40, sceptic={"J": 4, "M_max": 8}))
    trace = run_experiment(cfg)
    lo = summarize(trace, growth_floor=-1.0)
    hi = summarize(trace, growth_floor=1e9)
    assert lo["growth_arm"]
    assert not hi["growth_arm"]


# -- oracles -------------------------------------------------------------------


def test_oracle_martingale_zero_bet_sceptic_exact():
    # forecasters agree, so no component ever bets and capital stays 1
    cfg = tiny_config(T=3)
    cfg["forecaster_II"] = cfg["forecaster_I"]
    cfg["forecaster_I"] = {"kind": "coherent", "measure": FAIR}
    cfg["forecaster_II"] = {"kind": "coherent", "measure": FAIR}
    c = ExperimentConfig.from_dict(cfg)
    # every path leaves the capitals at exactly 1
    for path in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        assert run_on_path(c, path) == (1.0, 1.0)
    assert oracle_expect_capital(c, "I") == pytest.approx(1.0, abs=1e-12)
    assert oracle_expect_capital(c, "II") == pytest.approx(1.0, abs=1e-12)


def test_oracle_martingale_with_bets():
    cfg = tiny_config()
    cfg["forecaster_I"] = {"kind": "coherent",
                           "measure": {"family": "iid", "weights": [0.9, 0.1]}}
    cfg["forecaster_II"] = {"kind": "coherent",
                            "measure": {"family": "iid", "weights": [0.1, 0.9]}}
    c = ExperimentConfig.from_dict(cfg)
    for side in ("I", "II"):
        assert oracle_expect_capital(c, side) == pytest.approx(1.0, abs=1e-9)


def test_oracle_martingale_budget():
    cfg = ExperimentConfig.from_dict(tiny_config(T=30))
    with pytest.raises(BudgetExceeded):
        oracle_expect_capital(cfg, "I")


def test_oracle_metrics_identity_pair():
    p = bernoulli(0.5)
    h, tv, sup_tv = oracle_metrics(p, p, 2)
    assert h == pytest.approx(1.0, abs=1e-12)
    assert tv == pytest.approx(0.0, abs=1e-12)
    assert sup_tv == pytest.approx(0.0, abs=1e-12)


def test_oracle_metrics_frozen_values():
    p, q = bernoulli(0.4), bernoulli(0.6)
    h2, _, _ = oracle_metrics(p, q, 2)
    assert h2 == pytest.approx(0.96, abs=1e-12)
    _, tv3, sup3 = oracle_metrics(p, q, 3)
    assert tv3 == pytest.approx(0.592, abs=1e-12)
    assert sup3 == pytest.approx(0.592, abs=1e-12)


def test_incremental_capitals_no_orders():
    p, q = bernoulli(0.4), bernoulli(0.6)
    pairs = [ForecastPair(p, q) for _ in range(4)]
    orders = [({}, {})] * 3
    caps = incremental_capitals(pairs, orders, [1, 0, 1])
    assert caps == [(1.0, 1.0)] * 3
