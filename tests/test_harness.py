"""Config parsing, experiment driver, traces, and brute-force oracles."""

import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mergebet.errors import BudgetExceeded, ConfigError, DomainError
from mergebet.harness import (ExperimentConfig, TRACE_HEADER,
                              incremental_capitals, measure_from_spec,
                              oracle_expect_capital, oracle_metrics, play,
                              run_experiment, run_on_path, summarize)
from mergebet import harness, measures, metrics, protocol, strategy
from mergebet.measures import Conditioned, FiniteMixture, IID, bernoulli
from mergebet.protocol import ForecastPair, HedgeLeg, ProtocolState
from mergebet.scenarios import catalog
from mergebet.strategy import LimWrap, MixtureSceptic, wrap_capital_path

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
    ("forecaster_I.kind", {"forecaster_I": {"kind": "psychic"}}),
    ("forecaster_I.measures", {"forecaster_I": {"kind": "scripted",
                                                "measures": []}}),
    ("forecaster_II.measure", {"forecaster_II": {"kind": "coherent"}}),
    ("reality.kind", {"reality": {"kind": "chaos"}}),
    ("reality.before", {"reality": {"kind": "switch_at", "step": 3}}),
    ("reality.measure", {"reality": {"kind": "sample"}}),
    ("reality.string", {"reality": {"kind": "scripted"}}),
])
def test_config_rejects_bad_integers_and_symbols(field, overrides):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict(tiny_config(**overrides))


CHAIN = {"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]}
LEARNER = {"family": "beta_learner", "pseudo_counts": [1.0, 1.0]}


@pytest.mark.parametrize("path, overrides", [
    ("Tee", {"Tee": 5}),
    ("sceptic.j", {"sceptic": {"j": 3}}),
    ("sceptic.M-max", {"sceptic": {"J": 3, "M-max": 5}}),
    ("forecaster_I.measures", {"forecaster_I": {
        "kind": "coherent", "measure": FAIR, "measures": [FAIR]}}),
    ("forecaster_II.seed", {"forecaster_II": {
        "kind": "scripted", "measures": [FAIR], "seed": 1}}),
    ("reality.string", {"reality": {"kind": "sample", "measure": FAIR,
                                    "string": [0]}}),
    ("reality.seed", {"reality": {"kind": "scripted", "string": [0] * 6,
                                  "seed": 1}}),
    ("reality.measure", {"reality": {"kind": "switch_at", "step": 2,
                                     "before": FAIR, "after": FAIR,
                                     "measure": FAIR}}),
    ("forecaster_I.measure.flor", {"forecaster_I": {
        "kind": "coherent", "measure": dict(FAIR, flor=1e-3)}}),
    ("forecaster_I.measure.weights", {"forecaster_I": {
        "kind": "coherent", "measure": dict(CHAIN, weights=[0.5, 0.5])}}),
    ("forecaster_I.measure.floor", {"forecaster_I": {
        "kind": "coherent", "measure": dict(LEARNER, floor=1e-3)}}),
    ("forecaster_I.measure.components[1].flor", {"forecaster_I": {
        "kind": "coherent", "measure": {
            "family": "mixture", "weights": [0.5, 0.5],
            "components": [FAIR, dict(FAIR, flor=1e-3)]}}}),
    ("reality.before.base.prior", {"reality": {
        "kind": "switch_at", "step": 2, "after": FAIR, "before": {
            "family": "conditioned", "prefix": [1],
            "base": dict(LEARNER, prior=2)}}}),
    ("reality.measure.weights", {"reality": {"kind": "sample", "measure": {
        "family": "conditioned", "prefix": [1], "base": CHAIN,
        "weights": [0.5, 0.5]}}}),
])
def test_config_refuses_unknown_keys(path, overrides):
    # a key that its level does not read would be silently dropped
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(path)}: unknown field$"):
        ExperimentConfig.from_dict(tiny_config(**overrides))


def test_config_load_rejects_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        ExperimentConfig.load("/nonexistent/path.json")


def test_config_load_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.load(str(bad))


def test_config_load_rejects_a_directory(tmp_path):
    with pytest.raises(ConfigError, match="Is a directory"):
        ExperimentConfig.load(str(tmp_path))


def test_config_load_rejects_an_unreadable_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config()))
    path.chmod(0)
    if os.access(path, os.R_OK):  # a superuser reads it all the same

        def denied(file, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", file)

        monkeypatch.setattr(harness, "open", denied, raising=False)
    with pytest.raises(ConfigError, match="Permission denied"):
        ExperimentConfig.load(str(path))


NON_FINITE_SPECS = {
    "iid": lambda x: {"family": "iid", "weights": [x, 0.5]},
    "beta_learner": lambda x: {"family": "beta_learner",
                               "pseudo_counts": [1.0, x]},
    "markov": lambda x: {"family": "markov",
                         "transition": [[0.5, 0.5], [x, 0.5]]},
    "mixture": lambda x: {"family": "mixture", "weights": [0.5, x],
                          "components": MARKOV_MIX_CHAINS},
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("family", sorted(NON_FINITE_SPECS))
def test_from_dict_names_the_path_of_a_non_finite_model_number(family, bad):
    # a config built in code escapes load's JSON check; the model refuses it
    spec = NON_FINITE_SPECS[family](bad)
    with pytest.raises(ConfigError,
                       match=r"^forecaster_II\.measure: .* must be finite"):
        ExperimentConfig.from_dict(tiny_config(forecaster_II=coherent(spec)))


def test_config_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes('{"T": 6, "caf\u00e9": 1}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="utf-8"):
        ExperimentConfig.load(str(path))


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

    def counted_advance(self, step):
        advances.append(step)
        return advance(self, step)

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


def test_one_settlement_advances_one_leg_per_side_for_a_cohort(monkeypatch):
    # fast-iid's pair at J = 10: component j = 1 answers m = 2 and the nine
    # others m = 1, so the book holds two legs a side where it held ten
    advanced = []
    advance = HedgeLeg.advance

    def counted_advance(self, step):
        advanced.append(self)
        return advance(self, step)

    monkeypatch.setattr(HedgeLeg, "advance", counted_advance)
    pair = ForecastPair(IID([0.9, 0.1]), IID([0.1, 0.9]))
    mix = MixtureSceptic(j_max=10, m_max=100)
    state = ProtocolState(pair.p_i.alphabet, pair)
    o_i, o_ii = mix.step_orders(pair)
    state.place_order("I", o_i)
    state.place_order("II", o_ii)
    assert [c.legs[0].horizon for c in mix.components] == [2] + [1] * 9
    state.settle_step(1, pair)
    mix.settle(state)
    assert len(advanced) == 4  # one per side per cohort, not one per component
    assert {id(leg) for leg in advanced} == {
        id(leg) for _, leg in o_i.legs + o_ii.legs}
    cohort = mix.components[1:]
    assert mix.components[0].holding and not any(c.holding for c in cohort)
    assert len({(c.cycles[-1].mult_i, c.cycles[-1].mult_ii) for c in cohort}) == 1


@pytest.mark.parametrize("name", sorted(catalog()))
def test_every_closed_cycle_multiplies_to_one_over_h_squared(name):
    # the paper's hedge: mult_I * mult_II = 1 / H_m^2 on every realized block;
    # the members of one cohort (one start step, one horizon) share the legs
    cfg = ExperimentConfig.load(name)
    cfg.t = min(cfg.t, 400)
    mix = MixtureSceptic(cfg.j_max, cfg.m_max, cfg.budget)
    play(cfg.forecasters(), mix, cfg.reality, cfg.t, cfg.budget)
    mults: dict = {}
    for comp in mix.components:
        for c in comp.cycles:
            assert c.mult_i * c.mult_ii * c.h_m ** 2 == pytest.approx(
                1.0, abs=1e-9)
            mults.setdefault((c.start_step, c.horizon), set()).add(
                (c.mult_i, c.mult_ii))
    assert mults and all(len(m) == 1 for m in mults.values())


MARKOV_MIX_CHAINS = [
    {"family": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]},
    {"family": "markov", "transition": [[0.4, 0.6], [0.6, 0.4]]}]


def test_fresh_mixture_posteriors_skip_the_generic_logsumexp(monkeypatch):
    # a mixture's type level sums its components' rows itself; and once the
    # horizon search settles, each step scores its two fresh posteriors at
    # most at two levels (the search's and the report's) of singular-pair's
    # large table (none once the pair shares an engine), and once each over
    # every level of markov-mix's small one
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
    # its live component alone, and each step's pair takes over the last
    # one's engine, which scores nothing anew; markov-mix's posteriors stay
    # mixed (its most concentrated log-weight gap over seeds 16-31 is -12.7)
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
    assert len(late) == 200 and sum(c[0] for c in late) == 0
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


MARKOV_MIX_ROUNDS = """
import json, sys
sys.path.insert(0, "perfbench")
import numpy as np
import workloads
from mergebet import harness, measures, metrics

count = {"fresh": 0, "h_exp": 0, "tv_exp": 0, "engines": 0}
where, exp = ["h_exp"], np.exp
type_log_probs = measures.Measure.type_log_probs
tv, init = metrics.HorizonProfile.tv, metrics.HorizonProfile.__init__

def scored(self, table, rows):  # a Markov row scoring its memo lacks
    count["fresh"] += isinstance(self, measures.Markov) and (
        (table.key, rows.start, rows.stop) not in self._memo)
    return type_log_probs(self, table, rows)

def counted_exp(x):
    count[where[0]] += 1
    return exp(x)

def counted_tv(self, m):
    where[0] = "tv_exp"
    try:
        return tv(self, m)
    finally:
        where[0] = "h_exp"

def built(self, *args):
    count["engines"] += 1
    init(self, *args)

measures.Measure.type_log_probs = scored
metrics.np = type("np", (), {"exp": staticmethod(counted_exp),
                             "__getattr__": lambda self, k: getattr(np, k)})()
metrics.HorizonProfile.tv, metrics.HorizonProfile.__init__ = counted_tv, built
rounds, csv = [], {}
for _ in range(int(sys.argv[1])):
    count.update(dict.fromkeys(count, 0))
    for op in workloads.build("markov-mix", 1):
        if op.label in sys.argv[2:]:
            trace = harness.run_experiment(harness.ExperimentConfig.from_dict(op.config))
            csv.setdefault(op.label, trace.to_csv())
    rounds.append(dict(count))
print(json.dumps({"rounds": rounds, "csv": csv}))
"""


def markov_mix_rounds(rounds: int, *labels: str) -> dict:
    """Rounds of perfbench's markov-mix workload at seed 1 (the operations
    named) in a fresh interpreter: per round, fresh Markov row scorings,
    np.exp calls of the metrics layer for H and for TV, and engine builds;
    and each operation's first trace."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", MARKOV_MIX_ROUNDS, str(rounds), *labels],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(src), env=dict(os.environ, PYTHONPATH=src))
    return json.loads(out.stdout.splitlines()[-1])


def test_equal_specs_are_parsed_and_scored_once_per_process():
    # both forecasters share two chains, which Reality samples too: once
    # parsed, each chain scores its three contexts' rows once per process
    # (192 fresh scorings a round when each seed parsed its own chains);
    # each engine takes one exp for all the H levels of its pass
    labels = [f"markov-mix@{s}" for s in range(16, 32)]
    warm = markov_mix_rounds(2, *labels)
    assert [r["fresh"] for r in warm["rounds"]] == [6, 0]
    for r in warm["rounds"]:
        assert r["h_exp"] == r["engines"] == 390 and r["tv_exp"] == 768
    # a game reads the same bits from a cold cache as after 15 other seeds
    cold = markov_mix_rounds(1, labels[-1])
    assert cold["csv"][labels[-1]] == warm["csv"][labels[-1]]


def test_a_spec_that_raises_is_not_kept():
    bad = {"family": "mixture", "weights": [0.5, 0.5],
           "components": [FAIR, {"family": "iid", "weights": [0.5, "x"]}]}
    for where in ("forecaster_I.measure", "reality.measure"):
        with pytest.raises(ConfigError, match=re.escape(
                f"{where}.components[1]")):
            measure_from_spec(bad, 2, where)
    assert measure_from_spec(FAIR, 2) is measure_from_spec(dict(FAIR), 2)
    with pytest.raises(ConfigError, match="alphabet 2 != 3"):  # keyed by it
        measure_from_spec(FAIR, 3)
    unencodable = {"family": "iid", "weights": np.array([0.5, 0.5])}
    assert measure_from_spec(unencodable, 2) is not measure_from_spec(unencodable, 2)


def test_type_scoring_does_not_depend_on_how_far_the_shared_table_grew(
        monkeypatch):
    # merge-beta's 153-row table at M_max = 16 is scored by one stacked
    # kernel call per fresh posterior pair (a learner's own type_log_probs
    # calls it too), whether or not another game grew it to level 64 before
    calls = [0]
    stacked = measures.BetaLearner.stacked_log_probs

    def counted(*args):
        calls[0] += 1
        return stacked(*args)

    def per_step():
        calls[0] = 0
        cfg = ExperimentConfig.load("merge-beta")
        cfg.t = 300
        run_experiment(cfg)
        return calls[0] / cfg.t

    monkeypatch.setattr(measures.BetaLearner, "stacked_log_probs",
                        staticmethod(counted))
    measures.type_table.cache_clear()  # as a fresh process: no test grew it
    assert per_step() == 1.0
    measures.type_table(2, 0, ()).reach(64, metrics.DEFAULT_BUDGET)
    assert per_step() == 1.0


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
         cfg.reality, cfg.t, cfg.budget, check)
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


@pytest.mark.parametrize("overrides", [
    {},
    {"reality": {"kind": "switch_at", "step": 12, "before": FAIR, "seed": 4,
                 "after": {"family": "iid", "weights": [0.8, 0.2]}}},
    {"forecaster_I": {"kind": "scripted", "measures": [
        {"family": "iid", "weights": [0.9, 0.1]},
        {"family": "iid", "weights": [0.2, 0.8]}]},
     "forecaster_II": {"kind": "coherent", "measure": LEARNER}},
])
def test_a_parsed_config_replays(overrides):
    # a game starts at n = 1, so a second run of one config is a fresh one
    d = tiny_config(T=40, sceptic={"J": 4, "M_max": 8}, seed=3, **overrides)
    cfg = ExperimentConfig.from_dict(d)
    first = run_experiment(cfg)
    assert sum(first.component_bets) > 0
    assert run_experiment(cfg).to_csv() == first.to_csv()
    assert run_experiment(ExperimentConfig.from_dict(d)).to_csv() == \
        first.to_csv()


def test_a_seed_set_on_a_parsed_config_reseeds_its_reality():
    # Reality is built at parse time; a new seed rebuilds it from its spec,
    # so the game is the one parsed with that seed
    cfg = ExperimentConfig.load("singular-pair")
    cfg.t = 300
    cfg.seed = 2
    d = dict(catalog()["singular-pair"], T=300)
    want = run_experiment(ExperimentConfig.from_dict(dict(d, seed=2))).to_csv()
    assert run_experiment(cfg).to_csv() == want
    assert want != run_experiment(ExperimentConfig.from_dict(d)).to_csv()
    with pytest.raises(ConfigError, match="seed"):
        cfg.seed = -1
    assert cfg.seed == 2 and run_experiment(cfg).to_csv() == want
    # dataclasses.replace builds a config anew, so its seed reseeds as well
    parsed = ExperimentConfig.load("singular-pair")
    parsed.t = 300
    again = dataclasses.replace(parsed, seed=2)
    assert again.reality is not parsed.reality
    assert run_experiment(again).to_csv() == want
    # a Reality that names its own seed, or scripts its string, keeps it
    own = {"kind": "switch_at", "step": 12, "before": FAIR, "seed": 4,
           "after": {"family": "iid", "weights": [0.8, 0.2]}}
    for reality in (own, {"kind": "scripted", "string": [0, 1] * 20}):
        d = tiny_config(T=40, sceptic={"J": 4, "M_max": 8}, seed=3,
                        reality=reality)
        cfg = ExperimentConfig.from_dict(d)
        cfg.seed = 5
        assert run_experiment(cfg).to_csv() == \
            run_experiment(ExperimentConfig.from_dict(d)).to_csv()


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


@pytest.mark.parametrize("name, t", [("diverge-iid", 400),
                                     ("incoherent-scripted", 200)])
def test_lim_wrap_rows_are_the_wrap_of_the_books_capital_bit_for_bit(name, t):
    # each row's capitals are a separate LimWrap fed ProtocolState.capital,
    # the one valuation, at each step; the mixture's orders are the same
    d = catalog()[name]
    d["T"] = t
    d["sceptic"] = dict(d["sceptic"], lim_wrap=True)
    cfg = ExperimentConfig.from_dict(d)
    wrapped = run_experiment(cfg)
    wrappers, want = (LimWrap(), LimWrap()), []

    def wrap(n, y, pair, state):
        want.append(tuple(math.log2(max(w.update(state.capital(side)), 1e-300))
                          for w, side in zip(wrappers, ("I", "II"))))

    play(cfg.forecasters(), MixtureSceptic(cfg.j_max, cfg.m_max, cfg.budget),
         cfg.reality, cfg.t, cfg.budget, wrap)
    assert [(r.log2_k1, r.log2_k2) for r in wrapped.rows] == want
    assert max(k for row in want for k in row) > 1.0  # some account froze


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
