"""Command-line interface: subcommands, outputs, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mergebet
from mergebet.cli import cli, main
from mergebet.harness import TRACE_HEADER, ExperimentConfig
from mergebet.scenarios import catalog

from test_harness import FAIR, MARKOV_MIX_CHAINS, betting_config, tiny_config


def write_config(tmp_path, d, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def exit_code(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


# -- scenarios ----------------------------------------------------------------


def test_scenarios_list():
    result = CliRunner().invoke(cli, ["scenarios", "--list"])
    assert result.exit_code == 0
    names = result.output.split()
    assert names == ["diverge-iid", "incoherent-scripted", "merge-beta",
                     "singular-pair"]


# -- run -----------------------------------------------------------------------


def test_run_writes_trace_and_summary(tmp_path):
    cfg = write_config(tmp_path, betting_config(T=20))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli, ["run", "--config", cfg,
                                      "--out", str(out)])
    assert result.exit_code == 0
    trace = (out / "trace.csv").read_text()
    assert trace.splitlines()[0] == TRACE_HEADER
    assert len(trace.splitlines()) == 21
    report = json.loads((out / "summary.json").read_text())
    assert report["steps"] == 20
    assert "disjunction_satisfied" in report


def test_a_capital_past_floats_exits_5_with_strict_json(tmp_path):
    # side II's capital passes 2^1024 at step 1377 of seed 1
    cfg = write_config(tmp_path, betting_config(
        T=1500, sceptic={"J": 10, "M_max": 100}, m_report=8, seed=1))

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    out = tmp_path / "out"
    assert exit_code(["run", "--config", cfg, "--out", str(out)]) == 5
    assert len((out / "trace.csv").read_text().splitlines()) == 1501
    report = json.loads((out / "summary.json").read_text(),
                        parse_constant=refuse)
    assert report["nonfinite_step"] == 1377
    assert report["final_log2_k2"] is None
    assert report["growth_arm"] is None
    assert report["disjunction_satisfied"] is None
    out = tmp_path / "sweep"
    assert exit_code(["sweep", "--config", cfg, "--seeds", "1..2",
                      "--out", str(out)]) == 5
    assert sorted(f.name for f in out.iterdir()) == [
        "trace_seed1.csv", "trace_seed2.csv"]


def test_a_mark_that_overflows_its_sum_exits_5_with_every_file(tmp_path):
    # diverge-iid's side II marks finite legs whose sum passes 2^1024 at step
    # 34282: the sum reads inf (math.fsum raised OverflowError, exit 1)
    cfg = write_config(tmp_path, dict(catalog()["diverge-iid"], T=36000))
    out = tmp_path / "out"
    assert exit_code(["run", "--config", cfg, "--out", str(out)]) == 5
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 36000
    first = next(int(r.split(",")[0]) for r in rows if not all(
        math.isfinite(float(v)) for v in r.split(",")[4:7]))
    report = json.loads((out / "summary.json").read_text())
    assert report["nonfinite_step"] == first == 34282
    assert report["final_log2_k2"] is None and report["steps"] == 36000


def test_run_reproducible(tmp_path):
    cfg = write_config(tmp_path, betting_config(T=25, seed=9))
    runner = CliRunner()
    runner.invoke(cli, ["run", "--config", cfg, "--out", str(tmp_path / "a")])
    runner.invoke(cli, ["run", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


def test_run_accepts_scenario_name(tmp_path):
    result = CliRunner().invoke(cli, ["run", "--config", "incoherent-scripted",
                                      "--out", str(tmp_path / "o")])
    assert result.exit_code == 0
    assert (tmp_path / "o" / "trace.csv").exists()


# -- sweep ---------------------------------------------------------------------


def test_sweep_one_file_per_seed(tmp_path):
    cfg = write_config(tmp_path, betting_config(T=10))
    out = tmp_path / "sweep"
    result = CliRunner().invoke(cli, ["sweep", "--config", cfg,
                                      "--seeds", "0..3", "--out", str(out)])
    assert result.exit_code == 0
    for seed in range(4):
        assert (out / f"trace_seed{seed}.csv").exists()


@pytest.mark.parametrize("seeds", ["zero-two", "5..3"])
def test_sweep_bad_seed_range(tmp_path, seeds):
    cfg = write_config(tmp_path, tiny_config())
    assert exit_code(["sweep", "--config", cfg, "--seeds", seeds,
                      "--out", str(tmp_path / "x")]) == 2


# -- oracle --------------------------------------------------------------------


def test_oracle_martingale_ok(tmp_path):
    cfg = write_config(tmp_path, betting_config())
    result = CliRunner().invoke(cli, ["oracle", "--check", "martingale",
                                      "--config", cfg])
    assert result.exit_code == 0
    assert "E[K_I]" in result.output and "ok" in result.output


def test_oracle_metrics_ok(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    result = CliRunner().invoke(cli, ["oracle", "--check", "metrics",
                                      "--config", cfg])
    assert result.exit_code == 0
    assert "ok" in result.output


def test_oracle_accounting_ok(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    result = CliRunner().invoke(cli, ["oracle", "--check", "accounting",
                                      "--config", cfg])
    assert result.exit_code == 0


# -- exit codes ----------------------------------------------------------------


def test_exit_code_config_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert exit_code(["run", "--config", missing,
                      "--out", str(tmp_path / "o")]) == 2
    bad = write_config(tmp_path, {"alphabet_size": 2}, "bad.json")
    assert exit_code(["run", "--config", bad,
                      "--out", str(tmp_path / "o")]) == 2
    assert exit_code(["run", "--config", str(tmp_path),
                      "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("overrides", [
    {"m_report": -1},
    {"budget": 0},
    {"seed": -1},
    {"seed": "one"},
    {"sceptic": {"J": 3, "lim_wrap": "false"}},
    {"reality": {"kind": "sample", "measure": FAIR, "seed": 0.5}},
    {"reality": {"kind": "switch_at", "before": FAIR, "after": FAIR}},
    {"reality": {"kind": "switch_at", "step": "x", "before": FAIR,
                 "after": FAIR}},
    {"forecaster_I": {"kind": "coherent", "measure": {
        "family": "conditioned", "base": FAIR, "prefix": [0.9, 1.2]}}},
    {"Tee": 6},
])
def test_exit_code_config_error_on_bad_fields(tmp_path, overrides):
    cfg = write_config(tmp_path, tiny_config(**overrides))
    assert exit_code(["run", "--config", cfg,
                      "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]])
def test_exit_code_2_when_out_names_a_file(tmp_path, command):
    cfg = write_config(tmp_path, tiny_config())
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert exit_code([*command, "--config", cfg, "--out", str(taken)]) == 2
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]])
def test_exit_code_2_before_step_1_when_out_lies_below_a_file(
        tmp_path, monkeypatch, command):
    def never(cfg):
        raise AssertionError("the experiment ran before --out was made")

    monkeypatch.setattr("mergebet.cli.run_experiment", never)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert exit_code([*command, "--config", "incoherent-scripted",
                      "--out", str(taken / "sub")]) == 2
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "1..2"]])
def test_exit_code_2_before_step_1_when_out_cannot_be_written(
        tmp_path, monkeypatch, capsys, command):
    def never(cfg):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr("mergebet.cli.run_experiment", never)
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    if os.access(locked, os.W_OK):  # a superuser writes it all the same
        access = os.access

        def denied(path, mode, **kwargs):
            if Path(path) == locked and mode & os.W_OK:
                return False
            return access(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", denied)
    try:
        assert exit_code([*command, "--config", "incoherent-scripted",
                          "--out", str(locked)]) == 2
    finally:
        locked.chmod(0o700)
    assert "is not writable" in capsys.readouterr().err
    assert not any(locked.iterdir())


def test_sweep_exits_2_for_a_non_finite_number_in_a_per_seed_config(
        tmp_path, monkeypatch, capsys):
    # each seed's config is parsed again from the loaded dict; a non-finite
    # number in it (one built in code, as load refuses it in a file) exits 2
    raw = tiny_config(forecaster_I={"kind": "coherent", "measure": {
        "family": "iid", "weights": [float("inf"), 0.5]}})
    monkeypatch.setattr(ExperimentConfig, "load",
                        staticmethod(lambda path: SimpleNamespace(raw=raw)))
    assert exit_code(["sweep", "--config", "any", "--seeds", "1..2",
                      "--out", str(tmp_path / "out")]) == 2
    assert "forecaster_I.measure: weights must be finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("where, literal, message", [
    ("weights", "NaN", "non-finite number NaN"),
    ("weights", "Infinity", "non-finite number Infinity"),
    ("weights", "1e999", "non-finite number 1e999"),
    ("weights", "1" + "0" * 400, "too large to convert to float"),
    ("pseudo_counts", "-Infinity", "non-finite number -Infinity"),
    ("pseudo_counts", "1e999", "non-finite number 1e999"),
])
def test_exit_code_2_for_a_non_finite_config_number(tmp_path, capsys, where,
                                                      literal, message):
    # json reads NaN and Infinity, 1e999 as inf, and 10^400 as an int that
    # no float holds; a config refuses them all
    measure = ({"family": "iid", "weights": ["@", 0.5]} if where == "weights"
               else {"family": "beta_learner", "pseudo_counts": ["@", 1.0]})
    text = json.dumps(tiny_config(forecaster_I={"kind": "coherent",
                                                "measure": measure}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"@"', literal))
    assert exit_code(["run", "--config", str(cfg),
                      "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_exit_code_cromwell_violation(tmp_path):
    d = tiny_config()
    d["forecaster_I"] = {"kind": "coherent",
                         "measure": {"family": "iid", "weights": [1.0, 0.0]}}
    cfg = write_config(tmp_path, d)
    assert exit_code(["run", "--config", cfg,
                      "--out", str(tmp_path / "o")]) == 3


def subnormal(name):
    # the smallest subnormal float as one model number: a one-step law that
    # rounds to 0 (merge-beta, step 3) or a ratio that overflows (diverge-iid)
    d = catalog()[name]
    d["T"] = 5
    measure = d["forecaster_I"]["measure"]
    if "weights" in measure:
        measure["weights"] = [5e-324, 1.0]
    else:
        measure["pseudo_counts"] = [5e-324, 0.5]
    return d


@pytest.mark.parametrize("name", ["merge-beta", "diverge-iid"])
def test_a_subnormal_model_number_exits_3_before_step_1(tmp_path, monkeypatch,
                                                         capsys, name):
    def never(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("mergebet.cli.run_experiment", never)
    out = tmp_path / "o"
    assert exit_code(["run", "--config", write_config(tmp_path, subnormal(name)),
                      "--out", str(out)]) == 3
    assert "must be at least 2.2250738585072014e-308" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("measure, law", [
    ({"family": "markov", "transition": 0.5}, "transition"),
    ({"family": "beta_learner", "pseudo_counts": 1.0}, "pseudo-counts"),
    ({"family": "beta_learner", "pseudo_counts": [[1.0, 1.0]]}, "pseudo-counts")])
def test_a_law_of_the_wrong_shape_exits_2_before_step_1(tmp_path, monkeypatch,
                                                        capsys, measure, law):
    def never(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("mergebet.cli.run_experiment", never)
    d = catalog()["merge-beta"]
    d["T"], d["forecaster_I"]["measure"] = 3, measure
    out = tmp_path / "o"
    assert exit_code(["run", "--config", write_config(tmp_path, d),
                      "--out", str(out)]) == 2
    assert f"forecaster_I.measure: {law} must have shape" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_the_smallest_normal_model_number_parses():
    tiny = sys.float_info.min
    for name in ("merge-beta", "diverge-iid"):
        d = subnormal(name)
        measure = d["forecaster_I"]["measure"]
        measure["weights" if "weights" in measure else "pseudo_counts"][0] = tiny
        ExperimentConfig.from_dict(d)


def test_exit_code_budget_exceeded(tmp_path):
    cfg = write_config(tmp_path, tiny_config(T=30))
    assert exit_code(["oracle", "--check", "martingale",
                      "--config", cfg]) == 4


def test_exit_code_budget_exceeded_for_an_untyped_report_pair(tmp_path):
    # this budget affords the pair's type table to m = 2 and the walk to
    # m = 4, so a report row at m = 5 exceeds it
    learner = {"family": "conditioned", "prefix": [1],
               "base": {"family": "beta_learner", "pseudo_counts": [1, 1]}}
    d = tiny_config(m_report=5, budget=2 ** 4)
    d["forecaster_I"] = {"kind": "coherent", "measure": learner}
    cfg = write_config(tmp_path, d)
    assert exit_code(["run", "--config", cfg,
                      "--out", str(tmp_path / "o")]) == 4


def test_exit_code_missing_option():
    assert exit_code(["run"]) == 2


# -- config fuzzing ------------------------------------------------------------

#: what a mutation puts in: out-of-range and non-finite numbers, a value of
#: every JSON type, and nested garbage
NUMBERS = st.sampled_from([-1, 0, -0.5, 0.5, 1.5, 2, 3, 1e308, -1e308,
                           5e-324, 10 ** 400, math.nan, math.inf, -math.inf])
LEAVES = st.one_of(NUMBERS, st.none(), st.booleans(), st.integers(-5, 5),
                   st.floats(), st.text(max_size=3))
NAMES = st.sampled_from(["family", "kind", "weights", "measure", "components",
                         "string", "seed", "J", "T", "x"])
GARBAGE = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(NAMES, inner, max_size=3)),
    max_leaves=6)
#: the fields whose size sets a run's cost, at most the value a fuzzed run
#: takes: T <= 5 steps, and the catalog's largest J, M_max and m_report
COSTS = {("T",): 5, ("sceptic", "J"): 20, ("sceptic", "M_max"): 100,
         ("m_report",): 8}


#: a seed besides the catalog's, whose configs hold neither a Markov chain nor
#: a conditioned measure: perfbench markov-mix's mixtures of two chains, one
#: announced after a prefix
MARKOV_MIX = tiny_config(
    T=5, sceptic={"J": 8, "M_max": 8}, m_report=6,
    forecaster_I={"kind": "coherent", "measure": {
        "family": "mixture", "weights": [0.5, 0.5],
        "components": MARKOV_MIX_CHAINS}},
    forecaster_II={"kind": "coherent", "measure": {
        "family": "conditioned", "prefix": [1, 0], "base": {
            "family": "mixture", "weights": [0.9, 0.1],
            "components": MARKOV_MIX_CHAINS}}},
    reality={"kind": "sample", "measure": MARKOV_MIX_CHAINS[0]})


def places(node, path=()):
    """The path of every object, list and value in a config."""
    yield path
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from places(v, path + (k,))


def at(node, path):
    for k in path:
        node = node[k]
    return node


@st.composite
def mutated_configs(draw):
    """A catalog config, or MARKOV_MIX, with one to three keys dropped,
    added or retyped, anywhere; then no larger than COSTS."""
    seeds = {**catalog(), "markov-mix": MARKOV_MIX}
    name = draw(st.sampled_from(sorted(seeds)))
    cfg = json.loads(json.dumps(seeds[name]))  # no shared objects
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(places(cfg))))
        node, op = at(cfg, path), draw(st.sampled_from(["drop", "add", "set"]))
        if op == "add" and isinstance(node, dict):
            node[draw(NAMES)] = draw(GARBAGE)
        elif op == "add" and isinstance(node, list):
            node.append(draw(GARBAGE))
        elif op == "drop" and path:
            del at(cfg, path[:-1])[path[-1]]
        elif path:
            at(cfg, path[:-1])[path[-1]] = draw(GARBAGE)
        else:
            cfg = draw(GARBAGE)
    for path, cap in COSTS.items():
        try:
            v = at(cfg, path)
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(v, int) and not isinstance(v, bool) and v > cap:
            at(cfg, path[:-1])[path[-1]] = cap
    return cfg


def outcome(config: str, out: str):
    """Exit code, error output and trace of one ``mergebet run``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = exit_code(["run", "--config", config, "--out", out])
    trace = Path(out, "trace.csv")
    return code, err.getvalue(), trace.read_text() if trace.exists() else None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mutated_configs())
def test_a_mutated_config_exits_with_a_documented_code(cfg):
    # no traceback; and a second run in the same process ends the same way,
    # so the parse cache keeps no failed parse and hides no sibling's error
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        first = outcome(path, os.path.join(tmp, "a"))
        assert first[0] in (0, 2, 3, 4, 5), first
        assert outcome(path, os.path.join(tmp, "b")) == first


# -- start-up ------------------------------------------------------------------


def test_cli_import_leaves_scipy_unloaded():
    # scipy is no runtime dependency: a fresh interpreter must not load it
    src = str(Path(mergebet.__file__).resolve().parents[1])
    code = ("import sys, mergebet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
