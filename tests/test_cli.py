"""Command-line interface: subcommands, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mergebet
from mergebet.cli import cli, main
from mergebet.harness import TRACE_HEADER

from test_harness import FAIR, betting_config, tiny_config


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
    # side II's capital passes 2^1024 at step 1373 of seed 1
    cfg = write_config(tmp_path, betting_config(
        T=1500, sceptic={"J": 10, "M_max": 100}, m_report=8, seed=1))

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    out = tmp_path / "out"
    assert exit_code(["run", "--config", cfg, "--out", str(out)]) == 5
    assert len((out / "trace.csv").read_text().splitlines()) == 1501
    report = json.loads((out / "summary.json").read_text(),
                        parse_constant=refuse)
    assert report["nonfinite_step"] == 1373
    assert report["final_log2_k2"] is None
    assert report["growth_arm"] is None
    assert report["disjunction_satisfied"] is None
    out = tmp_path / "sweep"
    assert exit_code(["sweep", "--config", cfg, "--seeds", "1..2",
                      "--out", str(out)]) == 5
    assert sorted(f.name for f in out.iterdir()) == [
        "trace_seed1.csv", "trace_seed2.csv"]


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
])
def test_exit_code_config_error_on_bad_fields(tmp_path, overrides):
    cfg = write_config(tmp_path, tiny_config(**overrides))
    assert exit_code(["run", "--config", cfg,
                      "--out", str(tmp_path / "o")]) == 2


def test_exit_code_cromwell_violation(tmp_path):
    d = tiny_config()
    d["forecaster_I"] = {"kind": "coherent",
                         "measure": {"family": "iid", "weights": [1.0, 0.0]}}
    cfg = write_config(tmp_path, d)
    assert exit_code(["run", "--config", cfg,
                      "--out", str(tmp_path / "o")]) == 3


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
