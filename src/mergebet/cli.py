"""Command-line interface.

Subcommands: ``run`` a single experiment, ``sweep`` over seeds, ``oracle``
checks (martingale / metrics / accounting), and ``scenarios --list``.
Exit codes: 0 success, 1 check failed, 2 config error, 3 Cromwell violation,
4 enumeration budget exceeded, 5 a capital not finite (every file written).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .errors import BudgetExceeded, ConfigError, CromwellViolation, MergebetError
from .harness import (ExperimentConfig, incremental_capitals, oracle_expect_capital,
                      oracle_metrics, play, run_experiment, summarize)
from .metrics import hellinger_restricted, tv_restricted
from .protocol import BetOrder
from .scenarios import catalog


@click.group()
def cli():
    """Simulator of the two-forecaster betting protocol."""


@cli.command()
@click.option("--config", required=True,
              help="Path to a JSON config, or a shipped scenario name.")
@click.option("--out", required=True, type=click.Path(),
              help="Output directory for trace.csv and summary.json.")
def run(config, out):
    """Run one experiment and write its trace and summary."""
    cfg = ExperimentConfig.load(config)
    trace = run_experiment(cfg)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.write_csv(outdir / "trace.csv")
    report = summarize(trace) if len(trace) else {"steps": 0}
    with open(outdir / "summary.json", "w") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
    click.echo(json.dumps(report, indent=2))
    sys.exit(5 if report.get("nonfinite_step") else 0)


@cli.command()
@click.option("--config", required=True)
@click.option("--seeds", required=True,
              help="Inclusive seed range, e.g. 0..99.")
@click.option("--out", required=True, type=click.Path())
def sweep(config, seeds, out):
    """Run one experiment per seed; one trace file per run."""
    cfg = ExperimentConfig.load(config)
    try:
        lo, hi = (int(s) for s in seeds.split(".."))
        if lo > hi:
            raise ValueError("empty range")
    except ValueError:
        raise ConfigError(f"--seeds must be a range a..b, a <= b: {seeds!r}")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    broken = 0  # runs with a capital that is not finite
    for seed in range(lo, hi + 1):
        d = dict(cfg.raw)
        d["seed"] = seed
        run_cfg = ExperimentConfig.from_dict(d)
        trace = run_experiment(run_cfg)
        trace.write_csv(outdir / f"trace_seed{seed}.csv")
        report = summarize(trace) if len(trace) else {"steps": 0}
        click.echo(f"seed {seed}: {json.dumps(report)}")
        broken += report.get("nonfinite_step") is not None
    sys.exit(5 if broken else 0)


@cli.command()
@click.option("--check", "check", required=True,
              type=click.Choice(["martingale", "metrics", "accounting"]))
@click.option("--config", required=True)
def oracle(check, config):
    """Run a brute-force consistency check against the given config."""
    cfg = ExperimentConfig.load(config)
    if check == "martingale":
        ok = True
        for side in ("I", "II"):
            e = oracle_expect_capital(cfg, side)
            line_ok = abs(e - 1.0) <= 1e-9
            ok = ok and line_ok
            click.echo(f"E[K_{side}] = {e:.12f}  "
                       f"{'ok' if line_ok else 'FAIL'}")
        sys.exit(0 if ok else 1)
    if check == "metrics":
        p = cfg.forecaster_i.measure if cfg.forecaster_i.kind == "coherent" \
            else cfg.forecaster_i.measures[0]
        q = cfg.forecaster_ii.measure if cfg.forecaster_ii.kind == "coherent" \
            else cfg.forecaster_ii.measures[0]
        m = min(cfg.m_report, 8)
        h_o, tv_o, sup_tv = oracle_metrics(p, q, m)
        h = hellinger_restricted(p, q, m, budget=cfg.budget)
        tv = tv_restricted(p, q, m, cfg.budget)
        ok = abs(h - h_o) <= 1e-12 and abs(tv - tv_o) <= 1e-12
        if sup_tv is not None:
            ok = ok and abs(sup_tv - tv_o) <= 1e-12
        click.echo(f"H_{m}: fast {h:.15f} oracle {h_o:.15f}")
        click.echo(f"TV_{m}: fast {tv:.15f} oracle {tv_o:.15f} "
                   f"sup-form {sup_tv if sup_tv is not None else 'n/a'}")
        click.echo("ok" if ok else "FAIL")
        sys.exit(0 if ok else 1)
    # accounting: fuzz the engine against the incremental capital lines
    rng = np.random.default_rng(cfg.seed)
    t = min(cfg.t, 6)
    worst = 0.0
    for trial in range(100):
        fuzz = _RandomPlay(rng, cfg.alphabet_size)
        pairs, outcomes = [], []

        def seen(n, y, pair, state):
            pairs.append(pair)
            outcomes.append(y)

        state = play(cfg.forecasters(), fuzz, fuzz, t, on_step=seen)
        ref = incremental_capitals(pairs + [state.forecasts], fuzz.orders,
                                   outcomes)[-1]
        worst = max(worst, abs(state.capital("I") - ref[0]),
                    abs(state.capital("II") - ref[1]))
    click.echo(f"max |engine - incremental| over 100 fuzzed runs: {worst:.3e}")
    sys.exit(0 if worst <= 1e-9 else 1)


class _RandomPlay:
    """Sceptic and Reality of the accounting fuzz: random explicit stakes for
    both sides, recorded for the incremental oracle, and random symbols."""

    def __init__(self, rng, a: int):
        self.rng, self.a = rng, a
        self.orders = []

    def step_orders(self, pair):
        step = []
        for _side in ("I", "II"):
            stakes = {}
            for _ in range(self.rng.integers(0, 4)):
                ln = int(self.rng.integers(1, 4))
                x = tuple(int(s) for s in self.rng.integers(0, self.a, size=ln))
                stakes[x] = stakes.get(x, 0.0) + float(self.rng.uniform(0, 2))
            step.append(stakes)
        self.orders.append(tuple(step))
        return BetOrder(dict(step[0])), BetOrder(dict(step[1]))

    def settle(self, y):
        pass

    def next(self, n, history):
        return int(self.rng.integers(0, self.a))


@cli.command()
@click.option("--list", "list_", is_flag=True, required=True)
def scenarios(list_):
    """List the shipped scenario names."""
    for name in sorted(catalog()):
        click.echo(name)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except click.ClickException as e:
        e.show()
        sys.exit(2)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    except CromwellViolation as e:
        click.echo(f"Cromwell violation: {e}", err=True)
        sys.exit(3)
    except BudgetExceeded as e:
        click.echo(f"budget exceeded: {e}", err=True)
        sys.exit(4)
    except MergebetError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
