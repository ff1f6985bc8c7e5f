"""Write the seed-1 trace files of a checkout, for a byte-for-byte diff.

Usage (from anywhere):

    python3 tools/trace_files.py ROOT OUT

ROOT is the root of a mergebet checkout (its ``src/`` and ``perfbench/`` are
imported from there, so one copy of this script can trace two checkouts).
OUT receives 30 files of ``Trace.to_csv()``: ``catalog/<name>.csv`` for each
of the four catalog scenarios, ``catalog-lim-wrap/<name>.csv`` for the same
four with ``lim_wrap: true`` (so the wrapped capital columns are covered too),
and ``<workload>/<label>.csv`` for every operation that
``perfbench/workloads.build(workload, 1)`` returns. Two checkouts trace alike
when ``diff -r OUT1 OUT2`` prints nothing. Nothing is written under ROOT.
"""

import sys
from pathlib import Path


def main(root: Path, out: Path) -> int:
    sys.dont_write_bytecode = True  # leaves ROOT as it was
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from mergebet.harness import ExperimentConfig, run_experiment
    from mergebet.scenarios import catalog
    from workloads import NAMES, build

    runs = [("catalog", name, cfg) for name, cfg in catalog().items()]
    runs += [("catalog-lim-wrap", name,
              dict(cfg, sceptic=dict(cfg["sceptic"], lim_wrap=True)))
             for name, cfg in catalog().items()]
    runs += [(workload, op.label, op.config)
             for workload in NAMES for op in build(workload, 1)]
    for folder, label, cfg in runs:
        path = out / folder / f"{label}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        run_experiment(ExperimentConfig.from_dict(cfg)).write_csv(path)
        print(path)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
