"""Write the seed-1 trace files of a checkout, or compare two such trees.

Usage (from anywhere):

    python3 tools/trace_files.py ROOT OUT
    python3 tools/trace_files.py --compare OUT1 OUT2
    python3 tools/trace_files.py --digests ROOT

ROOT is the root of a mergebet checkout (its ``src/`` and ``perfbench/`` are
imported from there, so one copy of this script can trace two checkouts).
OUT receives 30 files of ``Trace.to_csv()``: ``catalog/<name>.csv`` for each
of the four catalog scenarios, ``catalog-lim-wrap/<name>.csv`` for the same
four with ``lim_wrap: true`` (so the wrapped capital columns are covered too),
and ``<workload>/<label>.csv`` for every operation that
``perfbench/workloads.build(workload, 1)`` returns. Two checkouts trace alike
when ``diff -r OUT1 OUT2`` prints nothing. Nothing is written under ROOT.

``--compare`` prints one line per file of either tree: whether every column
other than the three log2 capital columns is identical, and the largest
relative gap of those three read as capitals, |2^(b - a) - 1|, over the rows
before either side's first non-finite one (whose steps it also prints). It
exits 1 when a file is in one tree only or differs outside those columns.

``--digests`` writes ``DIGESTS`` (``tests/trace_digests.json``) under ROOT:
for each file its row count, a digest of the columns other than the capitals
and one of the three capital columns, with the Python and numpy versions
and the platform that traced them. ``tests/test_tools.py`` traces the files
in-process and compares them with it; a change that moves trace bytes on
purpose rewrites it with this flag and says which digests moved.
"""

import csv
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

CAPITALS = ("log2_k1", "log2_k2", "log2_geomean")
DIGESTS = Path("tests") / "trace_digests.json"


def traces(root: Path):
    """(name, ``Trace.to_csv()``) of each of the 30 files, traced in order by
    the ``mergebet`` and perfbench ``workloads`` of ROOT (or those already
    imported)."""
    for path in (root / "perfbench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
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
        yield f"{folder}/{label}.csv", run_experiment(
            ExperimentConfig.from_dict(cfg)).to_csv()


def main(root: Path, out: Path) -> int:
    sys.dont_write_bytecode = True  # leaves ROOT as it was
    for name, text in traces(root):
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(path)
    return 0


def digest(text: str) -> dict:
    """A trace file's row count and digests of its columns other than the
    capitals and of the capital columns, each over its rows in order."""
    header, *rows = text.splitlines()
    cap = [i for i, name in enumerate(header.split(",")) if name in CAPITALS]
    parts = [[], []]  # other columns, capitals
    for row in rows:
        cells = row.split(",")
        for j, part in enumerate(parts):
            part.append(",".join(c for i, c in enumerate(cells)
                                 if (i in cap) == bool(j)))
    return {"rows": len(rows), **{
        key: hashlib.sha256("\n".join(part).encode()).hexdigest()[:16]
        for key, part in zip(("other", "capitals"), parts)}}


def versions() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def digests(root: Path) -> dict:
    return {**versions(),
            "files": {name: digest(text) for name, text in traces(root)}}


def write_digests(root: Path) -> int:
    sys.dont_write_bytecode = True
    data = digests(root)
    (root / DIGESTS).write_text(json.dumps(data, indent=1) + "\n")
    print(root / DIGESTS)
    return 0


def _first_nonfinite(rows: list) -> int:
    """Index of the first row with a capital that is not finite, else len."""
    return next((i for i, r in enumerate(rows)
                 if not all(math.isfinite(float(r[c])) for c in CAPITALS)),
                len(rows))


def compare(out1: Path, out2: Path) -> int:
    names = sorted({p.relative_to(top) for top in (out1, out2)
                    for p in top.rglob("*.csv")})
    status = 0
    for name in names:
        if not ((out1 / name).is_file() and (out2 / name).is_file()):
            print(f"{name}: in one tree only")
            status = 1
            continue
        a, b = ([*csv.DictReader((top / name).read_text().splitlines())]
                for top in (out1, out2))
        same = len(a) == len(b) and all(
            {k: v for k, v in x.items() if k not in CAPITALS}
            == {k: v for k, v in y.items() if k not in CAPITALS}
            for x, y in zip(a, b))
        status |= not same
        bad_a, bad_b = _first_nonfinite(a), _first_nonfinite(b)
        rows = zip(a[:min(bad_a, bad_b)], b)
        gap = max((abs(math.expm1(math.log(2.0) * (float(y[c]) - float(x[c]))))
                   for x, y in rows for c in CAPITALS), default=0.0)
        steps = [r[bad]["n"] if bad < len(r) else "-"
                 for r, bad in ((a, bad_a), (b, bad_b))]
        print(f"{name}: other columns {'identical' if same else 'DIFFER'}; "
              f"capitals within {gap:.2g} relative; first non-finite step "
              f"{steps[0]} / {steps[1]}")
    return status


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(Path(args[1]), Path(args[2])))
    if len(args) == 2 and args[0] == "--digests":
        sys.exit(write_digests(Path(args[1]).resolve()))
    if len(args) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(args[0]).resolve(), Path(args[1]).resolve()))
