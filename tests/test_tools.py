"""The tools: `trace_files.py --compare` on two small trace trees, the 30
trace files against their committed digests, and `paired_bench.py`'s summary
of canned runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from mergebet.harness import TRACE_HEADER

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_files.py"


def write_tree(top: Path, files: dict) -> Path:
    for name, rows in files.items():
        path = top / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join([TRACE_HEADER, *rows]) + "\n")
    return top


def compare(a: Path, b: Path):
    out = subprocess.run([sys.executable, str(TOOL), "--compare", str(a),
                          str(b)], capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


ROWS = ["1,0,0.9,0.1,1,2,1.5,3,1", "2,1,0.8,0.2,3,4,3.5,3,0",
        "3,1,0.7,0.3,5,6,5.5,3,0"]


def test_compare_reads_capital_gaps_up_to_the_first_nonfinite_row(tmp_path):
    moved = ["1,0,0.9,0.1,1,2,1.5,3,1", "2,1,0.8,0.2,3,5,4,3,0",
             "3,1,0.7,0.3,nan,6,nan,3,0"]
    a = write_tree(tmp_path / "a", {"catalog/x.csv": ROWS, "y/z.csv": ROWS})
    b = write_tree(tmp_path / "b", {"catalog/x.csv": moved, "y/z.csv": ROWS})
    code, lines = compare(a, b)
    assert code == 0
    # log2_k2 moved by 1 at step 2: a relative gap of 2^1 - 1 as capitals;
    # step 3, the first non-finite row of b, is not compared
    assert lines == [
        "catalog/x.csv: other columns identical; capitals within 1 relative; "
        "first non-finite step - / 3",
        "y/z.csv: other columns identical; capitals within 0 relative; "
        "first non-finite step - / -"]


def test_compare_exits_1_when_another_column_or_a_file_differs(tmp_path):
    a = write_tree(tmp_path / "a", {"x.csv": ROWS})
    bet = write_tree(tmp_path / "bet", {"x.csv": ROWS[:2] + [
        "3,1,0.7,0.3,5,6,5.5,3,1"]})
    short = write_tree(tmp_path / "short", {"x.csv": ROWS[:2]})
    extra = write_tree(tmp_path / "extra", {"x.csv": ROWS, "w.csv": ROWS})
    assert compare(a, bet) == (1, [
        "x.csv: other columns DIFFER; capitals within 0 relative; "
        "first non-finite step - / -"])
    assert compare(a, short)[0] == 1
    code, lines = compare(a, extra)
    assert code == 1 and lines[0] == "w.csv: in one tree only"


def tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOL.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paired_bench():
    return tool("paired_bench")


def test_the_30_trace_files_match_their_committed_digests():
    # every byte of the 30 files of trace_files.py, as traced in this process;
    # a change that moves some on purpose rewrites the digests (--digests)
    traces, root = tool("trace_files"), TOOL.parents[1]
    want, have = json.loads((root / traces.DIGESTS).read_text()), traces.versions()
    assert [have["python"], have["numpy"]] == [want["python"], want["numpy"]], (
        f"{traces.DIGESTS} was traced by Python {want['python']} and numpy "
        f"{want['numpy']}; this is Python {have['python']} and numpy "
        f"{have['numpy']}: rewrite it with --digests on the parent commit")
    got = {name: traces.digest(text) for name, text in traces.traces(root)}
    moved = [f"{name}: {key}" for name in sorted(want["files"].keys() | got.keys())
             for key in ("rows", "other", "capitals")
             if got.get(name, {}).get(key) != want["files"].get(name, {}).get(key)]
    assert not moved, "traces moved from their digests:\n" + "\n".join(moved)


def test_paired_bench_summarizes_pairs_and_quartiles():
    def run(pair, side, step_us, setup_s, failed=0):
        return {"pair": pair, "side": side, "step_us": step_us,
                "setup_s": setup_s, "peak_rss_mb": 50.0, "attempted": 4,
                "failed": failed, "correct": True, "exit": 0}

    runs = [run(1, "parent", 100.0, 0.2), run(1, "change", 90.0, 0.3),
            run(2, "change", 80.0, 0.2), run(2, "parent", 110.0, 0.2, 2),
            run(3, "parent", 120.0, 0.1), run(3, "change", 120.0, 0.1),
            run(4, "parent", 130.0, 0.4), run(4, "change", 70.0, 0.5),
            run(5, "parent", 90.0, 0.3)]  # a pair left unfinished
    bench = paired_bench()
    limits = bench.bounds()  # read from BENCHMARK.json
    assert limits == {"step_us": (0.25, "lower"), "setup_s": (0.25, "lower"),
                      "peak_rss_mb": (0.05, "lower")}
    out = bench.summarize(runs, limits)
    parent, change = out["summary"]["parent"], out["summary"]["change"]
    assert parent["step_us"] == {"median": 110.0, "q1": 100.0, "q3": 120.0}
    assert change["step_us"] == {"median": 85.0, "q1": 77.5, "q3": 97.5}
    assert parent["runs"] == 5 and change["runs"] == 4
    assert parent["bad_runs"] == change["bad_runs"] == []
    assert parent["failed_share"] == [0.0, 0.5] and change["failed_share"] == [0.0]
    # a tie counts for neither side; only whole pairs count
    assert out["change_step_us_lower_in_pairs"] == "3/4"
    assert out["change_setup_s_lower_in_pairs"] == "0/4"
    assert out["change_peak_rss_mb_lower_in_pairs"] == "0/4"
    assert out["step_us_median_change"] == "-22.7%"
    assert out["step_us_gap_vs_parent_iqr"] == [25.0, 20.0]
    assert out["peak_rss_mb_median_change"] == "+0.0%"
    assert out["runs"] == runs
    # every metric gets the same verdict: setup_s's median rose 0.2 -> 0.25
    # against a parent IQR of 0.1, within a bound of 0.5 but not of 0.1
    assert out["setup_s_median_change"] == "+25.0%"
    assert out["setup_s_gap_vs_parent_iqr"] == [-0.05, 0.1]
    assert out["peak_rss_mb_gap_vs_parent_iqr"] == [0.0, 0.0]
    assert out["step_us_worse_than_bound"] is False
    assert out["peak_rss_mb_worse_than_bound"] is False
    for bound, worse in ((0.5, False), (0.1, True)):
        out = bench.summarize(runs, dict(limits, setup_s=(bound, "lower")))
        assert out["setup_s_worse_than_bound"] is worse
    # a metric whose higher reading is better is worse when it falls
    out = bench.summarize(runs, dict(limits, step_us=(0.1, "higher")))
    assert out["step_us_worse_than_bound"] is True
    one = bench.summarize(runs[:2], limits)["summary"]["parent"]["step_us"]
    assert one == {"median": 100.0, "q1": 100.0, "q3": 100.0}


def test_paired_bench_names_each_bad_run_per_side_and_exits_1(monkeypatch):
    # a run is bad when perfbench exited nonzero or its checks failed;
    # failed operations alone (a known fault) do not make a run bad
    def run(pair, side, exit=0, correct=True, failed=0):
        return {"pair": pair, "side": side, "step_us": 100.0 + pair,
                "setup_s": 0.2, "peak_rss_mb": 50.0, "attempted": 4,
                "failed": failed, "correct": correct, "exit": exit}

    runs = [run(1, "parent", failed=2), run(1, "change", 1, False),
            run(2, "change"), run(2, "parent", exit=1),
            run(3, "parent", correct=False), run(3, "change")]
    bench = paired_bench()
    out = bench.summarize(runs, bench.bounds())
    assert out["summary"]["parent"]["bad_runs"] == [
        "pair 2: exit 1, correct true", "pair 3: exit 0, correct false"]
    assert out["summary"]["change"]["bad_runs"] == [
        "pair 1: exit 1, correct false"]
    assert out["summary"]["parent"]["failed_share"] == [0.0, 0.5]

    def main(canned):
        it = iter(canned)
        monkeypatch.setattr(bench, "run_once", lambda root, w, seed: {
            k: v for k, v in next(it).items() if k not in ("pair", "side")})
        monkeypatch.setattr(sys, "argv", ["paired_bench.py", "a", "b",
                                          "--workload", "w", "--pairs", "1"])
        return bench.main()

    assert main([run(1, "parent", failed=2), run(1, "change")]) == 0
    assert main([run(1, "parent"), run(1, "change", correct=False)]) == 1
    assert main([run(1, "parent", exit=1), run(1, "change")]) == 1
