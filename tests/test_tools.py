"""``tools/trace_files.py --compare`` on two small trace trees."""

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
