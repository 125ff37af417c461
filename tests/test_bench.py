"""`tests/bench.py`: one rep of one small case against a copy of its
own tree writes a record of the documented shape and no bytecode into
either tree, and the verdict follows its rule on synthetic runs.  No
timing is read."""
import json

import pytest

from bench import CASES, METRICS, ROOT, main, verdict
from compare_trees import launch_env
from test_compare_trees import src_files


def test_one_rep_against_its_own_tree_writes_the_record(tmp_path,
                                                        monkeypatch):
    """Against a clean copy of this tree, the record has the documented
    shape, and no bytecode is written into either tree, though the
    caller allows it."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    copy = tmp_path / "copy"
    launch_env(ROOT, copy / "src")
    before = src_files(ROOT)
    out = tmp_path / "bench.json"
    assert main(["--against", str(copy), "--reps", "1", "--out", str(out),
                 "--cases", "certify-demo-s4-fail"]) == 0
    assert not list((copy / "src").rglob("__pycache__"))
    assert src_files(ROOT) == before
    record = json.loads(out.read_text())
    assert set(record) == {"machine", "python", "trees", "reps", "cases"}
    assert record["reps"] == 1 and record["python"]
    assert set(record["trees"]) == {"here", "against"}
    for tree in record["trees"].values():
        assert set(tree) == {"path", "commit", "code_lines"}
    assert record["trees"]["here"]["code_lines"] == \
        record["trees"]["against"]["code_lines"] > 1000
    case = record["cases"]["certify-demo-s4-fail"]
    assert set(case) == {"argv", "trees", "ratio", "here_slower_reps",
                         "verdict"}
    assert case["argv"] == CASES["certify-demo-s4-fail"]
    for tree in case["trees"].values():
        assert tree["exit"] == 1   # the demo word fails the certificate
        for metric in METRICS:
            assert set(tree[metric]) == {"median", "q1", "q3", "runs"}
            assert len(tree[metric]["runs"]) == 1
    assert set(case["ratio"]) == set(case["here_slower_reps"]) == \
        set(case["verdict"]) == set(METRICS)
    assert set(case["verdict"].values()) == {"unresolved"}   # one rep


FLAT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]   # IQR 0.45


@pytest.mark.parametrize("here, there, want", [
    # lower in every pair, by more than the other tree's IQR
    ([x - 0.5 for x in FLAT], FLAT, "faster"),
    (FLAT, [x - 0.5 for x in FLAT], "slower"),
    # lower in every pair, but by less than the IQR
    ([x - 0.4 for x in FLAT], FLAT, "unresolved"),
    # lower by 0.5 in 9 of 10 pairs, higher in one
    ([x - 0.5 for x in FLAT[:9]] + [2.0], FLAT, "faster"),
    # lower in 8 of 10 pairs and tied in 2: ties count for neither side
    ([x - 0.5 for x in FLAT[:8]] + FLAT[8:], FLAT, "unresolved"),
    # lower in every pair, but fewer than ten of them
    ([x - 0.5 for x in FLAT[:9]], FLAT[:9], "unresolved"),
    # one value throughout, so no spread: any gap in 9 of 10 pairs counts
    ([9.0] * 9 + [10.0], [10.0] * 10, "faster"),
    ([10.0] * 10, [10.0] * 10, "unresolved"),
])
def test_the_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_iqr(
        here, there, want):
    assert verdict(here, there) == want
