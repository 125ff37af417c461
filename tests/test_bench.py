"""`tests/bench.py`: one rep of one small case against its own tree
writes a record of the documented shape.  No timing is read."""
import json

from bench import CASES, METRICS, ROOT, main


def test_one_rep_against_its_own_tree_writes_the_record(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["--against", str(ROOT), "--reps", "1", "--out", str(out),
                 "--cases", "certify-demo-s4-fail"]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"machine", "python", "trees", "reps", "cases"}
    assert record["reps"] == 1 and record["python"]
    assert set(record["trees"]) == {"here", "against"}
    assert all(set(tree) == {"path", "commit"}
               for tree in record["trees"].values())
    case = record["cases"]["certify-demo-s4-fail"]
    assert set(case) == {"argv", "trees", "ratio", "here_slower_reps"}
    assert case["argv"] == CASES["certify-demo-s4-fail"]
    for tree in case["trees"].values():
        assert tree["exit"] == 1   # the demo word fails the certificate
        for metric in METRICS:
            assert set(tree[metric]) == {"median", "q1", "q3", "runs"}
            assert len(tree[metric]["runs"]) == 1
    assert set(case["ratio"]) == set(case["here_slower_reps"]) == \
        set(METRICS)
