"""`tests/compare_trees.py`: the CLI parses its catalogue, its cut of the
"timings" object is the one the golden tests make, and it finds no
difference between a tree and itself."""
import contextlib
import io

import pytest

from compare_trees import ROOT, catalogue, compare, cut_timings, gap_argvs
from heckekit import cli
from test_cli import run_cli, without_timings


def test_every_catalogue_argv_parses(tmp_path):
    """Every `certify` argv and every gap argv of the catalogue parses
    under `cli.build_parser()`, and so does every argv of the contract
    batch but those whose rejection the batch means: argparse refuses
    those on the value of an option that they give (a bad --n, --p or
    --parabolic), never on an option that the parser lacks."""
    parser = cli.build_parser()
    argvs = catalogue("all", tmp_path)
    assert len(argvs) == 36 + 660 + 21
    assert argvs[36 + 660:] == gap_argvs(tmp_path)
    refused = 0
    for k, argv in enumerate(argvs):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                assert parser.parse_args(argv).command == argv[0]
        except SystemExit as exc:
            flag = err.getvalue().rpartition("error: argument ")[2]
            assert 36 <= k < 36 + 660 and exc.code == 2, (
                argv, err.getvalue())
            assert flag.partition(":")[0] in argv, (argv, err.getvalue())
            refused += 1
    assert 0 < refused < 100


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_the_timings_cut_matches_the_golden_tests(pretty, capsys):
    for word in ("demo-s4-fail", "demo-s4-pass"):
        _, out = run_cli(capsys, "certify", "--word", word,
                         *(["--pretty"] if pretty else []))
        want, cuts = without_timings(out)
        assert cuts == 1
        assert cut_timings(out.encode()) == want.encode()


def test_a_tree_matches_itself_on_ten_argvs(tmp_path):
    """The script, run against its own tree, reports no difference on
    two `certify` argvs (one of them pretty and failing, so its timings
    are cut) and the first eight argvs of the contract batch."""
    argvs = catalogue("all", tmp_path)
    picks = [argvs[1], argvs[7]] + argvs[36:44]
    assert compare(ROOT, picks, tmp_path) == []
