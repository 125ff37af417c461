import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from heckekit import cli, worddata
from heckekit.demazure import DegreeAuditFailure
from heckekit.laurent import InexactDivision
from heckekit.spherical import PullbackMismatch

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_intersection_form(capsys):
    code, payload = run_json(capsys, "intersection-form",
                             "--expr", "paper-GL15", "--p", "2")
    assert code == 0
    assert payload["rank_over_Q"] == 1
    assert payload["rank_over_p"] == 0
    assert len(payload["entries"]) == 12


def test_kl_six_terms(capsys):
    code, payload = run_json(capsys, "kl", "--n", "3",
                             "--element", "s1 s2 s1")
    assert code == 0
    assert len(payload["kl"]) == 6
    assert payload["kl"]["1,2,3"] == {"3": "1"}


def test_skl(capsys):
    code, payload = run_json(capsys, "skl", "--n", "3", "--parabolic", "2",
                             "--element", "s1")
    assert code == 0
    assert payload["skl"]["coeffs"] == {"1,2,3": {"1": "1"},
                                        "2,1,3": {"0": "1"}}


def test_defect_stats_one_letter(capsys):
    code, payload = run_json(capsys, "defect-stats", "--n", "3",
                             "--parabolic", "2", "--word", "s2")
    assert code == 0
    assert payload == {"-1": 1, "1": 1}


def test_deodhar_matches_bs(capsys):
    code, d = run_json(capsys, "deodhar", "--n", "4", "--parabolic", "2",
                       "--word", "1 2 3 2")
    assert code == 0
    code, b = run_json(capsys, "bs", "--n", "4", "--parabolic", "2",
                       "--word", "1 2 3 2")
    assert code == 0
    assert d["expansion"]["coeffs"] == b["bs"]["coeffs"]
    assert d["subexpressions"] == 16


def test_pair_hecke(capsys):
    code, payload = run_json(capsys, "pair", "--n", "3",
                             "--word", "s1", "--word2", "s1")
    assert code == 0
    assert payload["pairing"] == {"0": "1", "2": "1"}


def test_demazure_eval_erase(capsys):
    code, payload = run_json(capsys, "demazure-eval",
                             "--expr", "paper-GL15", "--erase", "4")
    assert code == 0
    assert payload["value"]["terms"] == {"0,0,0,0,0": "-2"}


def test_perverse_check(capsys):
    code, payload = run_json(capsys, "perverse-check", "--n", "3",
                             "--word", "1 2")
    assert code == 0
    assert payload["perverse"] is True


def test_certify_demo_fail(capsys):
    code, payload = run_json(capsys, "certify", "--word", "demo-s4-fail")
    assert code == 1
    assert payload["verdict"] is False
    assert payload["rank_conditions"]["ok"] is True
    assert payload["interval"]["status"] == "failed"
    assert payload["interval"]["failures"], "the offending coset is listed"
    assert payload["interval"]["failures"][0]["coset"] == [2, 1, 3, 4]


def test_certify_demo_pass(capsys):
    code, payload = run_json(capsys, "certify", "--word", "demo-s4-pass")
    assert code == 0
    assert payload["verdict"] is True
    assert payload["interval"]["status"] == "ok"
    assert payload["word"]["subexpressions"] == 4  # one forced letter of 3


def test_certify_without_word(capsys):
    code, payload = run_json(capsys, "certify")
    assert code == 1
    assert payload["verdict"] is False
    assert payload["interval"]["status"] == "skipped: no word data"
    assert payload["rank_conditions"]["ok"] is True


def test_certify_partial_word_skips_interval(capsys):
    code, payload = run_json(capsys, "certify", "--word", "gl15-partial")
    assert code == 1
    assert payload["interval"]["status"] == "skipped: word data incomplete"


def assert_golden(capsys, argv, code, name):
    """stdout is byte-identical to the checked-in file once the certify
    "timings" object, the only part that varies, is cut out."""
    got_code, out = run_cli(capsys, *argv)
    out, cuts = re.subn(r'"timings":\{[^{}]*\},', "", out)
    assert got_code == code and cuts == (argv[0] == "certify")
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("word,code", [("demo-s4-fail", 1),
                                       ("demo-s4-pass", 0),
                                       ("gl15-partial", 1),
                                       (None, 1)])
def test_certify_matches_the_golden_report(word, code, capsys):
    argv = ["certify"] + (["--word", word] if word else [])
    assert_golden(capsys, argv, code, f"certify_{word or 'no-word'}.json")


DEMAZURE_GOLDEN = {
    "intersection-form_p2": ["intersection-form", "--expr", "paper-GL15",
                             "--p", "2"],
    "intersection-form_p3": ["intersection-form", "--expr", "paper-GL15",
                             "--p", "3"],
    "demazure-eval_paper-GL15": ["demazure-eval", "--expr", "paper-GL15"],
    "demazure-eval_paper-GL15_erase4": ["demazure-eval", "--expr",
                                        "paper-GL15", "--erase", "4"],
    # a factor step above an operator
    "demazure-eval_factor-above-op": ["demazure-eval", "--expr",
                                      "x2 * D1 ( x2^2 )"],
}


@pytest.mark.parametrize("name", DEMAZURE_GOLDEN)
def test_demazure_command_matches_the_golden_output(name, capsys):
    assert_golden(capsys, DEMAZURE_GOLDEN[name], 0, f"{name}.json")


@pytest.mark.parametrize("name", ["demo-s4-fail", "demo-s4-pass"])
def test_certify_report_agrees_with_its_parts(name, capsys):
    _, payload = run_json(capsys, "certify", "--word", name)
    word = payload["word"]
    words = worddata.load_word_data(name).word
    _, at_x = run_json(
        capsys, "defect-stats", "--n", str(word["n"]),
        "--parabolic", " ".join(map(str, word["A"])),
        "--word", " ".join(map(str, words)),
        "--forced-letters", " ".join(map(str, word["B"])),
        "--endpoint", ",".join(map(str, word["x"])))
    assert payload["histogram_at_x"] == at_x
    assert sum(payload["histogram"].values()) == word["subexpressions"]
    interval = payload["interval"]
    assert interval["failures"] == [
        {k: v for k, v in e.items() if k != "ok"}
        for e in interval["entries"] if not e["ok"]]


def test_certify_invalid_word_data_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 4, "word": [1, 1], "A": [], "B": [],
        "forced": "letters-in-B", "degree": -1,
    }))
    code, out = run_cli(capsys, "certify", "--word", str(bad))
    assert code == 2


def test_missing_file_is_input_error(capsys):
    code, out = run_cli(capsys, "certify", "--word", "/no/such/file.json")
    assert code == 2


def test_internal_consistency_is_exit_3(capsys):
    # erasing the only operator of D1(a1) leaves a degree-2 polynomial
    code, out = run_cli(capsys, "intersection-form",
                        "--expr", "D1 ( a1 )")
    assert code == 3


@pytest.mark.parametrize("command", ["intersection-form", "demazure-eval"])
@pytest.mark.parametrize("text,token", [("D0 ( x1 )", "D0"),
                                        ("D1 ( a0 )", "a0"),
                                        ("D1 ( x0 * x2 )", "x0")])
def test_zero_index_is_input_error_naming_the_token(command, text, token,
                                                    capsys):
    code = cli.main([command, "--expr", text])
    captured = capsys.readouterr()
    assert code == 2
    assert f"bad token {token!r}" in captured.err


@pytest.mark.parametrize("command", ["intersection-form", "demazure-eval"])
def test_exponent_above_budget_is_input_error(command, capsys):
    code = cli.main([command, "--expr", "D1 ( a2^100000 )"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert ("bad token 'a2^100000': exponent 100000 exceeds the budget "
            "MAX_EXPONENT = 64") in captured.err


@pytest.mark.parametrize("command", ["intersection-form", "demazure-eval"])
@pytest.mark.parametrize("token", ["x3000000", "x" + "9" * 5000],
                         ids=["7-digits", "5000-digits"])
def test_index_above_budget_is_input_error(command, token, capsys):
    code = cli.main([command, "--expr", f"D1 ( {token} * x2999999 )"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert (f"bad token {token!r}: index {token[1:]} needs more than "
            f"MAX_VARIABLES = 255 variables") in captured.err


@pytest.mark.parametrize("command", ["intersection-form", "demazure-eval"])
def test_constant_above_budget_is_input_error(command, capsys):
    token = "9" * 5000   # past int()'s 4,300-digit limit
    code = cli.main([command, "--expr", f"D1 ( {token} * x2 )"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert (f"bad token {token!r}: a constant of 5000 digits exceeds the "
            f"budget MAX_CONSTANT_DIGITS = 4300") in captured.err


@pytest.mark.parametrize("command,text", [
    ("demazure-eval", "D1 ( {n} * {n} * x2 )"),
    ("intersection-form", "D1 D2 ( {n} * {n} * x3 )"),
    ("certify", "D1 D2 ( {n} * {n} * x3 )")])
def test_result_above_budget_is_input_error(command, text, capsys):
    # each constant is within the budget, but their product is not
    nines = "9" * 3000
    code = cli.main([command, "--expr", text.format(n=nines)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "exceeds the budget MAX_CONSTANT_DIGITS = 4300" in captured.err
    assert "set_int_max_str_digits" not in captured.err


def test_erase_out_of_range_is_input_error(capsys):
    for erase in ("0", "-1", "13", "99"):
        code = cli.main(["demazure-eval", "--expr", "paper-GL15",
                         "--erase", erase])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--erase {erase} out of range 1..12" in captured.err


def test_expression_from_file(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("D3 ( a4^2 )\n")
    code, payload = run_json(capsys, "demazure-eval", "--expr", str(path))
    assert code == 0
    assert payload["value"]["terms"] == {"0,0,0,1,0": "1", "0,0,1,0,0": "1",
                                         "0,0,0,0,1": "-2"}


def test_validate_word_exit_codes(capsys):
    code, payload = run_json(capsys, "validate-word", "--word",
                             "demo-s4-pass")
    assert code == 0 and payload["ok"]
    code, payload = run_json(capsys, "validate-word", "--word",
                             "gl15-partial")
    assert code == 1 and not payload["complete"]


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["kl", "--n", "3"])  # neither --element nor --perm
    assert exc.value.code == 2


def test_determinism_across_threads(capsys):
    payloads = []
    for threads in ("1", "4"):
        code, payload = run_json(capsys, "certify", "--word", "demo-s4-fail",
                                 "--threads", threads)
        assert code == 1
        payload.pop("timings")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_deodhar_threads_deterministic(capsys):
    outs = []
    for threads in ("1", "3"):
        code, out = run_cli(capsys, "deodhar", "--n", "4",
                            "--parabolic", "1 3", "--word", "1 2 3 2 1 2",
                            "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_parabolic_out_of_range_is_input_error(capsys):
    code = cli.main(["deodhar", "--n", "3", "--parabolic", "7",
                     "--word", "1"])
    assert code == 2
    assert "parabolic generator 7 out of range for S_3" in \
        capsys.readouterr().err


def test_defect_stats_rejects_bad_endpoint(capsys):
    for parabolic, endpoint, why in (("", "1,2", "2 entries, not n = 3"),
                                     ("1", "2,1,3", "not a minimal coset")):
        code = cli.main(["defect-stats", "--n", "3", "--parabolic",
                         parabolic, "--word", "1 2", "--endpoint", endpoint])
        err = capsys.readouterr().err
        assert code == 2
        assert f"--endpoint '{endpoint}'" in err and why in err


def test_defect_stats_unreachable_endpoint_is_empty(capsys):
    code, payload = run_json(capsys, "defect-stats", "--n", "3",
                             "--word", "1", "--endpoint", "3,2,1")
    assert code == 0
    assert payload == {}


def test_threads_below_one_is_input_error(capsys):
    for argv in (["deodhar", "--n", "3", "--word", "1"],
                 ["defect-stats", "--n", "3", "--word", "1"],
                 ["certify"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "0"])
        assert exc.value.code == 2
        assert "argument --threads: must be at least 1" in \
            capsys.readouterr().err


def test_p_must_be_prime(capsys):
    for command in ("intersection-form", "certify"):
        for p in ("9", "4", "1"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--p", p])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --p: must be a prime below 2^32, got {p}" in \
                captured.err
    code, payload = run_json(capsys, "intersection-form", "--p", "3")
    assert code == 0 and payload["p"] == 3


def test_perm_length_must_match_n(capsys):
    for command in (["kl"], ["skl", "--parabolic", "2"]):
        code = cli.main(command + ["--n", "3", "--perm", "1,2,3,4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--perm '1,2,3,4' has 4 entries, not n = 3" in captured.err


def test_generators_out_of_range_name_the_flag(capsys):
    cases = [
        (["bs", "--n", "4", "--word", "5"], "--word '5': generator 5"),
        (["pair", "--n", "3", "--word", "1", "--word2", "1 3"],
         "--word2 '1 3': generator 3"),
        (["pair", "--n", "3", "--word", "1", "--word2", "2",
          "--parabolic", "9"], "--parabolic '9': parabolic generator 9"),
        (["perverse-check", "--n", "4", "--word", "1",
          "--parabolic", "5"], "--parabolic '5': parabolic generator 5"),
        (["deodhar", "--n", "3", "--word", "1 2",
          "--forced-letters", "0"], "--forced-letters '0': generator 0"),
        (["kl", "--n", "3", "--element", "s1 s4"],
         "--element 's1 s4': generator 4"),
    ]
    for argv, message in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        n = argv[argv.index("--n") + 1]
        assert f"{message} out of range for S_{n}" in captured.err


def test_non_integer_letters_name_the_flag(capsys):
    cases = [
        (["bs", "--n", "3", "--word", "x"],
         "--word 'x': 'x' is not a generator such as 2 or s2"),
        (["bs", "--n", "3", "--word", "1 2", "--parabolic", "1.5"],
         "--parabolic '1.5': '1.5' is not a parabolic generator"),
        (["kl", "--n", "3", "--perm", "1,x,2"],
         "--perm '1,x,2' is not a list of integers"),
        (["defect-stats", "--n", "3", "--word", "1", "--endpoint", "1 2 +3"],
         "--endpoint '1 2 +3' is not a list of integers"),
        (["deodhar", "--n", "3", "--word", "1 2", "--forced-letters", "s"],
         "--forced-letters 's': 's' is not a generator"),
    ]
    for argv, message in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err


def test_n_below_one_is_input_error(capsys):
    for argv in (["bs", "--n", "-2", "--word", ""],
                 ["kl", "--n", "0", "--perm", ""]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --n: must be at least 1" in captured.err


def test_long_expression_from_file(tmp_path, capsys):
    # 1,200 nested operators: deeper than the interpreter's recursion limit
    path = tmp_path / "long.txt"
    path.write_text("D1 " * 1200 + "( x2 )\n")
    code, payload = run_json(capsys, "intersection-form", "--expr", str(path))
    assert code == 0
    assert payload["entries"] == [0] * 1200
    assert payload["rank_over_Q"] == 0


@pytest.mark.parametrize("command", ["intersection-form", "demazure-eval"])
def test_inline_expression_longer_than_a_file_name(command, capsys):
    # the file probe fails on such text; it must still reach the parser
    code = cli.main([command, "--expr", "D1 ( x2^" + "9" * 5000 + " )"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "exceeds the budget MAX_EXPONENT = 64" in captured.err
    assert "File name too long" not in captured.err


@pytest.mark.parametrize("argv,flag,text", [
    (["bs", "--n", "1_0", "--word", "1"], "--n", "1_0"),
    (["kl", "--n", "٣", "--perm", "1,2,3"], "--n", "٣"),
    (["kl", "--n", "+3", "--perm", "1,2,3"], "--n", "+3"),
    (["intersection-form", "--p", "٣"], "--p", "٣"),
    (["certify", "--p", "1_1"], "--p", "1_1"),
    (["demazure-eval", "--expr", "paper-GL15", "--erase", "1_2"],
     "--erase", "1_2"),
    (["demazure-eval", "--expr", "paper-GL15", "--erase", "٤"],
     "--erase", "٤"),
    (["deodhar", "--n", "3", "--word", "1", "--threads", "2_0"],
     "--threads", "2_0"),
    (["certify", "--threads", " 1"], "--threads", " 1"),
])
def test_integer_flags_take_ascii_digits_only(argv, flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert (f"argument {flag}: must be an integer in ASCII digits, "
            f"got {text!r}") in captured.err


@pytest.mark.parametrize("argv,code", [
    (["kl", "--n", "3", "--element", "s1"], 0),
    (["validate-word", "--word", "gl15-partial"], 1),
    (["bs", "--n", "4", "--word", "5"], 2),
    (["intersection-form", "--expr", "D1 ( a1 )"], 3),
])
def test_collector_paused_only_during_the_command(argv, code, monkeypatch,
                                                  capsys):
    seen = []
    command = cli.build_parser().parse_args(argv).func

    def spy(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, command.__name__, spy)
    assert gc.isenabled()
    assert cli.main(argv) == code
    assert seen == [False]
    assert gc.isenabled()


def test_collector_enabled_after_argparse_rejection(capsys):
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        cli.main(["kl", "--n", "3"])
    assert gc.isenabled()


def test_collector_left_off_when_it_was_off(capsys):
    gc.disable()
    try:
        assert cli.main(["kl", "--n", "3", "--element", "s1"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("error", [InexactDivision, DegreeAuditFailure,
                                   PullbackMismatch])
def test_consistency_violations_exit_3(error, monkeypatch, capsys):
    def fail(args):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_kl", fail)
    assert cli.main(["kl", "--n", "3", "--perm", "1,2,3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "heckekit: internal consistency violation: planted\n"


def test_other_arithmetic_errors_propagate(monkeypatch):
    def fail(args):
        return 1 // 0

    monkeypatch.setattr(cli, "cmd_kl", fail)
    with pytest.raises(ZeroDivisionError):
        cli.main(["kl", "--n", "3", "--perm", "1,2,3"])


def test_validate_word_help_names_the_builtin_words():
    # the parser spells the names out, so that it needs no worddata import
    parser = cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices["validate-word"]
    (word,) = [a for a in sub._actions if a.dest == "word"]
    names = ", ".join(sorted(worddata.BUILTIN_WORDS))
    assert word.help == f"path or builtin name ({names})"


def _in_fresh_interpreter(code: str, *argv: str):
    """Run `code` with argv under PYTHONPATH=src; the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(proc.stdout.splitlines()[-1])


# which modules `cli.main(argv)` adds to a fresh interpreter
_FOOTPRINT = """
import json, sys
before = set(sys.modules)
from heckekit import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_HECKE = {"cli", "coxeter", "hecke", "laurent"}
_SPHERICAL = _HECKE | {"spherical", "subexpr"}
_DEMAZURE = {"cli", "demazure", "laurent"}


@pytest.mark.parametrize("argv,loaded", [
    pytest.param(["kl", "--n", "3", "--perm", "3,2,1"], _HECKE, id="kl"),
    pytest.param(["skl", "--n", "3", "--parabolic", "2", "--element", "s1"],
                 _SPHERICAL, id="skl"),
    pytest.param(["bs", "--n", "3", "--word", "1 2", "--parabolic", "2"],
                 _SPHERICAL, id="bs"),
    pytest.param(["pair", "--n", "3", "--word", "s2", "--word2", "s2"],
                 _HECKE, id="pair"),
    pytest.param(["deodhar", "--n", "4", "--parabolic", "2", "--word",
                  "1 2 3 2", "--forced-letters", "3"], _SPHERICAL,
                 id="deodhar"),
    pytest.param(["defect-stats", "--n", "3", "--parabolic", "2", "--word",
                  "s2"], {"cli", "coxeter", "subexpr"}, id="defect-stats"),
    pytest.param(["demazure-eval", "--expr", "paper-GL15", "--erase", "3"],
                 _DEMAZURE, id="demazure-eval"),
    pytest.param(["intersection-form", "--expr", "paper-GL15"], _DEMAZURE,
                 id="intersection-form"),
    pytest.param(["perverse-check", "--n", "3", "--word", "1 2",
                  "--parabolic", "2"], _SPHERICAL, id="perverse-check"),
    pytest.param(["validate-word", "--word", "demo-s4-pass"],
                 {"cli", "coxeter", "subexpr", "worddata"},
                 id="validate-word"),
    pytest.param(["certify", "--word", "demo-s4-fail"],
                 _SPHERICAL | {"demazure", "worddata"}, id="certify"),
    pytest.param(["kl", "--n", "3"], {"cli"}, id="argparse-rejection"),
    pytest.param(["deodhar", "--n", "3", "--parabolic", "7", "--word", "1"],
                 {"cli"}, id="bad-parabolic"),
])
def test_command_imports_only_what_it_runs(argv, loaded):
    new = _in_fresh_interpreter(_FOOTPRINT, *argv)
    assert {m for m in new if m.startswith("heckekit.")} == {
        f"heckekit.{m}" for m in loaded}
    assert "dataclasses" not in new


def test_package_imports_modules_on_first_use():
    got = _in_fresh_interpreter("""
import json, sys
import heckekit
out = ["heckekit.hecke" in sys.modules]
out.append(heckekit.hecke.kl_basis((2, 1)).to_json_dict())
out.append("heckekit.hecke" in sys.modules)
try:
    heckekit.nope
except AttributeError as exc:
    out.append(str(exc))
print(json.dumps(out))
""")
    from heckekit import hecke

    assert got == [False, hecke.kl_basis((2, 1)).to_json_dict(), True,
                   "module 'heckekit' has no attribute 'nope'"]
