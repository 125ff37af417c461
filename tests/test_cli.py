import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from heckekit import cli, worddata
from heckekit.demazure import DegreeAuditFailure
from heckekit.laurent import InexactDivision

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


def without_timings(out: str) -> tuple[str, int]:
    """`out` with the certify "timings" object, the only part that
    varies, cut out (compact or indented), and the number of cuts."""
    return re.subn(r'"timings": ?\{[^{}]*\},\s*', "", out)


def assert_golden(capsys, argv, code, name):
    """stdout is byte-identical to the checked-in file once the certify
    "timings" object is cut out."""
    got_code, out = run_cli(capsys, *argv)
    out, cuts = without_timings(out)
    assert got_code == code and cuts == (argv[0] == "certify")
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("word,code", [("demo-s4-fail", 1),
                                       ("demo-s4-pass", 0),
                                       ("gl15-partial", 1),
                                       (None, 1)])
def test_certify_matches_the_golden_report(word, code, capsys):
    argv = ["certify"] + (["--word", word] if word else [])
    assert_golden(capsys, argv, code, f"certify_{word or 'no-word'}.json")


def test_certify_pretty_matches_the_golden_report(capsys):
    assert_golden(capsys, ["certify", "--word", "demo-s4-fail", "--pretty"],
                  1, "certify_demo-s4-fail_pretty.json")


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_emit_writes_a_streamed_list_as_json_dumps_would(pretty, capsys):
    """A stream of 0, 1 or 2 chunks, each of one or more items joined by
    "," and the items' line break, fills in the list where the payload
    holds the marker, as `_dumps` of the filled-in payload would."""
    places = (lambda v: v, lambda v: {"b": v, "a": 1, "c": [None]},
              lambda v: {"o": [0, {"p": v}], "n": {"m": v is None}})
    items = [{"b": [1, {}], "a": "x"}, [], None, [[2]]]
    many = [{"k": i} for i in range(9000)]
    for chunks in ([], [[1]], [items], [items[:1], items[1:]],
                   [many[:4096], many[4096:]]):
        for place in places:
            def stream(pad, chunks=chunks):
                return (("," + pad).join(cli._dumps(item, pretty)
                                         .replace("\n", pad)
                                         for item in chunk)
                        for chunk in chunks)

            cli.emit(place(cli._HOLE), pretty, stream)
            filled = place([item for chunk in chunks for item in chunk])
            assert (capsys.readouterr().out
                    == cli._dumps(filled, pretty) + "\n")


@pytest.mark.parametrize("sep", [",", ",\n          "],
                         ids=["compact", "pretty"])
def test_the_digit_pass_joins_each_coset_as_str_would(sep):
    """`subexpr.coset_texts` is `sep.join(map(str, z))` per coset, for
    values of one, two and three digits, on permutations of 1..n and on
    random values in 1..255, and on an empty chunk."""
    from heckekit import subexpr

    rng = random.Random(47)
    for n in (1, 2, 9, 10, 99, 100, 255):
        for cosets in ([], [bytes(rng.sample(range(1, n + 1), n))
                            for _ in range(rng.randint(1, 30))],
                       [bytes(rng.choices(range(1, 256), k=n))
                        for _ in range(rng.randint(1, 30))]):
            assert subexpr.coset_texts(cosets, n, sep) == [
                sep.join(map(str, z)) for z in cosets]


def test_emit_writes_nothing_for_a_value_json_cannot_encode(capsys):
    """A value that is no JSON raises before any text is written, with or
    without a streamed list."""
    for payload, stream in (({"a": 1, "b": frozenset({2})}, None),
                            ({"a": cli._HOLE, "b": frozenset({2})},
                             lambda pad: iter(["1"]))):
        with pytest.raises(TypeError, match="frozenset"):
            cli.emit(payload, False, stream)
        assert capsys.readouterr().out == ""


def _failing_word_files(tmp_path, count: int) -> list[str]:
    """Seeded valid S_4-S_6 word files whose interval has a failing coset
    and holds some histogram at more than one coset."""
    from heckekit import subexpr

    rng = random.Random(41)
    paths = []
    while len(paths) < count:
        n = rng.choice((4, 5, 6))
        gens = range(1, n)
        B = [g for g in gens if rng.random() < 0.3]
        A = [g for g in gens if g not in B and rng.random() < 0.5]
        raw = {"n": n, "A": A, "B": B,
               "word": [rng.choice(gens) for _ in range(rng.randint(3, 12))]}
        wd = worddata.parse_word_data(raw)
        report = worddata.validate_word_data(wd)
        if not (report.ok and report.complete):
            continue
        data = subexpr.sweep(wd.word, n, wd.parabolic, wd.constraint())
        inside = data.above(wd.x_element())[0]
        hists = [data[tuple(z)] for z in inside]
        if (any(min(h) < 0 for h in hists)
                and len({tuple(h.items()) for h in hists}) < len(hists)):
            path = tmp_path / f"word{len(paths)}.json"
            path.write_text(json.dumps(raw))
            paths.append(str(path))
    return paths


def _forced_run_word_files(tmp_path, count: int) -> list[str]:
    """Seeded valid S_5-S_7 word files whose B-letters, a reduced word for
    w_B of 3 to 10 letters, stand in one forced run, and whose x = w_B has
    an essential set of two to four cells."""
    from heckekit import coxeter

    rng = random.Random(43)
    paths = []
    while len(paths) < count:
        n = rng.choice((5, 6, 7))
        size = rng.randint(2, min(4, n - 2))
        first = rng.randint(1, n - size)
        B = list(range(first, first + size))
        rest = [g for g in range(1, n) if g not in B]
        A = [g for g in rest if rng.random() < 0.5]
        run = list(coxeter.reduced_word(coxeter.longest_element(B, n)))
        word, free = run, rng.randint(4, 8)
        for _ in range(40):   # free letters on either side, kept reduced
            t = rng.choice(rest)
            longer = [t] + word if rng.random() < 0.5 else word + [t]
            if len(word) < len(run) + free and coxeter.is_reduced(longer, n):
                word = longer
        raw = {"n": n, "A": A, "B": B, "word": word}
        report = worddata.validate_word_data(worddata.parse_word_data(raw))
        if report.ok and report.complete:
            x = coxeter.longest_element(B, n)
            assert len(coxeter.essential_set(x)) == size
            path = tmp_path / f"run{len(paths)}.json"
            path.write_text(json.dumps(raw))
            paths.append(str(path))
    return paths


def _reduced_word_file(tmp_path, seed: int, n: int, length: int) -> str:
    """A seeded valid word file: a reduced word of S_n of `length`
    letters, A = {} and B = {b} for a letter b that occurs once in it,
    so that the interval x = s_b < z holds every endpoint but x."""
    from heckekit import coxeter

    rng = random.Random(seed)
    while True:
        word = []
        for _ in range(20 * length):
            t = rng.randrange(1, n)
            if len(word) < length and coxeter.is_reduced(word + [t], n):
                word.append(t)
        once = [g for g in sorted(set(word)) if word.count(g) == 1]
        if len(word) == length and once:
            raw = {"n": n, "word": word, "A": [], "B": [rng.choice(once)]}
            path = tmp_path / f"reduced{seed}.json"
            path.write_text(json.dumps(raw))
            return str(path)


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_certify_matches_the_reference_renderer(pretty, capsys, tmp_path):
    """certify's stdout, apart from "timings", is byte for byte the
    payload that `oracles.certify_text` builds from the histograms of
    `oracles.fold`, which shares no code with `sweep`, and renders with
    one json.dumps: on both demos, `gl15-partial`, the
    no-word run, a valid word whose interval is empty (x = w = s_1),
    seeded words with failing cosets and repeated histograms, seeded
    words whose B-letters make one long forced run and whose x has an
    essential set of several cells, a seeded S_8 word whose interval
    crosses the renderer's chunk boundary, a seeded S_12 word (values of
    two digits) and an S_120 word (values of three digits)."""
    from heckekit import subexpr
    from oracles import certify_text

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 2, "word": [1], "A": [], "B": [1]}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 120, "word": [1, 2, 3, 119], "A": [],
                                "B": [119]}))
    chunks = _reduced_word_file(tmp_path, 53, 8, 18)
    wd = worddata.load_word_data(chunks)
    data = subexpr.sweep(wd.word, wd.n, wd.parabolic, wd.constraint())
    assert len(data.above(wd.x_element())[0]) > cli.CERTIFY_CHUNK
    words = [None, "demo-s4-fail", "demo-s4-pass", "gl15-partial",
             str(empty), chunks, _reduced_word_file(tmp_path, 59, 12, 9),
             str(wide)]
    for word in (words + _failing_word_files(tmp_path, 12)
                 + _forced_run_word_files(tmp_path, 12)):
        argv = ["certify"] + (["--word", word] if word else [])
        code, out = run_cli(capsys, *argv, *(["--pretty"] if pretty else []))
        out, cuts = without_timings(out)
        assert cuts == 1 and (code, out) == certify_text(word, pretty=pretty)


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


# the commands that compute in H, or in M with --parabolic
MODULE_GOLDEN = {
    "kl_element": ["kl", "--n", "4", "--element", "2,1,3,2"],
    "skl_element": ["skl", "--n", "4", "--parabolic", "2",
                    "--element", "1,2,3"],
    "skl_perm": ["skl", "--n", "4", "--parabolic", "1,3",
                 "--perm", "2,4,1,3"],
    # |W_A| = 576: c_x has 70 terms, b_{x w_A} all 40,320 of S_8
    "skl_s8": ["skl", "--n", "8", "--parabolic", "1 2 3 5 6 7",
               "--perm", "5,6,7,8,1,2,3,4"],
    "bs": ["bs", "--n", "4", "--word", "1,2,1,3"],
    "bs_parabolic": ["bs", "--n", "4", "--word", "1,2,1,3",
                     "--parabolic", "2"],
    "pair": ["pair", "--n", "3", "--word", "1,2", "--word2", "2,1"],
    "pair_parabolic": ["pair", "--n", "4", "--word", "1,2,3",
                       "--word2", "3,2", "--parabolic", "1"],
    "perverse-check": ["perverse-check", "--n", "4", "--word", "2,1,3,2"],
    # H-side characters at the fold's size: S_5's w0, a word that is not
    # reduced, and a non-perverse and a perverse character in S_5
    "bs_s5-w0": ["bs", "--n", "5", "--word", "1,2,3,4,1,2,3,1,2,1"],
    "bs_non-reduced": ["bs", "--n", "4", "--word", "1,2,1,2,1,2,3,3"],
    "perverse-check_not-perverse": ["perverse-check", "--n", "5",
                                    "--word", "1,2,1,3,2,1"],
    "perverse-check_perverse": ["perverse-check", "--n", "5",
                                "--word", "2,1,3,2,4,3,2"],
    "perverse-check_parabolic": ["perverse-check", "--n", "4",
                                 "--word", "2,1,3,2", "--parabolic", "1,3"],
}


@pytest.mark.parametrize("name", MODULE_GOLDEN)
def test_module_command_matches_the_golden_output(name, capsys):
    assert_golden(capsys, MODULE_GOLDEN[name], 0, f"{name}.json")


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
    # the interval reads the expansion that `deodhar` prints
    _, deodhar = run_json(
        capsys, "deodhar", "--n", str(word["n"]),
        "--parabolic", " ".join(map(str, word["A"])),
        "--word", " ".join(map(str, words)),
        "--forced-letters", " ".join(map(str, word["B"])))
    coeffs = deodhar["expansion"]["coeffs"]
    assert (interval["cosets_in_interval"] + interval["cosets_outside"]
            == len(coeffs))
    for e in interval["entries"]:
        coefficient = coeffs[",".join(map(str, e["coset"]))]
        assert e["coefficient"] == coefficient
        assert e["ok"] == all(int(k) >= 0 for k in coefficient)


def test_certify_invalid_word_data_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 4, "word": [1, 1], "A": [], "B": [],
        "forced": "letters-in-B", "degree": -1,
    }))
    code = cli.main(["certify", "--word", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # the interval check compares endpoints with x alone, which is sound
    # only for a reduced word
    assert "word-reduced: word is not reduced" in captured.err


def test_missing_file_is_input_error(capsys):
    # a missing --expr file with a `D` in its name reads as inline text
    for argv, message in [
            (["certify", "--word", "/no/such/file.json"],
             "--word '/no/such/file.json' is not a builtin name or a "
             "regular file"),
            (["validate-word", "--word", "nope.json"],
             "--word 'nope.json' is not a builtin name or a regular file"),
            (["intersection-form", "--expr", "/no/such/D1.txt"],
             "--expr '/no/such/D1.txt': bad token")]:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"heckekit: {message}"), captured.err


def test_unreadable_file_error_names_the_flag_or_the_file(tmp_path, capsys):
    cut_expr = tmp_path / "cut.txt"
    cut_expr.write_text("D1 (")
    cut_word = tmp_path / "cut.json"
    cut_word.write_text('{"n": 4,')
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe D1")
    undecodable = "'utf-8' codec can't decode byte 0xff"
    cases = [(["intersection-form", "--expr", str(cut_expr)],
              f"--expr {str(cut_expr)!r}: unexpected end of expression"),
             (["intersection-form", "--expr", str(binary)],
              f"--expr {str(binary)!r}: {undecodable}")]
    for command in ("certify", "validate-word"):
        cases += [([command, "--word", str(cut_word)],
                   f"word data {cut_word}: Expecting property name"),
                  ([command, "--word", str(binary)],
                   f"word data {binary}: {undecodable}")]
    for argv, message in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"heckekit: {message}"), captured.err


def test_inline_expression_error_names_the_flag(capsys):
    code = cli.main(["intersection-form", "--expr", "D1 ( ( a1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("heckekit: --expr 'D1 ( ( a1': ")


def test_internal_consistency_is_exit_3(monkeypatch, capsys):
    # D1 D1 ( a1 ) is balanced (expected erasure degree 0); an operator
    # that keeps the degree makes its erasures nonconstant, which only a
    # fault in the arithmetic can do (every step is an operator, so a
    # packed step that returns its value unchanged is one)
    from heckekit import demazure

    monkeypatch.setattr(demazure, "_step", lambda step, val: val)
    for command in ("intersection-form", "certify"):
        code, out = run_cli(capsys, command, "--expr", "D1 D1 ( a1 )")
        assert code == 3 and out == ""


@pytest.mark.parametrize("command", ["intersection-form", "certify"])
@pytest.mark.parametrize("text,degrees", [("D1 ( a1 )", [2]),
                                          ("D2 ( x1 )", [2]),
                                          ("D1 ( a1^2 * D1 ( a1 ) )", [4])])
def test_unbalanced_expression_is_exit_2(command, text, degrees, capsys):
    # erasing an operator of an unbalanced expression leaves a polynomial
    # of nonzero degree: bad input, named by its flag
    code = cli.main([command, "--expr", text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(
        f"heckekit: --expr is unbalanced: erasing operator 1 left degrees "
        f"{degrees}; ")


def test_unbalanced_expression_with_constant_erasures_is_exit_0(capsys):
    # expected degree 4 - 2 * (2 - 1) = 2, but del_1 del_1 = 0 and
    # del_1 (x1 x2) = 0: every erasure is the constant 0
    code, payload = run_json(capsys, "intersection-form",
                             "--expr", "D1 D1 ( x1 * x2 )")
    assert code == 0 and payload["entries"] == [0, 0]
    assert [a["expected_degree"] for a in payload["degree_audit"]] == [2, 2]


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


@pytest.mark.parametrize("command", ["intersection-form", "demazure-eval",
                                     "certify"])
def test_unknown_expression_is_input_error(command, capsys):
    # neither a builtin name, nor a file, nor text with `D` or `(`
    code = cli.main([command, "--expr", "x2 * x3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'x2 * x3'" in captured.err
    assert "not a builtin, file, or inline prefix expression" in captured.err


def test_pretty_output_is_the_same_json_indented(capsys):
    argv = ["skl", "--n", "3", "--parabolic", "2", "--element", "s1"]
    code, flat = run_cli(capsys, *argv)
    assert code == 0
    code, pretty = run_cli(capsys, *argv, "--pretty")
    assert code == 0
    assert pretty == json.dumps(json.loads(flat), sort_keys=True,
                                indent=2) + "\n"
    assert pretty.count("\n") > flat.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["intersection-form", "--expr"], ["demazure-eval", "--expr"],
    ["certify", "--expr"], ["certify", "--word"],
    ["validate-word", "--word"]], ids=lambda argv: "".join(argv))
@pytest.mark.parametrize("text", ["", "subdir", "Dir"])
def test_only_a_regular_file_counts_as_a_file(argv, text, tmp_path,
                                              monkeypatch, capsys):
    # '' is the path '.': a directory, like subdir; the directory Dir
    # contains a `D`, yet it is not inline --expr text
    monkeypatch.chdir(tmp_path)
    (tmp_path / "subdir").mkdir()
    (tmp_path / "Dir").mkdir()
    code = cli.main(argv + [text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"heckekit: {argv[-1]} {text!r} is not a builtin" in captured.err


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


def test_validate_word_without_parabolic_is_incomplete(tmp_path, capsys):
    path = tmp_path / "no_parabolic.json"
    path.write_text(json.dumps({"n": 4, "word": [1, 2, 1], "A": None,
                                "B": [], "degree": -1}))
    code, payload = run_json(capsys, "validate-word", "--word", str(path))
    assert code == 1
    assert not payload["ok"] and not payload["complete"]
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["word-present"]["ok"]
    assert checks["parabolic-present"] == {
        "name": "parabolic-present", "ok": False, "detail": "A is null"}


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


def test_defect_stats_empty_endpoint_is_input_error(capsys):
    code = cli.main(["defect-stats", "--n", "3", "--word", "1",
                     "--endpoint", ""])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--endpoint '' has 0 entries, not n = 3" in captured.err


@pytest.mark.parametrize("command,parabolic", [("kl", []),
                                               ("skl", ["--parabolic", "2"])])
def test_empty_element_is_the_identity(command, parabolic, capsys):
    argv = [command, "--n", "3"] + parabolic
    code, out = run_cli(capsys, *argv, "--element", "")
    assert code == 0
    assert run_cli(capsys, *argv, "--perm", "1,2,3") == (0, out)


def test_empty_forced_letters_force_nothing(capsys):
    argv = ["deodhar", "--n", "3", "--parabolic", "2", "--word", "1 2"]
    code, out = run_cli(capsys, *argv, "--forced-letters", "")
    assert code == 0
    assert run_cli(capsys, *argv) == (0, out)


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
    code = cli.main(["skl", "--n", "3", "--parabolic", "2",
                     "--perm", "1,3,2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert ("--perm '1,3,2' is not a minimal coset representative "
            "for A = [2]") in captured.err


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


@pytest.mark.parametrize("argv", [
    ["kl", "--perm", "1"], ["skl", "--parabolic", "1", "--element", "1"],
    ["bs", "--word", "1"], ["pair", "--word", "1", "--word2", "1"],
    ["deodhar", "--word", "1"], ["defect-stats", "--word", "1"],
    ["perverse-check", "--word", "1"]], ids=lambda argv: argv[0])
def test_n_above_budget_is_input_error(argv, capsys):
    for n in ("256", "1000000"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--n", n])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --n: must be at most 255, got {n}" in captured.err


def test_n_budget_is_the_fold_byte_bound(capsys):
    # --n stops where one byte per coset value (the fold's, and so the
    # interval test's) and the Demazure variable budget stop
    from heckekit import demazure, subexpr

    assert cli.MAX_N == subexpr.MAX_N == demazure.MAX_VARIABLES == 255
    data = subexpr.sweep((), cli.MAX_N, set())
    assert data
    with pytest.raises(ValueError, match=f"n = {cli.MAX_N + 1} is above"):
        subexpr.sweep((1,), cli.MAX_N + 1, set())
    with pytest.raises(ValueError, match=f"has {cli.MAX_N + 1} entries, "
                                         f"not n = {cli.MAX_N}$"):
        data.above(range(1, cli.MAX_N + 2))
    code, payload = run_json(capsys, "bs", "--n", str(cli.MAX_N),
                             "--word", "1")
    assert code == 0 and len(payload["bs"]) == 2


def test_builtin_word_names_are_the_worddata_builtins():
    # the parser spells the names out, before worddata is imported
    assert cli.BUILTIN_WORD_NAMES == tuple(sorted(worddata.BUILTIN_WORDS))


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
    (["intersection-form", "--expr", "D1 D1 ( a1 )"], 3),
])
def test_collector_paused_only_during_the_command(argv, code, monkeypatch,
                                                  capsys):
    seen = []
    command = cli.build_parser().parse_args(argv).func
    if code == 3:
        # an operator that keeps the degree (a packed step that returns
        # its value): a consistency violation
        from heckekit import demazure

        monkeypatch.setattr(demazure, "_step", lambda step, val: val)

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


@pytest.mark.parametrize("error", [InexactDivision, DegreeAuditFailure])
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


@pytest.mark.parametrize("command", ["bs", "pair", "perverse-check"])
def test_spherical_character_stops_at_the_fold_budget(monkeypatch, capsys,
                                                      command):
    # with --parabolic the character is the fold's expansion, so a word
    # whose fold outgrows the budget exits 2 instead of running unbounded
    from heckekit import subexpr

    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", 3)
    argv = [command, "--n", "4", "--word", "1,2,3,1,2,1", "--parabolic", "2"]
    argv += ["--word2", "1"] if command == "pair" else []
    assert cli.main(argv) == 2
    assert "budget of 3 cosets" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bs", "pair", "perverse-check"])
def test_hecke_character_stops_at_the_fold_budget(monkeypatch, capsys,
                                                  command):
    # without --parabolic the character is the same fold, at A = {}
    from heckekit import subexpr

    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", 3)
    argv = [command, "--n", "4", "--word", "1 2 3"]
    argv += ["--word2", "1"] if command == "pair" else []
    assert cli.main(argv) == 2
    assert "budget of 3 cosets" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kl", "--n", "4", "--perm", "4,3,2,1"],
    ["skl", "--n", "4", "--parabolic", "1", "--perm", "3,4,1,2"],
    ["perverse-check", "--n", "4", "--word", "1 2 1 3 2 1"]])
def test_kazhdan_lusztig_elements_stop_at_the_budget(argv, monkeypatch,
                                                     capsys):
    # each needs a KL element of S_4 with 3 generators in its support,
    # which passes the up-front bound 2^3 <= 10: the cache stops it
    from heckekit import hecke

    monkeypatch.setattr(hecke, "KL_BUDGET", 10)
    monkeypatch.setattr(hecke, "_kl_cache", {})
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than the budget KL_BUDGET = 10 terms" in captured.err


def test_kazhdan_lusztig_support_past_the_budget_is_refused_up_front(capsys):
    w0 = ",".join(map(str, range(60, 0, -1)))
    assert cli.main(["kl", "--n", "60", "--perm", w0]) == 2
    assert capsys.readouterr().err == (
        "heckekit: b_x has at least 2^59 terms (59 generators in the "
        "support of x), past the budget KL_BUDGET = 2000000\n")
    # skl counts the support of x alone: a 21-cycle has 21 generators
    cycle = ",".join(map(str, [*range(2, 23), 1, 23, 24, 25]))
    assert cli.main(["skl", "--n", "25", "--parabolic", "1",
                     "--perm", cycle]) == 2
    assert capsys.readouterr().err == (
        "heckekit: x has 21 generators in its support, past the 20 that "
        "keep the recursion for c_x within length 210\n")


def test_skl_takes_a_small_x_under_a_large_parabolic(capsys):
    # the support of x w_A has 21 generators, but c_x = m_id has one term
    identity = ",".join(map(str, range(1, 26)))
    A = " ".join(map(str, range(1, 22)))
    code, out = run_cli(capsys, "skl", "--n", "25", "--parabolic", A,
                        "--perm", identity)
    assert code == 0
    assert json.loads(out)["skl"]["coeffs"] == {identity: {"0": "1"}}


_W0_S7 = "1 2 1 3 2 1 4 3 2 1 5 4 3 2 1 6 5 4 3 2 1"


@pytest.mark.parametrize("argv", [
    # |W_A| = 10!: phi would embed each character into 10! terms
    ["--n", "10", "--parabolic", "1 2 3 4 5 6 7 8 9", "--word", "1",
     "--word2", "1"],
    ["--n", "7", "--parabolic", "1 2 3 4 5 6", "--word", "1", "--word2", "1"],
    # supports of 5,040 and 1, but 5,040 inverses of up to 5,040 terms
    ["--n", "7", "--word", _W0_S7, "--word2", ""],
    ["--n", "7", "--word", _W0_S7, "--word2", _W0_S7],
])
def test_pairing_past_the_budget_is_refused_up_front(argv, monkeypatch,
                                                     capsys):
    # inputs whose pairing through phi or through inverses of h_x is too
    # large to run: `pair` reads one coefficient of one fold instead
    import time

    from heckekit import hecke, spherical

    def unreachable(*args):
        raise AssertionError("pair ran the reference pairing")

    for module, name in ((spherical, "phi_embed"), (hecke, "pairing"),
                         (hecke, "inverse_h")):
        monkeypatch.setattr(module, name, unreachable)
    t0 = time.perf_counter()
    code, payload = run_json(capsys, "pair", *argv)
    assert time.perf_counter() - t0 < 2
    assert code == 0
    if "--parabolic" in argv:
        # A is every generator: b_{s1} b_{s1} m_id = (v + v^-1)^2 m_id
        assert payload["display"] == "v^-2 + 2 + v^2"


def _pair_cases():
    """(n, A, w1, w2): every pair of words of up to 3 letters in S_3 and
    of up to 2 in S_4, for every A and for H (A = None), then a seeded
    S_5 batch."""
    for n, longest in ((3, 3), (4, 2)):
        gens = range(1, n)
        words = [w for k in range(longest + 1)
                 for w in itertools.product(gens, repeat=k)]
        subsets = [None] + [A for k in range(n) for A in
                            itertools.combinations(gens, k)]
        for A in subsets:
            for w1, w2 in itertools.product(words, words):
                yield n, A, w1, w2
    rng = random.Random(23)
    for _ in range(300):
        A = None if rng.random() < 0.5 else tuple(
            g for g in range(1, 5) if rng.random() < 0.4)
        w1, w2 = (tuple(rng.choice(range(1, 5))
                        for _ in range(rng.randint(0, 4))) for _ in "12")
        yield 5, A, w1, w2


def test_pair_agrees_with_the_reference_pairings(capsys):
    # `pair` reads [id] of the character of rev(w1) + w2; the references
    # pair the two characters through inverses of h_x and through phi
    from heckekit import hecke, spherical

    chars = {}

    def character(n, A, w):
        key = n, A, w
        if key not in chars:
            chars[key] = (hecke.bott_samelson_char(w, n) if A is None else
                          spherical.bott_samelson_spherical(w, n, A))
        return chars[key]

    parser = cli.build_parser()     # once: building it costs the most
    for n, A, w1, w2 in _pair_cases():
        argv = ["pair", "--n", str(n), "--word", " ".join(map(str, w1)),
                "--word2", " ".join(map(str, w2))]
        if A is not None:
            argv += ["--parabolic", " ".join(map(str, A))]
        a, b = character(n, A, w1), character(n, A, w2)
        want = (hecke.pairing(a, b) if A is None
                else spherical.spherical_pairing(a, b))
        assert cli.cmd_pair(parser.parse_args(argv)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"module": "hecke" if A is None else "spherical",
                           "pairing": want.to_json_dict(),
                           "display": str(want)}, argv


#: a word whose interval check fails at (1,3,4,5,2); forcing its s_1
#: letter instead of its s_4 letter, the letter of B, would pass it
FLIP_WORD = {"n": 5, "word": [2, 3, 4, 1, 3, 2], "A": [1, 3], "B": [4]}


def test_word_data_forces_no_letters_but_those_of_B(tmp_path, capsys):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(
        {**FLIP_WORD, "forced": [[0, 1]] * 3 + [[1]] + [[0, 1]] * 2}))
    for command in ("validate-word", "certify"):
        assert cli.main([command, "--word", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"forced" must be "letters-in-B", got [[0, 1], ' \
            in captured.err
    path.write_text(json.dumps({**FLIP_WORD, "forced": "letters-in-B"}))
    code, payload = run_json(capsys, "certify", "--word", str(path))
    assert code == 1 and payload["verdict"] is False
    assert payload["interval"]["failures"] == [
        {"coset": [1, 3, 4, 5, 2],
         "coefficient": {"-1": "1", "1": "2", "3": "1"}}]


def test_letters_of_B_that_do_not_spell_wB_fail_validation(tmp_path, capsys):
    # three B-letters, as many as len(w_B), but 2, 2, 3 multiply to s_3;
    # with only the count checked, certify passes it on an empty interval
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(
        {"n": 4, "word": [2, 1, 2, 3], "A": [], "B": [2, 3]}))
    detail = ("forced positions 3, len(w_B) 3; the letters of B multiply "
              "to [1, 2, 4, 3], w_B is [1, 4, 3, 2]")
    code, payload = run_json(capsys, "validate-word", "--word", str(path))
    assert code == 1
    assert {"name": "forced-count-is-length-of-wB", "ok": False,
            "detail": detail} in payload["checks"]
    assert cli.main(["certify", "--word", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"forced-count-is-length-of-wB: {detail}\n" in captured.err


@pytest.mark.parametrize("error", [TypeError, IndexError, KeyError])
def test_errors_other_than_bad_input_propagate(monkeypatch, error):
    # exit 2 is for a ValueError or OSError from the input; anything else
    # is a bug and keeps its traceback
    def fail(args):
        raise error("a bug")

    monkeypatch.setattr(cli, "cmd_kl", fail)
    with pytest.raises(error):
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
    pytest.param(["bs", "--n", "3", "--word", "1 2"], _HECKE | {"subexpr"},
                 id="bs-hecke"),
    pytest.param(["pair", "--n", "3", "--word", "s2", "--word2", "s2"],
                 _HECKE | {"subexpr"}, id="pair"),
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
    pytest.param(["perverse-check", "--n", "3", "--word", "1 2"],
                 _HECKE | {"subexpr"}, id="perverse-check-hecke"),
    pytest.param(["validate-word", "--word", "demo-s4-pass"],
                 {"cli", "coxeter", "subexpr", "worddata"},
                 id="validate-word"),
    pytest.param(["certify", "--word", "demo-s4-fail"],
                 {"cli", "coxeter", "demazure", "laurent", "subexpr",
                  "worddata"}, id="certify"),
    pytest.param(["skl", "--n", "3", "--parabolic", "2", "--perm", "2,1,3"],
                 _SPHERICAL, id="skl-perm"),
    pytest.param(["kl", "--n", "3"], {"cli"}, id="argparse-rejection"),
    pytest.param(["bs", "--n", "256", "--word", "1"], {"cli"},
                 id="n-above-budget"),
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
out = [sorted(m for m in sys.modules if m.startswith("heckekit."))]
from heckekit import hecke
out.append(hecke.kl_basis((2, 1)).to_json_dict())
out.append("heckekit.hecke" in sys.modules)
try:
    heckekit.nope
except AttributeError as exc:
    out.append(str(exc))
print(json.dumps(out))
""")
    from heckekit import hecke

    assert got == [[], hecke.kl_basis((2, 1)).to_json_dict(), True,
                   "module 'heckekit' has no attribute 'nope'"]
