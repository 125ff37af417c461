import json

import pytest

from heckekit import cli


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


def test_erase_out_of_range_is_input_error(capsys):
    code, out = run_cli(capsys, "demazure-eval", "--expr", "paper-GL15",
                        "--erase", "99")
    assert code == 2


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
