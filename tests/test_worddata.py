import contextlib
import io
import json
import random

import pytest

from heckekit import cli, coxeter, demazure, subexpr, worddata
from heckekit.worddata import (
    load_word_data,
    parse_word_data,
    validate_word_data,
)
from oracles import backward_coefficient


def test_builtin_demos_load_and_validate():
    for name in ("demo-s4-fail", "demo-s4-pass"):
        wd = load_word_data(name)
        assert wd.word is not None and wd.parabolic is not None
        rep = validate_word_data(wd)
        assert rep.ok and rep.complete, rep.to_json_dict()


def test_partial_gl15_loads_but_is_incomplete():
    wd = load_word_data("gl15-partial")
    assert wd.word is None
    assert wd.parabolic is None
    assert wd.lower == frozenset(range(5, 15))
    assert wd.census["length"] == 78
    assert len(wd.word_prefix) == 44
    rep = validate_word_data(wd)
    assert not rep.complete
    assert any(c.name == "word-present" and not c.ok for c in rep.checks)


def test_forced_count_matches_length_of_wB_for_gl15():
    """len(w_B) for B = {5..14} in S_15 equals the 55 forced positions
    implied by the published 2^23 count."""
    wd = load_word_data("gl15-partial")
    wB = wd.x_element()
    assert coxeter.length(wB) == 55
    assert int(wd.census["length"]) - int(wd.census["free_positions"]) == 55


@pytest.mark.parametrize("word, B, ok", [
    ([1, 1, 1], [1], False),        # s_1 thrice is w_B, by three letters
    ([2, 1, 2, 3], [2, 3], False),  # three letters that multiply to s_3
    ([2, 1, 3, 2], [2, 3], True),   # s_2 s_3 s_2 is w_B
])
def test_forced_count_check_needs_the_count_and_the_product(word, B, ok):
    rep = validate_word_data(parse_word_data(
        {"n": max(word) + 1, "word": word, "A": [], "B": B}))
    [check] = [c for c in rep.checks
               if c.name == "forced-count-is-length-of-wB"]
    assert check.ok is ok, check.detail


def test_n_up_to_the_fold_byte_bound_is_accepted():
    # "n" = 256 is rejected (test_parse_names_the_bad_field): the fold
    # keeps a coset as one byte per value
    assert parse_word_data({"n": subexpr.MAX_N, "word": [254]}).n == 255


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_word_data({"n": 0})
    with pytest.raises(ValueError):
        parse_word_data({"n": 4, "word": [9], "A": [], "B": []})
    with pytest.raises(ValueError):
        parse_word_data({"n": 4, "word": [1], "A": [7], "B": []})
    with pytest.raises(ValueError):
        parse_word_data({"n": 4, "word": [1, 2], "A": [], "B": [],
                         "forced": [[0, 1]]})


@pytest.mark.parametrize("changes,message", [
    ({"n": 4.7}, '"n" must be an integer, got 4.7'),
    ({"n": True}, '"n" must be an integer, got True'),
    ({"word": "123"}, '"word" must be a list of integers, got \'123\''),
    ({"word": [1, 2, 1.9]}, "word[2] must be an integer, got 1.9"),
    ({"word": [1, 2, 3, 4]}, "word[3] = 4 is not in 1..3"),
    ({"A": "2"}, '"A" must be a list of integers, got \'2\''),
    ({"B": [True]}, "B[0] must be an integer, got True"),
    ({"degree": 1.9}, '"degree" must be an integer, got 1.9'),
    ({"forced": [[0, 1], [1], [0, 1]]},
     '"forced" must be "letters-in-B", got [[0, 1], [1], [0, 1]]'),
    ({"forced": "letters-in-b"},
     '"forced" must be "letters-in-B", got \'letters-in-b\''),
    ({"forced": 5}, '"forced" must be "letters-in-B", got 5'),
    ({"word_prefix": ["1"]}, "word_prefix[0] must be an integer, got '1'"),
    ({"census": {"length": "3"}},
     "census.length must be an integer, got '3'"),
    ({"n": 256}, '"n" must be at most 255, got 256'),
])
def test_parse_names_the_bad_field(changes, message):
    raw = {"n": 4, "word": [1, 2, 1], "A": [3], "B": [], "degree": -1}
    parse_word_data(raw)
    with pytest.raises(ValueError) as exc:
        parse_word_data({**raw, **changes}, "w.json")
    assert str(exc.value).startswith("word data w.json: " + message)


def test_census_validation_flags_mismatches(tmp_path):
    raw = {
        "n": 4,
        "word": [1, 2, 1],
        "word_prefix": [1, 2],
        "A": [3],
        "B": [],
        "forced": "letters-in-B",
        "degree": -1,
        "census": {"length": 4, "free_positions": 2,
                   "letters_index_le_3": 3},
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(raw))
    wd = load_word_data(path)
    rep = validate_word_data(wd)
    by_name = {c.name: c.ok for c in rep.checks}
    assert by_name["documented-prefix"]
    assert not by_name["census-length"]
    assert not by_name["census-free-positions"]
    assert by_name["census-low-letters"]
    assert not rep.complete


@pytest.mark.parametrize("word,prefix,detail", [
    ([1, 2, 3, 1, 2, 1], [1, 2, 3, 1, 2, 2],
     "prefix mismatch at position 6: word has 1, prefix has 2"),
    ([2, 1, 2], [1, 2], "prefix mismatch at position 1: word has 2, "
                        "prefix has 1"),
    ([1, 2], [1, 2, 3], "word has 2 letters, fewer than the 3 of the prefix"),
    ([1, 2, 3], [1, 2, 3], "word starts with the documented prefix"),
])
def test_prefix_check_names_the_first_difference(word, prefix, detail):
    wd = parse_word_data({"n": 4, "word": word, "word_prefix": prefix,
                          "A": [], "B": []})
    (check,) = [c for c in validate_word_data(wd).checks
                if c.name == "documented-prefix"]
    assert (check.ok, check.detail) == (word[:len(prefix)] == prefix, detail)


def test_non_reduced_word_flagged():
    wd = parse_word_data({"n": 4, "word": [1, 1], "A": [], "B": [],
                          "forced": "letters-in-B", "degree": -1})
    rep = validate_word_data(wd)
    assert any(c.name == "word-reduced" and not c.ok for c in rep.checks)


def test_x_not_minimal_flagged():
    # A = B = {1}: w_B = s1 has a right descent in A
    wd = parse_word_data({"n": 4, "word": [1], "A": [1], "B": [1],
                          "forced": "letters-in-B", "degree": -1})
    rep = validate_word_data(wd)
    by_name = {c.name: c.ok for c in rep.checks}
    assert not by_name["A-B-disjoint"]
    assert not by_name["x-is-minimal-rep"]


def test_constraint_forces_the_letters_of_B():
    wd = parse_word_data({"n": 5, "word": [2, 3, 4, 1, 3, 2], "A": [1, 3],
                          "B": [4, 2]})
    assert wd.constraint().forced == {0, 2, 5}


def test_forcing_the_letters_of_B_keeps_every_interval_coefficient():
    """Criterion 6's guarantee for the one rule that word data states: on
    word data that passes validation, `constraint()` leaves every entry
    of the interval check as the unconstrained expansion has it."""
    rng = random.Random(20)
    kept = nonempty = 0
    while kept < 200:
        n = rng.choice((4, 5))
        gens = range(1, n)
        B = [g for g in gens if rng.random() < 0.3]
        A = [g for g in gens if g not in B and rng.random() < 0.5]
        word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        wd = parse_word_data({"n": n, "word": word, "A": A, "B": B})
        if not validate_word_data(wd).complete:
            continue
        x = wd.x_element()

        def entries(constraint):
            data = subexpr.sweep(wd.word, n, wd.parabolic, constraint)
            return [(z, data[tuple(z)]) for z in data.above(x)[0]]

        got = entries(wd.constraint())
        assert got == entries(None), (n, word, A, B)
        kept += 1
        nonempty += bool(got)
    assert nonempty > 100


def test_x_and_w_elements():
    wd = load_word_data("demo-s4-pass")
    assert wd.x_element() == (2, 1, 3, 4)
    rep = worddata.decide(demazure.builtin_expr("paper-GL15"), 2,
                          wd).validation
    assert rep.x == wd.x_element()
    assert rep.w == coxeter.min_coset_rep(
        coxeter.evaluate_word(wd.word, wd.n), wd.parabolic)
    assert coxeter.is_min_coset_rep(rep.w, wd.parabolic)


def _certify(word):
    """`certify` on `word` (or on no word): its exit code, its payload
    with the interval's entries cut out and counted, and the record that
    `decide` returned to it."""
    records = []
    decide = worddata.decide
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(stdout):
        patch.setattr(worddata, "decide",
                      lambda *args: records.append(decide(*args))
                      or records[-1])
        code = cli.main(["certify"] + (["--word", word] if word else []))
    out, entries = stdout.getvalue(), ""
    if '"failures":' in out:   # the interval's entries close the last list
        head, _, rest = out.rpartition('"entries":[')
        entries, _, tail = rest.partition('],"failures":')
        out = head + '"entries":null,"failures":' + tail
    (d,) = records
    return code, json.loads(out), entries.count('{"coefficient":'), d


@pytest.fixture(scope="module")
def gl15_certified():
    """`_certify` on `gl15-reconstructed`, run once for the tests of this
    module that read the real-size word."""
    return _certify("gl15-reconstructed")


@pytest.mark.parametrize("word", ["demo-s4-pass", "demo-s4-fail",
                                  "gl15-partial", "gl15-reconstructed", None])
def test_decide_holds_what_certify_prints(word, request):
    """`certify` prints the values of the record `decide` returns: the
    verdict, the interval status, x and w, the histogram at x, the
    number of cosets in the interval, and the failures in order.  The
    entries of the large interval are counted in the text, not decoded."""
    code, payload, entries, d = (request.getfixturevalue("gl15_certified")
                                 if word == "gl15-reconstructed"
                                 else _certify(word))
    rep = d.validation
    assert code == (0 if d.verdict else 1)
    assert payload["verdict"] is d.verdict
    assert payload["interval"]["status"] == d.status
    assert payload["rank_conditions"] == {
        "rank_Q": d.form.rank_over_Q, "rank_p": d.form.rank_over_p,
        "ok": d.rank_ok}
    if d.sweep is None:
        assert payload["histogram_at_x"] is None
        assert rep is None or rep.x is None
        assert (d.inside, d.failures) == ([], [])
        return
    w = payload["word"]
    assert (w["x"], w["w"], w["free_positions"], w["subexpressions"]) == (
        list(rep.x), list(rep.w), len(rep.constraint.free_positions()),
        rep.constraint.leaf_count())
    assert payload["histogram_at_x"] == {
        str(e): k for e, k in d.sweep[rep.x].items()}
    assert d.inside == sorted(d.inside)
    assert all(type(z) is bytes for z in d.inside)
    assert payload["interval"]["cosets_in_interval"] == len(d.inside) == \
        entries
    assert [f["coset"] for f in payload["interval"]["failures"]] == [
        list(d.inside[k]) for k in d.failures]


def _check_against_the_backward_oracle(wd, d, picks):
    """The fold's histogram at x and at the interval cosets whose
    positions in `d.inside` are `picks`, against
    `oracles.backward_coefficient`, and each such coset's place in
    x < z <= w against `coxeter.bruhat_leq`; returns the oracle's
    coefficient at x."""
    rep = d.validation
    x, forced = rep.x, rep.constraint.forced
    at_x = backward_coefficient(wd.word, wd.n, wd.parabolic, forced, x)
    assert at_x == d.sweep[x]
    for k in picks:
        z = tuple(d.inside[k])
        assert z != x and coxeter.bruhat_leq(x, z) and \
            coxeter.bruhat_leq(z, rep.w), z
        assert backward_coefficient(wd.word, wd.n, wd.parabolic, forced,
                                    z) == d.histograms[d.ids[k]], z
    return at_x


def test_real_size_intervals_agree_with_the_backward_oracle(gl15_certified):
    """The coefficients that the verdict rests on, at real size, against
    a fold that shares no code with `sweep`: on `gl15-reconstructed`,
    decided once for this module, at x, whose coefficient starts
    v^-1 + 12 v, and at 200 seeded interval cosets; on synthetic seed 1,
    at x and at 100 seeded failures, each of which has a negative
    power of v."""
    from compare_trees import synthetic_word

    rng = random.Random(25)
    d = gl15_certified[3]
    at_x = _check_against_the_backward_oracle(
        load_word_data("gl15-reconstructed"), d,
        rng.sample(range(len(d.inside)), 200))
    assert list(at_x.items())[:2] == [(-1, 1), (1, 12)]
    wd = parse_word_data(synthetic_word(1))
    d = worddata.decide(demazure.builtin_expr("paper-GL15"), 2, wd)
    picks = rng.sample(d.failures, 100)
    _check_against_the_backward_oracle(wd, d, picks)
    assert all(min(d.histograms[d.ids[k]]) < 0 for k in picks)


def test_decide_without_word_data_decides_the_ranks_alone():
    d = worddata.decide(demazure.builtin_expr("paper-GL15"), 2)
    assert (d.rank_ok, d.status, d.verdict) == (
        True, "skipped: no word data", False)
    assert d.validation is None and d.sweep is None
    assert set(d.seconds) == {"intersection_form_seconds"}


def test_decide_fails_the_ranks_over_another_prime():
    # paper-GL15's erasure row is 2 times a primitive row, so that over
    # F_3 it keeps rank 1
    d = worddata.decide(demazure.builtin_expr("paper-GL15"), 3,
                        load_word_data("demo-s4-pass"))
    assert (d.form.rank_over_Q, d.form.rank_over_p) == (1, 1)
    assert (d.rank_ok, d.status, d.verdict) == (False, "ok", False)


def test_decide_fails_the_ranks_on_a_zero_erasure_row():
    # del_1 del_1 = 0 and del_1 (x1 x2) = 0: both erasures are 0
    d = worddata.decide(demazure.parse_expr("D1 D1 ( x1 * x2 )"), 2,
                        load_word_data("demo-s4-pass"))
    assert d.form.entries == [0, 0]
    assert (d.rank_ok, d.status, d.verdict) == (False, "ok", False)


def test_decide_refuses_word_data_that_fails_validation():
    wd = parse_word_data({"n": 4, "word": [1, 1], "A": [], "B": []}, "w")
    with pytest.raises(ValueError, match="word data w fails validation: "
                                         "word-reduced: word is not reduced"):
        worddata.decide(demazure.builtin_expr("paper-GL15"), 2, wd)


def test_decide_applies_the_failure_rule_to_each_coset():
    """A coset fails iff its coefficient has a negative power of v,
    `failing` flags the same at the coset's histogram id, and `failures`
    holds the coset's position in `inside`."""
    d = worddata.decide(demazure.builtin_expr("paper-GL15"), 2,
                        load_word_data("demo-s4-fail"))
    assert [d.inside[k] for k in d.failures] == [bytes((2, 1, 3, 4))]
    assert d.status == "failed"
    for k, (z, i) in enumerate(zip(d.inside, d.ids)):
        negative = min(d.sweep[tuple(z)]) < 0
        assert d.failing[i] is negative
        assert (k in d.failures) is negative


def test_decide_gives_each_distinct_histogram_one_id(tmp_path):
    """The k-th coset of the interval has the histogram
    `histograms[ids[k]]`, the histograms are pairwise distinct,
    `failing` flags the histograms with a negative defect, and
    `failures` holds, in order, the positions of the cosets whose own
    histogram has one: on both demos, `gl15-partial` (no word, so
    nothing) and seeded words with failing cosets and repeated
    histograms."""
    from test_cli import _failing_word_files

    expr = demazure.builtin_expr("paper-GL15")
    failed = 0
    for word in (["demo-s4-fail", "demo-s4-pass", "gl15-partial"]
                 + _failing_word_files(tmp_path, 12)):
        d = worddata.decide(expr, 2, load_word_data(word))
        if d.sweep is None:
            assert (d.inside, d.histograms, d.ids, d.failing,
                    d.failures) == ([], [], [], [], [])
            continue
        hists = [d.sweep[tuple(z)] for z in d.inside]
        assert len(d.ids) == len(d.inside)
        assert [d.histograms[i] for i in d.ids] == hists
        assert len({tuple(h.items()) for h in d.histograms}) == \
            len(d.histograms)
        assert d.failing == [min(h) < 0 for h in d.histograms]
        assert d.failures == [k for k, h in enumerate(hists) if min(h) < 0]
        failed += bool(d.failures)
    assert failed == 13
