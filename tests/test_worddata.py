import json
import random

import pytest

from heckekit import coxeter, subexpr, worddata
from heckekit.worddata import (
    load_word_data,
    parse_word_data,
    validate_word_data,
)


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
            return [(z, data[z]) for z in subexpr.interval_endpoints(
                data, n, wd.parabolic, x)]

        got = entries(wd.constraint())
        assert got == entries(None), (n, word, A, B)
        kept += 1
        nonempty += bool(got)
    assert nonempty > 100


def test_x_and_w_elements():
    wd = load_word_data("demo-s4-pass")
    assert wd.x_element() == (2, 1, 3, 4)
    w = wd.w_element()
    assert coxeter.is_min_coset_rep(w, wd.parabolic)
