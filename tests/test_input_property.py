"""Property tests of the word and word-data parsers on generated input:
every input either parses to in-range values, exactly as written, or is
rejected with a ValueError that names the flag or the field."""
import re

import pytest

from heckekit import cli
from heckekit.worddata import parse_word_data

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=200, deadline=None,
                               derandomize=True, database=None)

# letters: mostly well formed, with look-alikes that int() would accept
TOKEN = st.one_of(st.integers(-1, 7).map(str),
                  st.integers(0, 7).map("s{}".format),
                  st.sampled_from(["x", "s", "ss1", "1.5", "+1", "1_0",
                                   "٣", "0x1", "-", "True"]),
                  st.text(max_size=3))
TEXT = st.builds(lambda tokens, sep: sep.join(tokens),
                 st.lists(TOKEN, max_size=6), st.sampled_from([" ", ",", ", "]))
PERMS = st.integers(1, 6).flatmap(
    lambda k: st.permutations(range(1, k + 1))).map(
        lambda p: ",".join(map(str, p)))


def _tokens(text):
    return text.replace(",", " ").split()


@SETTINGS
@hypothesis.given(TEXT, st.integers(1, 6))
def test_parse_word_gives_generators_or_names_the_flag(text, n):
    try:
        word = cli.parse_word(text, n, "--word")
    except ValueError as exc:
        assert str(exc).startswith(f"--word {text!r}")
        return
    assert all(re.fullmatch(r"s?[0-9]+", t) for t in _tokens(text))
    assert word == tuple(int(t.lstrip("s")) for t in _tokens(text))
    assert all(1 <= g <= n - 1 for g in word)


@SETTINGS
@hypothesis.given(st.one_of(TEXT, PERMS), st.integers(1, 6))
def test_parse_perm_gives_permutations_or_names_the_flag(text, n):
    try:
        perm = cli.parse_perm(text, n, "--perm")
    except ValueError as exc:
        assert str(exc).startswith(f"--perm {text!r}")
        return
    assert all(re.fullmatch(r"[0-9]+", t) for t in _tokens(text))
    assert perm == tuple(map(int, _tokens(text)))
    assert sorted(perm) == list(range(1, n + 1))


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6),
              st.floats(-2, 6), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=8)
BITS = st.lists(st.sampled_from([[0], [1], [0, 1], [1, 0], [], [2], [True]]),
                min_size=3, max_size=4)
FIELD_VALUES = {
    "n": st.one_of(JSON, st.integers(-1, 6)),
    "word": st.one_of(JSON, st.lists(st.integers(0, 4), max_size=4)),
    "A": st.one_of(JSON, st.lists(st.integers(0, 4), max_size=3)),
    "B": st.one_of(JSON, st.lists(st.integers(0, 4), max_size=3)),
    "forced": st.one_of(JSON, st.just("letters-in-B"), BITS),
    "degree": JSON,
    "word_prefix": st.one_of(JSON, st.lists(st.integers(0, 4), max_size=3)),
    "census": st.one_of(JSON, st.dictionaries(
        st.sampled_from(["length", "free_positions", "other"]), JSON,
        max_size=2)),
}
BASE = {"n": 4, "word": [1, 2, 1], "A": [3], "B": [1], "forced": "letters-in-B",
        "degree": -1, "word_prefix": [1], "census": {"length": 3}}
FIELD_NAME = re.compile(r'"(n|word|A|B|forced|degree|word_prefix|census)"'
                        r'|\b(word|A|B|forced|word_prefix)\[\d+\]|census\.\w+')


def _is_ints(value, lo, hi):
    return isinstance(value, list) and all(
        type(v) is int and lo <= v <= hi for v in value)


@pytest.mark.parametrize("field", sorted(FIELD_VALUES))
@hypothesis.settings(SETTINGS, max_examples=60)
@hypothesis.given(data=st.data())
def test_parse_word_data_takes_json_ints_or_names_the_field(field, data):
    """One field of a valid record replaced by generated JSON, or dropped."""
    value = data.draw(st.one_of(st.just(KeyError), FIELD_VALUES[field]))
    raw = {k: v for k, v in BASE.items() if k != field}
    if value is not KeyError:
        raw[field] = value
    try:
        wd = parse_word_data(raw, "w.json")
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("word data w.json: ")
        assert FIELD_NAME.search(message), message
        if field != "n":       # a smaller n may put another field out of range
            assert field in message, message
        return
    n = raw["n"]
    assert type(n) is int and n >= 1
    for key, got, kind in (("word", wd.word, tuple),
                           ("A", wd.parabolic, frozenset)):
        if raw.get(key) is None:
            assert got is None
        else:
            assert _is_ints(raw[key], 1, n - 1) and got == kind(raw[key])
    assert _is_ints(raw.get("B", []), 1, n - 1)
    assert wd.lower == set(raw.get("B", []))
    assert raw.get("forced", "letters-in-B") == "letters-in-B"
    assert type(wd.degree) is int and wd.degree == raw.get("degree", -1)
    assert _is_ints(raw.get("word_prefix", []), -10 ** 9, 10 ** 9)
    census = raw.get("census") or {}
    assert all(type(census[k]) is int
               for k in ("length", "free_positions") if k in census)


@SETTINGS
@hypothesis.given(JSON)
def test_parse_word_data_rejects_any_other_json_with_value_error(raw):
    try:
        parse_word_data(raw)
    except ValueError as exc:
        assert str(exc).startswith("word data <memory>: ")
