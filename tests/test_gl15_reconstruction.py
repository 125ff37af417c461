"""Cheap checks of the builtin word `gl15-reconstructed`.

The word is a reconstruction of the GL15 example's 78-letter expression
from its documented prefix, its census and the Demazure display
`paper-GL15`, not a transcription.  Its full `certify` run (2^23
subexpressions, about 750,000 cosets) is not here: it runs in
`tests/test_worddata.py` as
`test_decide_holds_what_certify_prints[gl15-reconstructed]`.
"""
import re

from heckekit import demazure, worddata


def _words():
    return (worddata.load_word_data("gl15-reconstructed"),
            worddata.load_word_data("gl15-partial"))


def test_reconstruction_validates_against_the_census():
    wd, partial = _words()
    report = worddata.validate_word_data(wd)
    assert report.ok and report.complete, report.to_json_dict()
    assert wd.census == partial.census
    assert wd.parabolic == {1, 2, 3} and wd.lower == partial.lower


def test_reconstruction_starts_with_the_documented_prefix():
    wd, partial = _words()
    assert len(partial.word_prefix) == 44
    assert wd.word_prefix == partial.word_prefix
    assert wd.word[:44] == partial.word_prefix


def test_free_letters_spell_the_demazure_display():
    # read top-down, D_i is a letter s_i and a4^k is k letters s_4 (the
    # base polynomial a4^2 included)
    spelled = []
    for op, power in re.findall(r"D([0-9]+)|a4(?:\^([0-9]+))?",
                                demazure.PAPER_GL15_TEXT):
        spelled += [int(op)] if op else [4] * int(power or 1)
    wd, _ = _words()
    free = [t for t in wd.word if t <= 4]
    assert len(free) == 23
    assert free == spelled


def test_low_letter_positions():
    wd, _ = _words()
    low = [k for k, t in enumerate(wd.word, 1) if t <= 3]
    assert low == [1, 2, 3, 15, 16, 36, 52, 53, 54, 66, 67, 75]
