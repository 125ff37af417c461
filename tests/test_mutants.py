"""The recorded mutants of `tests/mutants.py` still fit the source."""
import pytest

from mutants import MUTANTS, source


@pytest.mark.parametrize("k", range(len(MUTANTS)))
def test_every_snippet_occurs_once_in_the_current_source(k):
    module, snippet, replacement, reason = MUTANTS[k]
    assert source(module).count(snippet) == 1, (module, snippet)
    assert replacement != snippet and reason
