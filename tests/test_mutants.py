"""The recorded mutants of `tests/mutants.py` still fit the source."""
import pytest

from mutants import MUTANTS, ROOT, SUBSETS, source, subset_of


@pytest.mark.parametrize("k", range(len(MUTANTS)))
def test_every_snippet_occurs_once_in_the_current_source(k):
    module, snippet, replacement, reason = MUTANTS[k]
    assert source(module).count(snippet) == 1, (module, snippet)
    assert replacement != snippet and reason


def test_every_subset_runs_test_files_that_exist():
    assert {subset_of(module) for module, *_ in MUTANTS} == set(SUBSETS)
    for args in SUBSETS.values():
        paths = [a.partition("::")[0] for a in args
                 if a.startswith("tests/")]
        assert paths and all((ROOT / a).is_file() for a in paths)
