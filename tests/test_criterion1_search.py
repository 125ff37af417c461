"""Negative search behind acceptance criterion 1: no small edit of the
shipped `paper-GL15` expression gives the published erasure vector.

The shipped expression evaluates to (-2,-2,0,-2,-2,0,-2,-2,0,-2,0,0); the
published tuple is (-2,-2,0,-2,-2,0,-2,-2,-2,2,0,0).  If the display had a
one-symbol transcription slip, one of these edits would reproduce the
tuple:

- every single D-index edit (12 operators, 3 other indices each: 36);
- every single root-index edit (6 roots, 3 other indices each: 18);
- every single exponent edit within 0..3 (6 roots, 3 others each: 18);
- every move of one exponent unit from one root to another (30);
- one adjacent operator/factor swap (10), or two in a row (46 new chains).

That is 158 distinct variants, of which 151 pass the degree audit (the 7
others are refused as unbalanced, a ValueError: a raised exponent leaves
a nonconstant erasure).  None of the 151 gives the published tuple, nor even its
multiset, so no renumbering of the erasures would either.
`tests/test_acceptance.py` keeps criterion 1 and its published tuple
verbatim; this test only documents why it stays red.  `test_localization`
evaluates the shipped chain and the 151 audited variants by localization,
which shares no code with `demazure`, and gets the same entries: two
independent evaluators give the shipped vector, so the published -2, 2 at
entries 9 and 10 is not explained by the arithmetic.
"""
from collections import Counter

from heckekit.demazure import PAPER_GL15_TEXT, intersection_vector, parse_expr

PUBLISHED_VECTOR = [-2, -2, 0, -2, -2, 0, -2, -2, -2, 2, 0, 0]


def _chain():
    """PAPER_GL15_TEXT as a top-down list of ("D", i, None) operators and
    ("a", i, k) root powers; every root but the last is a factor step."""
    chain = []
    for tok in PAPER_GL15_TEXT.split():
        if tok[0] == "D":
            chain.append(("D", int(tok[1:]), None))
        elif tok[0] == "a":
            head, _, power = tok.partition("^")
            chain.append(("a", int(head[1:]), int(power or 1)))
    return chain


def _render(chain):
    words = [f"D{i}" if kind == "D" else f"a{i}^{k} *"
             for kind, i, k in chain[:-1]]
    _, i, k = chain[-1]
    return " ".join(words + ["(", f"a{i}^{k}", ")"])


def _swaps(chain):
    """Chains with one adjacent operator/factor pair exchanged."""
    for j in range(len(chain) - 2):       # the bottom root stays last
        if chain[j][0] != chain[j + 1][0]:
            out = list(chain)
            out[j], out[j + 1] = out[j + 1], out[j]
            yield out


def variants() -> dict[str, str]:
    """{variant text: kind of edit}, without the unedited chain."""
    chain = _chain()
    found: dict[str, str] = {}

    def add(kind, edited):
        found.setdefault(_render(edited), kind)

    roots = [j for j, step in enumerate(chain) if step[0] == "a"]
    for j, (kind, i, k) in enumerate(chain):
        for other in range(1, 5):
            if other != i:
                add("D-index" if kind == "D" else "root-index",
                    chain[:j] + [(kind, other, k)] + chain[j + 1:])
        if kind == "a":
            for other in range(4):
                if other != k:
                    add("exponent", chain[:j] + [(kind, i, other)]
                        + chain[j + 1:])
    for donor in roots:
        for taker in roots:
            if donor != taker and chain[donor][2] > 0:
                edited = list(chain)
                for j, step in ((donor, -1), (taker, 1)):
                    kind, i, k = edited[j]
                    edited[j] = (kind, i, k + step)
                add("move", edited)
    for once in _swaps(chain):
        add("one swap", once)
        for twice in _swaps(once):
            add("two swaps", twice)
    found.pop(_render(chain), None)
    return found


def test_no_small_edit_gives_the_published_vector():
    shipped = intersection_vector(parse_expr(_render(_chain())), 2).entries
    assert shipped == intersection_vector(parse_expr(PAPER_GL15_TEXT),
                                          2).entries
    found = variants()
    assert Counter(found.values()) == {
        "D-index": 36, "root-index": 18, "exponent": 18, "move": 30,
        "one swap": 10, "two swaps": 46}
    audited = 0
    for text in found:
        try:
            entries = intersection_vector(parse_expr(text), 2).entries
        except ValueError as exc:   # unbalanced
            assert str(exc).startswith("--expr is unbalanced"), text
            continue
        audited += 1
        assert entries != PUBLISHED_VECTOR, text
        assert sorted(entries) != sorted(PUBLISHED_VECTOR), text
    assert audited == 151
