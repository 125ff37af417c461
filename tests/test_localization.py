"""An independent check of the erasure vector, by localization.

`demazure.intersection_vector` evaluates each erasure with the closed
form of del_i on packed monomials.  Here the same chain is
read by a reader of its own and evaluated at rational points instead:
an operator step is

    del_i g (P) = (g(P) - g(s_i P)) / (P_{i+1} - P_i),

with alpha_i = x_{i+1} - x_i as in `demazure`, and a factor step
multiplies pointwise.  Values are memoised on (step, point), so a chain
costs its length times the points its operators reach.  Each erasure is
a polynomial of degree 0, so its value at any point with distinct
coordinates is the exact integer entry; a nonconstant erasure (one the
degree audit rejects) shows as two points that disagree.

The two evaluators share no code, so their agreement on paper-GL15 means
that criterion 1's red comes from the shipped expression, not from the
arithmetic: the published entries 9 and 10, (-2, 2), are not what the
shipped chain evaluates to by either method.
"""
import random
import re
from fractions import Fraction

from heckekit.demazure import PAPER_GL15_TEXT, intersection_vector, parse_expr
from test_criterion1_search import variants

_TOKEN = re.compile(r"D(\d+)|([ax])(\d+)(?:\^(\d+))?|(-?\d+)|[()*]")


def read_chain(text):
    """(steps, base, variables) for a text that `parse_expr` accepts.

    Steps run top-down; an operator is ("D", i) and a factor step is
    ("F", atoms), above the base, the atoms of the last product.  An atom
    is ("a", i, k) for alpha_i^k, ("x", i, k) for x_i^k or ("c", c, 1).
    In such a text brackets only nest: each product followed by `*` and
    an operator or a bracket is a factor step, and the last one is the
    base, so the reader drops the brackets and the `*` signs.
    """
    steps, atoms, nvars = [], [], 1
    for match in _TOKEN.finditer(text):
        op, kind, index, power, const = match.groups()
        if op is not None:
            if atoms:
                steps.append(("F", atoms))
                atoms = []
            steps.append(("D", int(op)))
            nvars = max(nvars, int(op) + 1)
        elif kind is not None:
            atoms.append((kind, int(index), int(power or 1)))
            nvars = max(nvars, int(index) + (kind == "a"))
        elif const is not None:
            atoms.append(("c", int(const), 1))
    return steps, atoms, nvars


def _atoms_at(atoms, x):
    """The product of `atoms` where x(i) is the coordinate x_i."""
    out = Fraction(1)
    for kind, i, k in atoms:
        if kind == "c":
            out *= i
        elif kind == "x":
            out *= x(i) ** k
        else:
            out *= (x(i + 1) - x(i)) ** k
    return out


def erasures_at(chain, point):
    """The value of every erasure of `chain` at `point`, in prefix order.

    Erasure k evaluates the chain with operator k acting as the identity.
    Below that operator its values are the unerased chain's, so they are
    memoised once for all erasures.  The points reached are permutations
    of `point`, keyed by the permutation of its coordinates."""
    steps, base, _ = chain
    ops = [j for j, step in enumerate(steps) if step[0] == "D"]
    memo, factors = {}, {}

    def factor(j, perm):
        # the factor of step j (the base for j = len(steps)) at perm
        if (j, perm) not in factors:
            atoms = base if j == len(steps) else steps[j][1]
            factors[j, perm] = _atoms_at(atoms, lambda i: point[perm[i - 1]])
        return factors[j, perm]

    def value(j, perm, erased):
        # steps[j:] over the base at the point that perm picks
        key = (j, perm, erased if j <= erased else None)
        if key in memo:
            return memo[key]
        if j == len(steps):
            val = factor(j, perm)
        elif j == erased:
            val = value(j + 1, perm, erased)
        elif steps[j][0] == "F":
            val = factor(j, perm) * value(j + 1, perm, erased)
        else:
            i = steps[j][1]
            swapped = perm[:i - 1] + (perm[i], perm[i - 1]) + perm[i + 1:]
            val = ((value(j + 1, perm, erased)
                    - value(j + 1, swapped, erased))
                   / (point[perm[i]] - point[perm[i - 1]]))
        memo[key] = val
        return val

    start = tuple(range(len(point)))
    return [value(0, start, j) for j in ops]


def _points(rng, nvars, count=2):
    """`count` points with distinct rational coordinates."""
    out = []
    while len(out) < count:
        p = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 7))
                  for _ in range(nvars))
        if len(set(p)) == nvars:
            out.append(p)
    return out


def localized_vector(text, rng, count=2):
    """The erasure vector by localization at `count` random points, or
    None when they disagree on some erasure (a nonconstant erasure)."""
    chain = read_chain(text)
    first, *others = (erasures_at(chain, p)
                      for p in _points(rng, chain[2], count))
    if any(values != first for values in others):
        return None
    assert all(v.denominator == 1 for v in first), text
    return [int(v) for v in first]


def test_reader_takes_the_chain_apart():
    steps, base, nvars = read_chain("x2 * D1 ( a3^2 * 5 * D2 ( x1 * a1 ) )")
    assert steps == [("F", [("x", 2, 1)]), ("D", 1),
                     ("F", [("a", 3, 2), ("c", 5, 1)]), ("D", 2)]
    assert base == [("x", 1, 1), ("a", 1, 1)]
    assert nvars == 4


def test_divided_difference_at_a_point():
    # del_1 x1^2 = -(x1 + x2) and del_1 (x2 x1^2) = -x1 x2: erasing the
    # outer operator of D1 ( x2 * D1 ( x1^2 ) ) leaves -x2 (x1 + x2), and
    # erasing the inner one leaves -x1 x2
    chain = read_chain("D1 ( x2 * D1 ( x1^2 ) )")
    p = (Fraction(3), Fraction(1, 2))
    assert erasures_at(chain, p) == [Fraction(-7, 4), Fraction(-3, 2)]


def test_paper_gl15_by_localization():
    rng = random.Random(10)
    vector = localized_vector(PAPER_GL15_TEXT, rng)
    assert vector == [-2, -2, 0, -2, -2, 0, -2, -2, 0, -2, 0, 0]
    assert vector == intersection_vector(parse_expr(PAPER_GL15_TEXT)).entries


def test_criterion1_variants_by_localization():
    """Every edit of paper-GL15 that `test_criterion1_search` tries: the
    151 that pass the degree audit give `intersection_vector`'s entries
    at a random point, and the 7 that fail it disagree between two."""
    rng = random.Random(11)
    agreed = rejected = 0
    for text in variants():
        try:
            want = intersection_vector(parse_expr(text)).entries
        except ValueError as exc:   # unbalanced
            assert str(exc).startswith("--expr is unbalanced"), text
            assert localized_vector(text, rng) is None, text
            rejected += 1
            continue
        assert localized_vector(text, rng, 1) == want, text
        agreed += 1
    assert (agreed, rejected) == (151, 7)


def _random_chain(rng):
    """A seeded chain whose erasures all have degree 0: N operators over
    N - 1 units of content (alpha_i or x_i, one unit each), spread over
    the base and some factor steps, in 2..5 variables."""
    nvars = rng.randint(2, 5)
    n_ops = rng.randint(1, 7)

    def atom():
        if rng.random() < 0.6:
            return f"a{rng.randint(1, nvars - 1)}"
        return f"x{rng.randint(1, nvars)}"

    steps = [f"D{rng.randint(1, nvars - 1)}" for _ in range(n_ops)]
    units = n_ops - 1
    factors = []
    while units:
        k = rng.randint(1, units)
        units -= k
        factors.append(" * ".join(atom() for _ in range(k)))
    base = factors.pop() if factors else str(rng.choice((1, 2, -3)))
    for f in factors:
        steps.insert(rng.randrange(len(steps)), f"{f} *")
    depth = rng.randrange(len(steps) + 1)
    return (" ".join(steps[:depth]) + " ( " + " ".join(steps[depth:])
            + f" {base} )")


def test_seeded_chains_by_localization():
    rng = random.Random(12)
    nonzero = 0
    for _ in range(300):
        text = _random_chain(rng)
        want = intersection_vector(parse_expr(text)).entries
        assert localized_vector(text, rng) == want, text
        nonzero += any(want)
    assert nonzero >= 60
