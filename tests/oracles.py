"""
Slow references that the tests compare heckekit's product paths against.

Subexpressions, against `subexpr.sweep`: `iter_subexpressions` walks every
allowed subexpression depth first and yields one decorated record per
subexpression; `decorate` decorates one subexpression straight from the
definitions.  Neither shares code with the packed fold.  Unlike
`subexpr.EnumConstraint`, which only forces positions to 1, a constraint
here is a sequence of per-position allowed-bit sets, each (0,), (1,) or
(0, 1), so the oracles also cover positions forced to 0.  `fold` is the
fold itself, written out one letter at a time on unpacked histograms;
it takes forced positions as `EnumConstraint` does.

The Bruhat order, against `SweepResult.above`: `bruhat_above(x)`
tests one coset z at a time, on a packed table of z's rank entries at
the essential set of x (built by `rank_packing`) and one guard-bit
subtraction, where the product tests a chunk of cosets at once, one
byte column at a time.  `interval_endpoints` checks x against n and A
and runs `above` on a `SweepResult` that holds the given cosets, so the
tests can hand it an x and cosets of their own; `worddata.decide` calls
`above` on the fold, with an x that validation has checked.

The fold at real size, against `subexpr.sweep`: `backward_coefficient`
reads one coefficient of the expansion by folding the word the other
way, from m_z to the identity, one coset at a time through
`apply_gen_left`.

Length, against `coxeter.length`: `inversions` counts the pairs i < j
with p(i) > p(j) by two nested loops.

Generators, against `coxeter.coset_step`, the package's one left action:
`apply_gen_left` and `apply_gen_right` multiply a permutation by s_i on
either side, and `has_left_descent` and `has_right_descent` say whether
that shortens it.  `decorate` and `mult_by_gen` step through these, so
they share no step code with the product.

The Hecke algebra, against `hecke.pairing`: `multiply` forms a full
product generator by generator, and `eps` and `a_antiautomorphism` give
the pairing by its definition eps(a(a) b).

The term-map sums, against `laurent._add_product` and its callers, which
read and store the elements' term maps: `b_step`, `mult_by_gen` and
`add_scaled` read an element's coefficients as LaurentPolys, through
`coeffs`, form every term as a LaurentPoly product (`c * v`,
`c * (v + v^-1)`, ...), add it in with LaurentPoly `+` and build the
result through the public constructor, and `multipoly_mul` multiplies
two `MultiPoly`s through `zip` and the validating constructor;
`bott_samelson_spherical` folds a word through `b_step`; `phi_embed`
forms each term of the embedding M -> H as a product, and `pi_tilde`
sums v^{2 len(u)} over W_A, both enumerating W_A and counting lengths
anew on every call.  `multiply` and
`a_antiautomorphism` are built on them, so the pairing reference shares
no sum with `hecke`.

The spherical form, against `spherical.spherical_pairing`: the
definition (phi(a), phi(b)) / pi~(A), both arguments embedded by
`phi_embed`, paired in H by `hecke.pairing` (itself checked against
eps(a(a) b)) and divided by `pi_tilde` with `LaurentPoly.exact_divide`,
which raises unless the division is exact.

Demazure chains, against `demazure`'s packed evaluation: `apply_demazure`
applies del_i to a `MultiPoly` term by term on exponent tuples, by the
closed form, and `apply_steps` and `chain_value` run a chain's
`MultiPoly` steps, with or without one operator, through it and
`MultiPoly.__mul__`, so they share no step code with the packed one.

The certificate report, against `heckekit certify`: `certify_text` builds
the whole payload from the histograms of `fold` and renders it with one
json.dumps.
"""
from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Iterator, Sequence

from heckekit import coxeter, demazure, subexpr, worddata
from heckekit.coxeter import Permutation
from heckekit.demazure import MultiPoly
from heckekit.hecke import HeckeElement, inverse_h, pairing
from heckekit.laurent import LaurentPoly

Slots = Sequence[Sequence[int]]


def _add_into(out: dict, key, c) -> None:
    """Add c into out[key], dropping the key when the sum is zero: the
    oracles' own sum, which shares no code with `laurent._add_product`."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def inversions(p: Permutation) -> int:
    """The number of pairs i < j with p(i) > p(j): the Coxeter length."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def apply_gen_left(i: int, p: Permutation) -> Permutation:
    """s_i * p: swap the values i and i+1 in one-line notation."""
    out = list(p)
    a = out.index(i)
    b = out.index(i + 1)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def apply_gen_right(p: Permutation, i: int) -> Permutation:
    """p * s_i: swap the entries at positions i and i+1."""
    out = list(p)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def has_right_descent(p: Permutation, i: int) -> bool:
    """len(p * s_i) < len(p), i.e. p(i) > p(i+1)."""
    return p[i - 1] > p[i]


def has_left_descent(p: Permutation, i: int) -> bool:
    """len(s_i * p) < len(p), i.e. i appears after i+1 in one-line notation."""
    return p.index(i) > p.index(i + 1)


class DecoratedSubexpression:
    __slots__ = ("bits", "decorations", "endpoint", "defect")

    def __init__(self, bits: tuple[int, ...], decorations: tuple[str, ...],
                 endpoint: Permutation, defect: int):
        self.bits = bits
        self.decorations = decorations
        self.endpoint = endpoint  # minimal rep of the product coset
        self.defect = defect

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecoratedSubexpression):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)


def forced_slots(length: int, forced) -> tuple[tuple[int, ...], ...]:
    """The allowed-bit sets of a word of `length` letters whose positions
    in `forced` (0-based) are forced to 1: what `subexpr.EnumConstraint`
    states."""
    return tuple((1,) if k in forced else (0, 1) for k in range(length))


def decorate(word: Sequence[int], bits: Sequence[int], n: int,
             parabolic) -> DecoratedSubexpression:
    """Decorate one subexpression, straight from the definitions.

    Keeps the full suffix products y_j (not just their cosets) and
    classifies each step by comparing the minimal coset representatives
    of y and s_i y, so it is independent of the coset-step rule
    (`coxeter.coset_step`) that the enumerator and the fold use.
    """
    m = len(word)
    if len(bits) != m:
        raise ValueError(f"bit sequence length {len(bits)} != word length {m}")
    A = frozenset(parabolic)
    y = coxeter.identity(n)
    decorations = ["?"] * m
    defect = 0
    for j in range(m, 0, -1):  # y before this step is y_{m-j}
        i = word[j - 1]
        e = bits[j - 1]
        sy = apply_gen_left(i, y)
        u = coxeter.min_coset_rep(y, A)
        su = coxeter.min_coset_rep(sy, A)
        d = ("S" if su == u else
             "U" if coxeter.length(su) > coxeter.length(u) else "D")
        decorations[j - 1] = d
        if (d, e) in (("U", 0), ("S", 1)):
            defect += 1
        elif (d, e) in (("D", 0), ("S", 0)):
            defect -= 1
        if e:
            y = sy
    endpoint = coxeter.min_coset_rep(y, A)
    return DecoratedSubexpression(tuple(bits), tuple(decorations), endpoint,
                                  defect)


def _walk_input(word: Sequence[int], n: int, parabolic,
                constraint: Slots | None) -> tuple[tuple, frozenset]:
    """(allowed-bit sets, A) for a walk over `word` in S_n: all free by
    default, each set checked, their number checked against the word,
    and every letter and every generator of A checked to lie in 1..n-1."""
    if constraint is None:
        constraint = ((0, 1),) * len(word)
    slots = []
    for s in constraint:
        t = tuple(sorted(set(s)))
        if t not in ((0,), (1,), (0, 1)):
            raise ValueError(f"invalid allowed-bit set {s!r}")
        slots.append(t)
    if len(slots) != len(word):
        raise ValueError("constraint length != word length")
    A = frozenset(parabolic)
    coxeter.check_generators(word, n)
    coxeter.check_generators(A, n, "parabolic generator")
    return tuple(slots), A


def iter_subexpressions(word: Sequence[int], n: int, parabolic,
                        constraint: Slots | None = None,
                        ) -> Iterator[DecoratedSubexpression]:
    """Visit every allowed subexpression exactly once, depth first.

    Positions are processed from m down to 1 with branch 0 before branch 1,
    so e_1 varies fastest in the emitted sequence.  Each step goes through
    `coxeter.coset_step`, and the coset, as its minimal representative,
    is passed down the recursion.
    """
    constraint, A = _walk_input(word, n, parabolic, constraint)
    m = len(word)
    bits = [0] * m
    decorations = ["?"] * m

    def walk(k: int, u: Permutation,
             defect: int) -> Iterator[DecoratedSubexpression]:
        if k == m:
            yield DecoratedSubexpression(tuple(bits), tuple(decorations),
                                         u, defect)
            return
        j = m - 1 - k  # word position (0-based) handled at depth k
        d, su = coxeter.coset_step(u, word[j], A)
        decorations[j] = d
        for e in constraint[j]:
            bits[j] = e
            if e == 0:
                yield from walk(k + 1, u, defect + (1 if d == "U" else -1))
            else:
                yield from walk(k + 1, su, defect + (1 if d == "S" else 0))

    yield from walk(0, coxeter.identity(n), 0)


def aggregate(word: Sequence[int], n: int, parabolic,
              constraint: Slots | None = None) -> dict:
    """endpoint -> defect -> count over `iter_subexpressions`: what
    `subexpr.sweep` returns for the same allowed subexpressions."""
    out: dict = {}
    for rec in iter_subexpressions(word, n, parabolic, constraint):
        hist = out.setdefault(rec.endpoint, {})
        hist[rec.defect] = hist.get(rec.defect, 0) + 1
    return out



def fold(word: Sequence[int], n: int, parabolic, forced=()) -> dict:
    """endpoint -> defect -> count over the subexpressions with e = 1 at
    the 0-based positions `forced`: a fold one letter at a time, right to
    left, over {coset: {defect: count}}, each step through
    `coxeter.coset_step`.  It takes no run of forced positions in one
    pass and packs nothing, unlike `subexpr.sweep`, and unlike
    `aggregate` its cost follows the cosets, not the leaves."""
    A = frozenset(parabolic)
    state = {coxeter.identity(n): {0: 1}}
    for j in range(len(word) - 1, -1, -1):
        out: dict = {}
        for u, hist in state.items():
            d, su = coxeter.coset_step(u, word[j], A)
            moves = [(su, 1 if d == "S" else 0)]   # e = 1
            if j not in forced:   # e = 0
                moves.append((u, 1 if d == "U" else -1))
            for z, shift in moves:
                into = out.setdefault(z, {})
                for e, c in hist.items():
                    into[e + shift] = into.get(e + shift, 0) + c
        state = out
    return state

# -- the Bruhat order, one coset at a time ------------------------------


def rank_packing(n: int, cells: Sequence[tuple[int, int]]
                 ) -> tuple[list[list[int]], int]:
    """(C, H) for the rank entries r[i][j] at `cells` of S_n, one field
    each in the order given: C[a][v] is the packed table of "value v at
    0-based position a" and H the guard mask.  A field is 5 value bits
    and a guard bit for n <= 32, wider beyond.  Value v at position a adds
    one to r[i][j] for i > a and j >= v, so C[a][v] is the sum of those
    fields, built row by row from the bottom.  C has a row for each
    position a below the largest i of the cells: a value at a later
    position adds to none of them, so the packed table of p is
    sum(C[a][p[a]]) over the rows of C."""
    m = n - 1
    width = max(5, m.bit_length()) + 1
    field = {cell: 1 << width * f for f, cell in enumerate(cells)}
    C = []
    below = [0] * (n + 1)   # below[v]: the fields (i, j), i > a, j >= v
    for a in range(max((i for i, _ in cells), default=0) - 1, -1, -1):
        row = 0
        for v in range(n, 0, -1):
            row += field.get((a + 1, v), 0)
            below[v] += row
        C.append(list(below))
    C.reverse()
    H = sum(field.values()) << (width - 1)
    return C, H


def bruhat_above(x: Permutation) -> Callable[[Permutation], bool]:
    """The test z -> x < z in Bruhat order on the S_n of x, for z in
    the same S_n: per z, one packed table of the rank entries at the
    essential set of x, one subtraction and, for z that pass, one
    comparison with x.

    x <= z iff r_z[i][j] <= r_x[i][j] at every (i, j) in the essential
    set of x (Fulton 1992, Section 3): the rank conditions of the matrix
    Schubert variety of x at its essential set imply all the others, on
    any matrix, so on the permutation matrix of z.  The table of z packs
    only those entries, so its guard-bit subtraction decides x <= z, and
    z = x, which passes, is told apart by comparing z with x itself.  x
    and z may each be a tuple or the bytes of one: z is compared with x
    in both forms.

    >>> above = bruhat_above((2, 1, 3))
    >>> [above(z) for z in ((2, 1, 3), (1, 3, 2), (3, 2, 1))]
    [False, False, True]
    >>> above(bytes((2, 1, 3))), above(bytes((3, 2, 1)))
    (False, True)
    """
    x = tuple(x)
    try:
        same = (x, bytes(x))
    except ValueError:   # a value above 255 has no bytes form
        same = (x,)
    C, H = rank_packing(len(x), coxeter.essential_set(x))
    at = list.__getitem__
    px_H = sum(map(at, C, x)) | H

    def above(z: Permutation) -> bool:
        return (px_H - sum(map(at, C, z))) & H == H and z not in same

    return above


def interval_endpoints(cosets, n: int, parabolic, x: Permutation) -> list:
    """The cosets z among `cosets` (tuples, or their bytes) with x < z,
    sorted, as tuples: `SweepResult.above` on a result that holds them,
    after x is checked as a minimal coset representative for `parabolic`
    in S_n: a bad x is a ValueError that names it.  On the endpoints of
    a fold over a reduced word these are the cosets of the certificate's
    interval x < z <= w (see `subexpr._bruhat_mask`)."""
    x = coxeter.coset_key(x, n, parabolic, f"x = {tuple(x)}")
    return list(map(tuple, holding(cosets).above(x)[0]))


def holding(cosets, width: int | None = None) -> subexpr.SweepResult:
    """A `SweepResult` whose keys are `cosets` (tuples, or their bytes),
    in the order given, each with the histogram {0: 1}; or, with
    `width`, a mapping whose values are packed histograms of fields
    `width` bits wide, each coset with its own: the way to put cosets
    of a test's own choice, in an order of its own choice, before
    `above`."""
    if width is None:
        return subexpr.SweepResult(dict.fromkeys(map(bytes, cosets), 1), 1)
    return subexpr.SweepResult({bytes(z): h for z, h in cosets.items()},
                               width)


def backward_coefficient(word: Sequence[int], n: int, parabolic, forced,
                         z: Permutation) -> dict[int, int]:
    """The coefficient of m_z in the expansion that `subexpr.sweep`
    folds, b_{s_1} ... b_{s_m} m_id with e = 1 at the 0-based positions
    `forced`, as {defect: count} in increasing defect order, read the
    other way: fold the word left to right, starting from m_z, and read
    the coefficient at the identity.

    This is valid because each step is symmetric on the standard basis
    of M.  On a coset u that s moves, b_s m_u = m_{su} + v^(+-1) m_u,
    and su is moved too, with b_s m_{su} = m_u + ...: the entries at
    (su, u) and (u, su) are both 1.  On a coset that s fixes, b_s m_u =
    (v + v^-1) m_u has no entry off the diagonal.  A forced step keeps
    the e = 1 half, the entries 1 at (su, u) and (u, su) and v on a
    fixed coset, which is symmetric as well.  So with B_k the matrix of
    position k, [m_z] B_1 ... B_m m_id = [m_id] B_m^T ... B_1^T m_z =
    [m_id] B_m ... B_1 m_z.  Each step changes the length of a coset by
    at most one, so a coset longer than the number of letters still to
    read never reaches the identity and is dropped.

    A second cut reads which letters are left.  For 1 <= i < n let
    c_i(u) be the number of values above i among u(1), ..., u(i); the
    identity is the one permutation with every c_i = 0.  A left step by
    s_j swaps the values j and j + 1, and exactly one of them lies above
    i only when j = i, so only s_i changes c_i, by at most one.  So a
    coset u with c_i(u) greater than the number of letters s_i still to
    read never reaches the identity, and is dropped too.  A step by s_i
    changes no other c_j and no other count of letters left, so a coset
    that this step makes or keeps needs its c_i checked alone.

    The step classifies s_i u from the definitions: s_i u is no minimal
    coset representative iff it has a right descent in A, and then it is
    u times a generator of A, an S step; else it lowers u iff u has the
    left descent s_i.  It shares no code with `sweep`."""
    A = sorted(parabolic)
    rest = Counter(word)   # generator -> its letters still to read

    def crossing(u, i):   # c_i(u)
        return sum(v > i for v in u[:i])

    if any(crossing(z, i) > rest[i] for i in range(1, n)):
        return {}
    state = {tuple(z): (inversions(z), {0: 1})}   # u -> (length, hist)
    for k, i in enumerate(word):
        left = len(word) - k - 1   # letters still to read after this one
        rest[i] -= 1
        free = k not in forced
        out: dict = {}
        for u, (length, hist) in state.items():
            su = apply_gen_left(i, u)
            if any(su[g - 1] > su[g] for g in A):   # a right descent in A
                moves = [(u, length, 1), (u, length, -1)]
            elif has_left_descent(u, i):
                moves = [(su, length - 1, 0), (u, length, -1)]
            else:
                moves = [(su, length + 1, 0), (u, length, 1)]
            for y, ly, d in moves[:2 if free else 1]:
                if ly <= left and crossing(y, i) <= rest[i]:
                    into = out.setdefault(y, (ly, {}))[1]
                    for e, c in hist.items():
                        into[e + d] = into.get(e + d, 0) + c
        state = out
    hist = state.get(tuple(range(1, n + 1)), (0, {}))[1]
    return {e: hist[e] for e in sorted(hist)}


# -- sums through LaurentPoly products -----------------------------------

_V = LaurentPoly({1: 1})
_VINV = LaurentPoly({-1: 1})
_V_PLUS_VINV = LaurentPoly({1: 1, -1: 1})
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


def add_scaled(out: dict, coeffs: dict, c) -> dict:
    """Add c times each coefficient of `coeffs` into `out`, a map of
    LaurentPolys, one product and one LaurentPoly sum per term."""
    for x, p in coeffs.items():
        _add_into(out, x, p * c)
    return out


def b_step(i: int, coeffs: dict, parabolic) -> dict:
    """b_{s_i} on a coefficient map over W^A, by the three-case rule
    (`hecke._b_step`), with LaurentPoly values."""
    out: dict[Permutation, LaurentPoly] = {}
    for u, c in coeffs.items():
        kind, su = coxeter.coset_step(u, i, parabolic)
        if kind == "S":
            _add_into(out, u, c * _V_PLUS_VINV)
        else:
            _add_into(out, su, c)
            _add_into(out, u, c * (_V if kind == "U" else _VINV))
    return out


def bott_samelson_spherical(word: Sequence[int], n: int, parabolic) -> dict:
    """b_{s_1} ... b_{s_m} m_id as a map of LaurentPolys, folded right to
    left through `b_step`."""
    out = {coxeter.identity(n): LaurentPoly({0: 1})}
    for i in reversed(tuple(word)):
        out = b_step(i, out, parabolic)
    return out


def mult_by_gen(el: HeckeElement, i: int, side: str = "left",
                kind: str = "h") -> HeckeElement:
    """h_{s_i} or b_{s_i} times el on the chosen side: h_{sx}, plus
    (v^-1 - v) h_x if s lowers x, plus v h_x for b_{s_i}.

    It gets b_s from h_s through the identity b_s = h_s + v, term by
    term, and reads no row of `hecke._b_step`'s step rule, so comparing
    `hecke.mult_by_gen` with it checks the h_s and b_s rows against that
    identity and the quadratic relation."""
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in el.coeffs.items():
        if side == "left":
            sx = apply_gen_left(i, x)
            descends = has_left_descent(x, i)
        else:
            sx = apply_gen_right(x, i)
            descends = has_right_descent(x, i)
        _add_into(out, sx, c)
        if descends:
            _add_into(out, x, c * _VINV_MINUS_V)
        if kind == "b":
            _add_into(out, x, c * _V)
    return HeckeElement(el.n, out)


def phi_embed(el) -> HeckeElement:
    """phi(m_x) = sum_{u in W_A} v^{len(w_A) - len(u)} h_{xu}, one
    LaurentPoly product per term (`spherical.phi_embed`)."""
    n, A = el.n, el.parabolic
    top = inversions(coxeter.longest_element(A, n))
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in el.coeffs.items():
        for u in coxeter.parabolic_elements(A, n):
            _add_into(out, coxeter.multiply(x, u),
                      c * LaurentPoly({top - inversions(u): 1}))
    return HeckeElement(n, out)


def pi_tilde(parabolic, n: int) -> LaurentPoly:
    """sum_{u in W_A} v^{2 len(u)}, term by term over W_A."""
    out = LaurentPoly()
    for u in coxeter.parabolic_elements(parabolic, n):
        out = out + LaurentPoly({2 * inversions(u): 1})
    return out


def spherical_pairing(a, b) -> LaurentPoly:
    """(phi(a), phi(b)) / pi~(A): both arguments embedded in H, and an
    exact division, which raises InexactDivision otherwise."""
    a._check(b)
    num = pairing(phi_embed(a), phi_embed(b))
    return num.exact_divide(pi_tilde(a.parabolic, a.n))


def multipoly_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f * g, every exponent vector added through zip and the result
    validated by the constructor."""
    if f.nvars != g.nvars:
        raise ValueError("polynomials in different rings")
    terms: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            _add_into(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return MultiPoly(f.nvars, terms)


# -- the Hecke algebra ---------------------------------------------------


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """The product a*b, expanding b along reduced words of its support."""
    a._check(b)
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in b.coeffs.items():
        term = a
        for i in coxeter.reduced_word(x):
            term = mult_by_gen(term, i, side="right")
        add_scaled(out, term.coeffs, c)
    return HeckeElement(a.n, out)


def eps(el: HeckeElement) -> LaurentPoly:
    """The coefficient of h_id."""
    return el.coefficient(coxeter.identity(el.n))


def a_antiautomorphism(el: HeckeElement) -> HeckeElement:
    """The v -> v^-1 semilinear anti-automorphism fixing every b_s.

    Sends h_x to the algebra inverse of h_x.
    """
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in el.coeffs.items():
        add_scaled(out, inverse_h(x).coeffs, c.bar())
    return HeckeElement(el.n, out)


# -- Demazure chains on exponent tuples ---------------------------------


def apply_demazure(i: int, f: MultiPoly) -> MultiPoly:
    """del_i(f) = (f - s_i f) / alpha_i, by the closed form on each
    monomial, its exponent vector a tuple: del_i(x_i^a x_{i+1}^b m) is
    sign(b - a) (x_i x_{i+1})^min(a,b) sum_{k<|a-b|} x_i^(|a-b|-1-k)
    x_{i+1}^k m.

    >>> apply_demazure(1, MultiPoly(2, {(0, 1): 1})).terms
    {(0, 0): 1}
    """
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"s_{i} out of range for {f.nvars} variables")
    terms: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        a, b = e[i - 1], e[i]
        if a == b:
            continue
        if a > b:
            a, b, c = b, a, -c
        head, tail = e[:i - 1], e[i + 1:]
        for k in range(b - a):
            _add_into(terms, head + (b - 1 - k, a + k) + tail, c)
    return MultiPoly._wrap(f.nvars, terms)


def apply_steps(steps: Sequence, val: MultiPoly) -> MultiPoly:
    """The value of MultiPoly `steps` (listed top-down: an int i for
    del_i, a MultiPoly factor) over `val`, bottom step first, through
    `apply_demazure` and `MultiPoly.__mul__`."""
    for step in reversed(steps):
        if isinstance(step, int):
            val = apply_demazure(step, val)
        else:
            val = step * val
    return val


def chain_value(expr: demazure.Chain, erase: int | None = None
                ) -> MultiPoly:
    """The value of `expr` with its `erase`-th operator (from the top, 1
    first) dropped, or of the whole chain, by `apply_steps`."""
    steps = list(expr.steps)
    if erase is not None:
        del steps[expr.ops[erase - 1]]
    return apply_steps(steps, expr.base)


# -- the certificate report ----------------------------------------------


def certify_text(word: str | None, expr: str = "paper-GL15", p: int = 2,
                 pretty: bool = False) -> tuple[int, str]:
    """(exit code, stdout) of `heckekit certify` on a valid or incomplete
    word (a builtin name or a path) and a builtin expression, with the
    "timings" object left out.  The histograms come from `fold` and are
    totalled dict by dict, each coefficient goes through
    `LaurentPoly.to_json_dict`, the interval x < z is decided by
    `coxeter.bruhat_leq`, and the payload is rendered with one
    json.dumps."""
    chain = demazure.builtin_expr(expr)
    form = demazure.intersection_vector(chain, p)
    rank_ok = form.rank_over_Q == 1 and form.rank_over_p == 0
    payload = {
        "expression": {"name": expr, "operators": demazure.op_count(chain)},
        "p": p,
        "intersection_form": form.to_json_dict(),
        "rank_conditions": {"rank_Q": form.rank_over_Q,
                            "rank_p": form.rank_over_p, "ok": rank_ok},
        "word": None, "histogram": None, "histogram_at_x": None,
    }
    interval_ok = False
    if word is None:
        payload["interval"] = {"status": "skipped: no word data"}
    else:
        wd = worddata.load_word_data(word)
        report = worddata.validate_word_data(wd)
        if wd.word is None:
            payload["word"] = {"source": wd.source,
                               "validation": report.to_json_dict()}
            payload["interval"] = {"status": "skipped: word data incomplete"}
        else:
            assert report.ok and report.complete, report.to_json_dict()
            x, constraint = wd.x_element(), wd.constraint()
            w = coxeter.min_coset_rep(coxeter.evaluate_word(wd.word, wd.n),
                                      wd.parabolic)
            data = fold(wd.word, wd.n, wd.parabolic, constraint.forced)
            total: dict[int, int] = {}
            for hist in data.values():
                for d, c in hist.items():
                    total[d] = total.get(d, 0) + c

            def hist_json(hist):
                return {str(d): c for d, c in sorted(hist.items())}

            payload["word"] = {
                "source": wd.source, "n": wd.n, "length": len(wd.word),
                "A": sorted(wd.parabolic), "B": sorted(wd.lower),
                "degree": wd.degree, "x": list(x), "w": list(w),
                "free_positions": len(constraint.free_positions()),
                "subexpressions": constraint.leaf_count(),
                "validation": report.to_json_dict(),
            }
            payload["histogram"] = hist_json(total)
            payload["histogram_at_x"] = hist_json(data.get(x, {}))
            entries, failures = [], []
            for z in sorted(data):
                if z == x or not coxeter.bruhat_leq(x, z):
                    continue
                c = LaurentPoly(data[z])
                ok = c.is_nonnegative_powers()
                entries.append({"coset": list(z),
                                "coefficient": c.to_json_dict(), "ok": ok})
                if not ok:
                    failures.append({"coset": list(z),
                                     "coefficient": c.to_json_dict()})
            interval_ok = not failures
            payload["interval"] = {
                "status": "ok" if interval_ok else "failed",
                "passed": interval_ok,
                "cosets_in_interval": len(entries),
                "cosets_outside": len(data) - len(entries),
                "entries": entries, "failures": failures,
            }
    payload["verdict"] = verdict = rank_ok and interval_ok
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return 0 if verdict else 1, text + "\n"
