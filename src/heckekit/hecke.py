"""
The Hecke algebra of S_n over Z[v, v^-1].

Elements are finite linear combinations of the standard basis {h_x}.
Each coefficient is stored as a term map {exponent: int}, keyed by
permutation, with no zero int and no empty map; this module alone wraps
one as a LaurentPoly, where a value leaves the library (`coeffs`,
`coefficient`, `pairing` and a `PerversityReport`'s expansion).  The
normalization is fixed by b_s = h_s + v*h_id together with the quadratic
relation h_s^2 = h_id + (v^-1 - v) h_s, which makes b_s^2 = (v + v^-1) b_s.

H is the spherical module of the empty parabolic subgroup, and one
element body, `LinearCombination`, holds (n, A, terms) for both; every
element of H shares one empty A.  `coxeter` owns the input checks: its
key check `coxeter.coset_keys` checks A once per construction, then
every key, in both constructors and `spherical.spherical_kl_basis`; its
one-key form `coxeter.coset_key` serves `kl_basis` and `inverse_h` (on
a cache miss, or for a key with an entry that is no int), and
`coxeter.check_generators` the letter of `mult_by_gen`; no step checks
again.  The Bott-Samelson character is the subexpression fold
`subexpr.sweep` at A = {}.

Kazhdan-Lusztig elements of H and of every spherical module of W/W_A
(`spherical`) come from one cached recursion, `_kl`, keyed by (x, A):
at A = {} it is the classical recursion of `kl_basis`.  The cost grows
with |W/W_A|, so this is intended for small n (the certificate pipeline
never needs KL elements at n = 15), and an element, or a cache, past
KL_BUDGET terms raises ValueError.  The cache of inverses h_x^-1 that
`pairing` and `bar_involution` read has the same budget.

The pairing is the standard form (h, h') = eps(a(h) h'), where eps reads
off the coefficient of h_id and a is the v -> v^-1 semilinear
anti-automorphism fixing every b_s (on the standard basis a(h_x) is the
algebra inverse of h_x).  Since eps is a trace with eps(h_u h_w) = 1 if
u w = id and 0 otherwise, the trace identity

    eps(h_x^-1 h_y) = [h_{y^-1}] h_x^-1

gives (a, b) = sum_{x,y} bar(a_x) b_y [h_{y^-1}] h_x^-1 through lookups
into the cached inverses, without forming the product; the slow
reference, through the full product, lives with the tests in
`tests/oracles.py`.  The CLI's `pair` needs neither: the form is
b_s-adjoint, so (b_{w1}, b_{w2}) = [h_id] b_{rev(w1) w2} (`cli.cmd_pair`),
and `pairing` is its reference.  This form satisfies

    (p h, q h') = bar(p) q (h, h'),   (b_s h, h') = (h, b_s h'),
    (h b_s, h') = (h, h' b_s),

all of which are enforced by tests.

A generator acts through one step, `_b_step`, which takes and returns
maps of term maps over W^A (over W at A = {}).  b_s, h_s = b_s - v and
h_s^-1 = b_s - v^-1 follow one three-case rule, by the kind of step
`coxeter.coset_step` takes on the coset of u: s raises it (U), lowers
it (D) or fixes it (S).  x_s m_u = m_{su} + r(kind) m_u, without m_{su}
in the S case, and the three products differ only in their row r, the
coefficient left on m_u:

    x_s       U            D            S
    b_s       v            v^-1         v + v^-1
    h_s       0            v^-1 - v     v^-1
    h_s^-1    v - v^-1     0            v

So `mult_by_gen` (h_s or b_s, on the left on every module; on the right
in H only, the left step conjugated by h_x -> h_{x^-1}) and `inverse_h`
(h_s^-1, keeping term maps from letter to letter) take one pass per
letter.

Every sum of elements (the b_s step, `_add_scaled`, the KL recursion,
the perversity back-substitution and `pairing`) reads the stored term
maps and accumulates them, keyed by permutation, in one map that the
summing function created, through `laurent._add_product`: each term is
added as a coefficient times a fixed factor (1, an entry of a row of the
step rule, or a scalar), in place, and a key whose map cancels to zero
is dropped.  The accumulator is stored as it is, as the new element or
cache entry.  No argument's and no cached element's term maps are ever
written: a new key gets a map of its own, never the one it was read
from.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Iterable

from . import coxeter
from .coxeter import Permutation
from .laurent import ONE, LaurentPoly, _add_product, _poly

_UNIT = {0: 1}
# the rows of the step rule: the term map that b_s, h_s and h_s^-1 leave
# on m_u, by the kind of step (U, D, S); None for no term
_B_S = {"U": {1: 1}, "D": {-1: 1}, "S": {1: 1, -1: 1}}
_H_S = {"U": None, "D": {-1: 1, 1: -1}, "S": {-1: 1}}
_H_S_INV = {"U": {1: 1, -1: -1}, "D": None, "S": {1: 1}}


def _add_scaled(out: dict, terms: dict, g: dict) -> dict:
    """Add g times each term map of `terms` into `out`, an accumulator of
    term maps (`laurent._add_product`); return `out`."""
    for x, t in terms.items():
        _add_product(out, x, t, g)
    return out


#: the parabolic subset of every element of H, one set for all of them
_NO_PARABOLIC = frozenset()


class LinearCombination:
    """A finite sum sum_x c_x e_x over Z[v, v^-1] in the standard basis of
    the spherical module of A = parabolic in rank n (H at A = {}).

    Stored in `terms` as {basis key: {exponent: int}} with no zero
    coefficient; `coeffs` hands them out as LaurentPolys.  Two elements
    are equal, add or pair only in the same module: the same class, n
    and A (`_check`).  A subclass names the basis letter that `__repr__`
    prints (`_basis`).  The constructor takes LaurentPoly coefficients,
    checks A once and each key, raises TypeError naming the key of a
    coefficient that is no LaurentPoly, and stores their term maps; `_like`
    takes a map of term maps that is already clean as an element of the
    same module, without validation.
    """

    __slots__ = ("n", "parabolic", "terms")

    def __init__(self, n: int, parabolic,
                 coeffs: dict[Permutation, LaurentPoly] | None = None):
        self.n = n
        self.parabolic = frozenset(parabolic) or _NO_PARABOLIC
        coeffs = coeffs or {}
        keys = coxeter.coset_keys(coeffs, n, self.parabolic)
        self.terms = {}
        for x, c in zip(keys, coeffs.values()):
            if not isinstance(c, LaurentPoly):
                raise TypeError(f"coefficient {c!r} at {x} is no LaurentPoly")
            if c:
                self.terms[x] = c.terms

    def _like(self, terms: dict):
        out = object.__new__(type(self))
        out.n, out.parabolic, out.terms = self.n, self.parabolic, terms
        return out

    @property
    def coeffs(self) -> dict[Permutation, LaurentPoly]:
        """{basis key: LaurentPoly}, each wrapping its stored term map."""
        return {x: _poly(t) for x, t in self.terms.items()}

    def _same_module(self, other) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self.parabolic == other.parabolic)

    def __eq__(self, other) -> bool:
        return self._same_module(other) and self.terms == other.terms

    def _check(self, other) -> None:
        if not self._same_module(other):
            raise ValueError("elements of different modules")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = _add_scaled({}, self.terms, _UNIT)
        return self._like(_add_scaled(out, other.terms, _UNIT))

    def scale(self, c: LaurentPoly | int):
        g = c.terms if isinstance(c, LaurentPoly) else {0: c} if c else {}
        return self._like(_add_scaled({}, self.terms, g))

    def coefficient(self, x: Permutation) -> LaurentPoly:
        return _poly(self.terms.get(tuple(x), {}))

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        parts = [f"({_poly(t)})*{self._basis}{list(x)}"
                 for x, t in sorted(self.terms.items())]
        return f"{name}(" + " + ".join(parts) + ")"


def coeffs_json(coeffs: dict[Permutation, LaurentPoly]
                ) -> dict[str, dict[str, str]]:
    """A coefficient map as JSON: {"1,2,3": {"exponent": "coefficient"}},
    keys in one-line notation and in sorted order."""
    return {",".join(map(str, x)): c.to_json_dict()
            for x, c in sorted(coeffs.items())}


class HeckeElement(LinearCombination):
    __slots__ = ()
    _basis = "h"

    def __init__(self, n: int, coeffs: dict[Permutation, LaurentPoly] | None = None):
        super().__init__(n, _NO_PARABOLIC, coeffs)

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n)

    def to_json_dict(self) -> dict[str, dict[str, str]]:
        return coeffs_json(self.coeffs)


def h(x: Permutation) -> HeckeElement:
    """The standard basis element h_x."""
    x = tuple(x)
    return HeckeElement(len(x), {x: ONE})


def mult_by_gen(el: LinearCombination, i: int, side: str = "left",
                kind: str = "h") -> LinearCombination:
    """Multiply by h_{s_i} or b_{s_i} on the chosen side, exactly.

    On the left this is one step `_b_step` of the h_s or b_s row, on H
    and on every spherical module.  On the right it is the same step
    conjugated by the v-linear anti-automorphism iota: h_x -> h_{x^-1},
    which fixes h_s and b_s: el*b_s = iota(b_s*iota(el)); a spherical
    module at A != {} is a left module only, and raises ValueError.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if kind not in ("h", "b"):
        raise ValueError(f"kind must be 'h' or 'b', got {kind!r}")
    rule = _H_S if kind == "h" else _B_S
    coxeter.check_generators((i,), el.n)
    if side == "right" and el.parabolic:
        raise ValueError("a spherical module at A != {} is a left module; "
                         "mult_by_gen acts on the right in H only")
    if side == "left":
        return el._like(_b_step(i, el.terms, el.parabolic, rule))
    # on the right, conjugate the left step by iota: h_x -> h_{x^-1}
    inv = coxeter.inverse
    out = _b_step(i, {inv(x): t for x, t in el.terms.items()}, (), rule)
    return el._like({inv(x): t for x, t in out.items()})


def bott_samelson_char(word: Iterable[int], n: int) -> HeckeElement:
    """The product b_{s_1} b_{s_2} ... b_{s_m} in the standard basis: the
    subexpression fold at A = {}.  As b_s = h_s + v and h_s h_x is h_{sx}
    if sx > x, else h_{sx} + (v^-1 - v) h_x, b_s h_x = h_{sx} + v^{+-1} h_x
    as s raises or lowers x: the fold's U and D steps.  Raises ValueError
    for a letter outside 1..n-1 or a fold past subexpr.SUPPORT_BUDGET.
    """
    from . import subexpr

    data = subexpr.sweep(tuple(word), n, ())
    return HeckeElement(n)._like(dict(data.items()))


def inverse_h(x: Permutation) -> HeckeElement:
    """The algebra inverse of h_x, letter by letter on the left, one
    step of the h_s^-1 row of `_b_step` per letter on one map of term
    maps.  Raises ValueError for an x that is no permutation (checked on
    a cache miss, as the cache holds only permutations, and for an x with
    an entry that is no int, which may equal a cached key) or once the
    cached inverses would hold more than KL_BUDGET terms."""
    x = tuple(x)
    terms = _inverse_cache.get(x)
    # a float or a bool entry equal to a cached key's would hit it
    if terms is None or any(type(k) is not int for k in x):
        coxeter.coset_key(x, len(x), _NO_PARABOLIC)
    if terms is None:
        terms = {coxeter.identity(len(x)): {0: 1}}
        for i in coxeter.reduced_word(x):
            terms = _b_step(i, terms, _NO_PARABOLIC, _H_S_INV)
        _cache_put(_inverse_cache, _inverse_count, x, terms,
                   "the inverses of standard basis elements")
    return HeckeElement(len(x))._like(terms)


def bar_involution(el: HeckeElement) -> HeckeElement:
    """The bar involution of H: v -> v^-1 and h_x -> (h_{x^-1})^-1.
    Elements of a spherical module at A != {} raise ValueError."""
    if el.parabolic:
        raise ValueError("hecke.bar_involution is the bar involution of H, "
                         "not of a spherical module at A != {}")
    out: dict[Permutation, dict] = {}
    for x, t in el.terms.items():
        _add_scaled(out, inverse_h(coxeter.inverse(x)).terms,
                    {-e: k for e, k in t.items()})
    return el._like(out)


def _b_step(i: int, terms: dict, parabolic, rule: dict = _B_S) -> dict:
    """b_{s_i}, or the product of another row of the step rule (`_H_S`,
    `_H_S_INV`), on a map of term maps over the minimal coset
    representatives of W/W_A: m_u goes to m_{su} + rule[kind] m_u, kind
    being U, D or S as s raises, lowers or fixes the coset of u
    (`coxeter.coset_step`), and with no m_{su} in the S case.  At A = {}
    no coset is fixed, and this is the product with h_u in H.  Returns a
    new accumulator of term maps (`laurent._add_product`), so a fold
    applies it letter after letter; no map of `terms` is written."""
    out: dict[Permutation, dict] = {}
    for u, t in terms.items():
        kind, su = coxeter.coset_step(u, i, parabolic)
        if kind != "S":
            _add_product(out, su, t, _UNIT)
        g = rule[kind]
        if g is not None:
            _add_product(out, u, t, g)
    return out


#: the most terms that the cached Kazhdan-Lusztig elements may hold
KL_BUDGET = 2_000_000

# the term maps of c_x at (x, A), for every element asked for and every
# element its recursion reaches, and those of h_x^-1 for every x that
# `pairing` and `bar_involution` ask for (no CLI command calls either),
# each cache within KL_BUDGET terms
_kl_cache: dict[tuple[Permutation, frozenset], dict] = {}
_inverse_cache: dict[Permutation, dict] = {}
# len(cache) and its number of terms when last counted; a cache that was
# swapped or cleared since is counted again
_kl_count = [0, 0]
_inverse_count = [0, 0]


def _cache_put(cache: dict, count: list, key, coeffs: dict,
               what: str) -> None:
    """cache[key] = coeffs, unless the coefficient maps in `cache` would
    then hold more than KL_BUDGET terms: raise ValueError naming `what`.
    `count` is [len(cache), terms] of `cache` when last counted."""
    if count[0] != len(cache):
        count[:] = [len(cache), sum(map(len, cache.values()))]
    if count[1] + len(coeffs) > KL_BUDGET:
        raise ValueError(f"{what} would hold more than the budget "
                         f"KL_BUDGET = {KL_BUDGET} terms")
    cache[key] = coeffs
    count[0] += 1
    count[1] += len(coeffs)


def _kl(x: Permutation, parabolic: frozenset) -> dict:
    """The term maps of the Kazhdan-Lusztig element c_x of the spherical
    module of A = parabolic, x a minimal coset representative; at A = {}
    this is b_x in H.

    Deodhar's parabolic recursion: c_x = b_s c_{sx} - sum mu(z, sx) c_z
    for s the first left descent of x, over the z != sx in the support of
    c_{sx} whose coset s lowers or fixes, mu(z, sx) being the v^1
    coefficient of c_{sx} at z.

    Raises ValueError up front or, past KL_BUDGET terms, while
    computing.  Up front, for every A, when 2^k passes KL_BUDGET, k being
    the number of generators in the support of x (s_i is in it iff
    max(x(1..i)) > i).  The subword property puts the 2^k products of
    subsets of them below x, and P_{y,x}(0) = 1 gives b_x a term at every
    y <= x, so at A = {} b_x has at least 2^k terms.  c_x can be as small
    as one term, but the rule still keeps k at KL_BUDGET.bit_length() - 1
    (20), and so len(x), the depth of the recursion, at k(k+1)/2 (210).
    While computing: once _kl_cache would hold more than KL_BUDGET terms.
    """
    key = (x, parabolic)
    cached = _kl_cache.get(key)
    if cached is not None:
        return cached
    k = sum(1 for i, top in enumerate(accumulate(x, max), 1) if top > i)
    if 2 ** k > KL_BUDGET:
        if parabolic:
            most = KL_BUDGET.bit_length() - 1
            raise ValueError(
                f"x has {k} generators in its support, past the {most} "
                f"that keep the recursion for c_x within length "
                f"{most * (most + 1) // 2}")
        raise ValueError(
            f"b_x has at least 2^{k} terms ({k} generators in the support "
            f"of x), past the budget KL_BUDGET = {KL_BUDGET}")
    for s in range(1, len(x)):
        kind, y = coxeter.coset_step(x, s, parabolic)
        if kind == "D":
            cy = _kl(y, parabolic)
            terms = _b_step(s, cy, parabolic)
            for z, gamma in cy.items():
                mu = gamma.get(1)
                if (mu and z != y
                        and coxeter.coset_step(z, s, parabolic)[0] != "U"):
                    _add_scaled(terms, _kl(z, parabolic), {0: -mu})
            break
    else:
        terms = {x: {0: 1}}
    _cache_put(_kl_cache, _kl_count, key, terms,
               "Kazhdan-Lusztig elements")
    return terms


def kl_basis(x: Permutation) -> HeckeElement:
    """The Kazhdan-Lusztig basis element b_x: the unique bar-invariant
    element in h_x + sum_{y<x} v*Z[v]*h_y, computed by `_kl` at A = {}.
    Raises ValueError for an x that is no permutation, or past KL_BUDGET
    terms."""
    x = tuple(x)
    return HeckeElement(len(x))._like(
        _kl(coxeter.coset_key(x, len(x), _NO_PARABOLIC), _NO_PARABOLIC))


def pairing(a: HeckeElement, b: HeckeElement) -> LaurentPoly:
    """The standard form (a, b) = eps(a(a) * b), through the trace identity.

    Sums bar(a_x) b_y [h_{y^-1}] h_x^-1 over the supports of a and b,
    caching the whole inverse of h_x for each x in the support of a; the
    reference that `pair`, one fold, is tested against.  This is the form
    of H: elements of a spherical module at A != {} raise ValueError, as
    their form is `spherical.spherical_pairing`.

    >>> from heckekit import coxeter
    >>> bs = kl_basis(coxeter.evaluate_word((1,), 2))
    >>> pairing(bs, bs)
    LaurentPoly(1 + v^2)
    """
    a._check(b)
    if a.parabolic:
        raise ValueError("hecke.pairing is the form of H; pair elements of "
                         "a spherical module with spherical_pairing")
    b_terms = [(coxeter.inverse(y), t) for y, t in b.terms.items()]
    total: dict[int, dict[int, int]] = {}   # one term map, under key 0
    for x, ax in a.terms.items():
        inv = inverse_h(x).terms
        inner: dict[int, dict[int, int]] = {}
        for y_inv, by in b_terms:
            c = inv.get(y_inv)
            if c is not None:
                _add_product(inner, 0, by, c)
        if inner:
            bar_ax = {-e: k for e, k in ax.items()}
            _add_product(total, 0, bar_ax, inner[0])
    return _poly(total.get(0, {}))


class PerversityReport:
    __slots__ = ("is_perverse", "expansion")

    def __init__(self, is_perverse: bool,
                 expansion: dict[Permutation, LaurentPoly]):
        self.is_perverse = is_perverse
        self.expansion = expansion


def _perversity(el: LinearCombination) -> PerversityReport:
    """Coefficients of el in the KL basis of its spherical module (of H at
    A = {}), by triangular back-substitution, and whether all of them are
    constants.

    c_x, read from `_kl` (el's keys are minimal coset representatives),
    is m_x plus lower terms.  One running sum, `rest`, starts as a copy
    of el's term maps; each round takes its largest key x, moves the
    coefficient t out into the expansion and subtracts t c_x.
    """
    rest = _add_scaled({}, el.terms, _UNIT)
    lengths: dict[Permutation, int] = {}

    def rank(p: Permutation) -> tuple[int, Permutation]:
        n = lengths.get(p)
        if n is None:
            n = lengths[p] = coxeter.length(p)
        return n, p

    expansion: dict[Permutation, dict] = {}
    while rest:
        x = max(rest, key=rank)
        t = expansion[x] = rest.pop(x)
        cx = _kl(x, el.parabolic)
        _add_scaled(rest, cx, {e: -k for e, k in t.items()})
        del rest[x]     # -t, since c_x is m_x plus lower terms
    ok = all(set(t) <= {0} for t in expansion.values())
    return PerversityReport(ok, {x: _poly(t) for x, t in expansion.items()})


def is_perverse_character(el: HeckeElement) -> PerversityReport:
    """True iff every KL-basis coefficient of el is a constant."""
    return _perversity(el)
