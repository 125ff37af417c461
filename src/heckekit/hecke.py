"""
The Hecke algebra of S_n over Z[v, v^-1].

Elements are finite linear combinations of the standard basis {h_x},
stored as {permutation: LaurentPoly} with no zero coefficients.  The
normalization is fixed by b_s = h_s + v*h_id together with the quadratic
relation h_s^2 = h_id + (v^-1 - v) h_s, which makes b_s^2 = (v + v^-1) b_s.

The Bott-Samelson character is the subexpression fold `subexpr.sweep`
at A = {}: H is the spherical module of the empty parabolic subgroup.

Kazhdan-Lusztig elements of H and of every spherical module of W/W_A
(`spherical`) come from one cached recursion, `_kl`, keyed by (x, A):
at A = {} it is the classical recursion of `kl_basis`.  The cost grows
with |W/W_A|, so this is intended for small n (the certificate pipeline
never needs KL elements at n = 15), and an element, or a cache, past
KL_BUDGET terms raises ValueError.

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

Sums of elements accumulate in place, through `_add_scaled`, into one map
that the summing function created; it becomes an element once, at the end.
No argument's and no cached element's coefficients are ever written.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable

from . import coxeter
from .coxeter import Permutation
from .laurent import ONE, V, LaurentPoly, _add_into, _poly

_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})
_V_PLUS_VINV = LaurentPoly({1: 1, -1: 1})
_VINV = LaurentPoly({-1: 1})


def _add_scaled(out: dict, coeffs: dict, c) -> dict:
    """Add c times each coefficient of `coeffs` into `out`; return `out`."""
    for x, p in coeffs.items():
        _add_into(out, x, p * c)
    return out


class LinearCombination:
    """A finite sum sum_x c_x e_x over Z[v, v^-1] in a fixed standard basis.

    Stored as {basis key: LaurentPoly} with no zero coefficients.  A
    subclass fixes the module: it checks that two elements live in the same
    module (`_check`) and names the basis letter that `__repr__` prints
    (`_basis`).  `_like` wraps a coefficient map that is already clean as
    an element of the same module, without validation.
    """

    __slots__ = ("n", "coeffs")

    def _like(self, coeffs: dict):
        out = object.__new__(type(self))
        out.n, out.coeffs = self.n, coeffs
        return out

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self.coeffs)
        for x, c in other.coeffs.items():
            _add_into(coeffs, x, c)
        return self._like(coeffs)

    def scale(self, c):
        return self._like(_add_scaled({}, self.coeffs, c))

    def coefficient(self, x: Permutation) -> LaurentPoly:
        return self.coeffs.get(tuple(x), LaurentPoly.zero())

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self.coeffs:
            return f"{name}(0)"
        parts = [f"({c})*{self._basis}{list(x)}"
                 for x, c in sorted(self.coeffs.items())]
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
        self.n = n
        self.coeffs = {tuple(x): c for x, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElement) and self.n == other.n
                and self.coeffs == other.coeffs)

    def _check(self, other: "HeckeElement") -> None:
        if self.n != other.n:
            raise ValueError("elements of Hecke algebras of different rank")

    def to_json_dict(self) -> dict[str, dict[str, str]]:
        return coeffs_json(self.coeffs)


def h(x: Permutation) -> HeckeElement:
    """The standard basis element h_x."""
    x = tuple(x)
    return HeckeElement(len(x), {x: ONE})


def unit(n: int) -> HeckeElement:
    return h(coxeter.identity(n))


def mult_by_gen(el: HeckeElement, i: int, side: str = "left",
                kind: str = "h") -> HeckeElement:
    """Multiply by h_{s_i} or b_{s_i} on the chosen side, exactly.

    h_s h_x = h_{sx} if sx > x, else h_{sx} + (v^-1 - v) h_x (mirrored on
    the right); kind="b" adds v times the original element.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if kind not in ("h", "b"):
        raise ValueError(f"kind must be 'h' or 'b', got {kind!r}")
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in el.coeffs.items():
        if side == "left":
            sx = coxeter.apply_gen_left(i, x)
            descends = coxeter.has_left_descent(x, i)
        else:
            sx = coxeter.apply_gen_right(x, i)
            descends = coxeter.has_right_descent(x, i)
        _add_into(out, sx, c)
        if descends:
            _add_into(out, x, c * _VINV_MINUS_V)
        if kind == "b":
            _add_into(out, x, c * V)
    return el._like(out)


def bott_samelson_char(word: Iterable[int], n: int) -> HeckeElement:
    """The product b_{s_1} b_{s_2} ... b_{s_m} in the standard basis: the
    subexpression fold at A = {}.  As b_s = h_s + v and h_s h_x is h_{sx}
    if sx > x, else h_{sx} + (v^-1 - v) h_x, b_s h_x = h_{sx} + v^{+-1} h_x
    as s raises or lowers x: the fold's U and D steps.  Raises ValueError
    for a letter outside 1..n-1 or a fold past subexpr.SUPPORT_BUDGET.
    """
    from . import subexpr

    data = subexpr.sweep(tuple(word), n, ())
    return HeckeElement(n)._like({x: _poly(c) for x, c in data.items()})


_inverse_cache: dict[Permutation, HeckeElement] = {}


def inverse_h(x: Permutation) -> HeckeElement:
    """The algebra inverse of h_x, via h_s^-1 = h_s + (v - v^-1) h_id."""
    x = tuple(x)
    cached = _inverse_cache.get(x)
    if cached is not None:
        return cached
    el = unit(len(x))
    for i in coxeter.reduced_word(x):
        # left-multiply by h_{s_i}^{-1}
        out = mult_by_gen(el, i, side="left")
        el = out._like(_add_scaled(out.coeffs, el.coeffs, _V_MINUS_VINV))
    _inverse_cache[x] = el
    return el


def bar_involution(el: HeckeElement) -> HeckeElement:
    """The bar involution: v -> v^-1 and h_x -> (h_{x^-1})^-1."""
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in el.coeffs.items():
        _add_scaled(out, inverse_h(coxeter.inverse(x)).coeffs, c.bar())
    return el._like(out)


def _b_step(i: int, coeffs: dict, parabolic) -> dict:
    """b_{s_i} on a coefficient map over the minimal coset representatives
    of W/W_A, by the three-case rule: b_s m_u = m_{su} + v^{+-1} m_u as s
    raises or lowers the coset of u (`coxeter.coset_step`), and
    (v + v^-1) m_u as s fixes it.  At A = {} no coset is fixed, and this
    is b_s h_u in H.  Returns a new map."""
    out: dict[Permutation, LaurentPoly] = {}
    for u, c in coeffs.items():
        kind, su = coxeter.coset_step(u, i, parabolic)
        if kind == "S":
            _add_into(out, u, c * _V_PLUS_VINV)
        else:
            _add_into(out, su, c)
            _add_into(out, u, c * (V if kind == "U" else _VINV))
    return out


#: the most terms that the cached Kazhdan-Lusztig elements may hold
KL_BUDGET = 2_000_000

# the coefficients of c_x at (x, A), for every element asked for and every
# element its recursion reaches, within KL_BUDGET terms.  _inverse_cache
# grows without bound, but only `pairing` and `bar_involution` fill it,
# and no CLI command calls either.
_kl_cache: dict[tuple[Permutation, frozenset], dict] = {}
# len(_kl_cache) and its number of terms when last counted; a cache that
# was swapped or cleared since is counted again
_kl_count = [0, 0]


def _kl(x: Permutation, parabolic: frozenset) -> dict:
    """The coefficients of the Kazhdan-Lusztig element c_x of the
    spherical module of A = parabolic, x a minimal coset representative;
    at A = {} this is b_x in H.

    Deodhar's parabolic recursion: c_x = b_s c_{sx} - sum mu(z, sx) c_z
    for s the first left descent of x, over the z != sx in the support of
    c_{sx} whose coset s lowers or fixes, mu(z, sx) being the v^1
    coefficient of c_{sx} at z.

    Raises ValueError past KL_BUDGET terms, up front or while computing.
    Up front: s_i is in the support of x iff max(x(1..i)) > i, and the
    support of x w_A is that of x and A.  With k generators in it, the
    subword property puts the 2^k products of subsets of them below
    x w_A, and phi(c_x) = b_{x w_A} has a nonzero coefficient at every
    y <= x w_A because P_{y,x w_A}(0) = 1, so it has at least 2^k terms.
    This caps the support at 20 generators, so len(x), and with it the
    depth of the recursion, at 210.  While computing: once the elements
    in _kl_cache would hold more than KL_BUDGET terms.
    """
    key = (x, parabolic)
    cached = _kl_cache.get(key)
    if cached is not None:
        return cached
    k = len(parabolic.union(
        i for i, top in enumerate(accumulate(x, max), 1) if top > i))
    if 2 ** k > KL_BUDGET:
        element, where = (("phi(c_x) = b_(x w_A)", "x and of A")
                          if parabolic else ("b_x", "x"))
        raise ValueError(
            f"{element} has at least 2^{k} terms ({k} generators in the "
            f"support of {where}), past the budget KL_BUDGET = {KL_BUDGET}")
    s = next((i for i in range(1, len(x))
              if coxeter.has_left_descent(x, i)), None)
    if s is None:
        coeffs = {x: ONE}
    else:
        y = coxeter.apply_gen_left(s, x)
        cy = _kl(y, parabolic)
        coeffs = _b_step(s, cy, parabolic)
        for z, gamma in cy.items():
            mu = gamma.coefficient(1)
            if mu and z != y and coxeter.coset_step(z, s, parabolic)[0] != "U":
                _add_scaled(coeffs, _kl(z, parabolic), -mu)
    if _kl_count[0] != len(_kl_cache):
        _kl_count[:] = [len(_kl_cache),
                        sum(len(c) for c in _kl_cache.values())]
    if _kl_count[1] + len(coeffs) > KL_BUDGET:
        raise ValueError(f"Kazhdan-Lusztig elements would hold more than "
                         f"the budget KL_BUDGET = {KL_BUDGET} terms")
    _kl_cache[key] = coeffs
    _kl_count[0] += 1
    _kl_count[1] += len(coeffs)
    return coeffs


def kl_basis(x: Permutation) -> HeckeElement:
    """The Kazhdan-Lusztig basis element b_x: the unique bar-invariant
    element in h_x + sum_{y<x} v*Z[v]*h_y, computed by `_kl` at A = {}.
    Raises ValueError past KL_BUDGET terms."""
    x = tuple(x)
    return HeckeElement(len(x))._like(_kl(x, frozenset()))


def pairing(a: HeckeElement, b: HeckeElement) -> LaurentPoly:
    """The standard form (a, b) = eps(a(a) * b), through the trace identity.

    Sums bar(a_x) b_y [h_{y^-1}] h_x^-1 over the supports of a and b,
    caching the whole inverse of h_x for each x in the support of a; the
    reference that `pair`, one fold, is tested against.

    >>> from heckekit import coxeter
    >>> bs = kl_basis(coxeter.evaluate_word((1,), 2))
    >>> pairing(bs, bs)
    LaurentPoly(1 + v^2)
    """
    a._check(b)
    b_terms = [(coxeter.inverse(y), c) for y, c in b.coeffs.items()]
    total = LaurentPoly.zero()
    for x, ax in a.coeffs.items():
        inv = inverse_h(x).coeffs
        inner = LaurentPoly.zero()
        for y_inv, by in b_terms:
            c = inv.get(y_inv)
            if c is not None:
                inner = inner + by * c
        if inner:
            total = total + ax.bar() * inner
    return total


class PerversityReport:
    __slots__ = ("is_perverse", "expansion")

    def __init__(self, is_perverse: bool,
                 expansion: dict[Permutation, LaurentPoly]):
        self.is_perverse = is_perverse
        self.expansion = expansion


def _perversity(el: LinearCombination,
                basis: Callable[[Permutation], LinearCombination]
                ) -> PerversityReport:
    """Coefficients of el in a KL-type basis, by triangular
    back-substitution, and whether all of them are constants.

    basis(x) must be the standard basis element at x plus terms at
    elements of smaller length.
    """
    rest = dict(el.coeffs)
    expansion: dict[Permutation, LaurentPoly] = {}
    while rest:
        x = max(rest, key=lambda p: (coxeter.length(p), p))
        c = rest[x]
        expansion[x] = c
        _add_scaled(rest, basis(x).coeffs, -c)
    ok = all(set(c.terms) <= {0} for c in expansion.values())
    return PerversityReport(ok, expansion)


def is_perverse_character(el: HeckeElement) -> PerversityReport:
    """True iff every KL-basis coefficient of el is a constant."""
    return _perversity(el, kl_basis)
