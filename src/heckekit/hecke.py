"""
The Hecke algebra of S_n over Z[v, v^-1].

Elements are finite linear combinations of the standard basis {h_x},
stored as {permutation: LaurentPoly} with no zero coefficients.  The
normalization is fixed by b_s = h_s + v*h_id together with the quadratic
relation h_s^2 = h_id + (v^-1 - v) h_s, which makes b_s^2 = (v + v^-1) b_s.

Kazhdan-Lusztig basis elements are computed by the classical recursion
b_x = b_s b_{sx} - sum mu(z, sx) b_z and are cached; the cost grows with
|W|, so this is intended for small n (the certificate pipeline never needs
KL elements at n = 15).

The pairing is the standard form (h, h') = eps(a(h) h'), where eps reads
off the coefficient of h_id and a is the v -> v^-1 semilinear
anti-automorphism fixing every b_s (on the standard basis a(h_x) is the
algebra inverse of h_x).  Since eps is a trace with eps(h_u h_w) = 1 if
u w = id and 0 otherwise, the trace identity

    eps(h_x^-1 h_y) = [h_{y^-1}] h_x^-1

gives (a, b) = sum_{x,y} bar(a_x) b_y [h_{y^-1}] h_x^-1 through lookups
into the cached inverses, without forming the product; `a_antiautomorphism`,
`multiply` and `eps` remain as the slow reference.  This form satisfies

    (p h, q h') = bar(p) q (h, h'),   (b_s h, h') = (h, b_s h'),
    (h b_s, h') = (h, h' b_s),

all of which are enforced by tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import coxeter
from .coxeter import Permutation
from .laurent import ONE, V, LaurentPoly, _add_into

_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


class LinearCombination:
    """A finite sum sum_x c_x e_x over Z[v, v^-1] in a fixed standard basis.

    Stored as {basis key: LaurentPoly} with no zero coefficients.  A
    subclass fixes the module: it checks that two elements live in the same
    module (`_check`).  `_like` wraps a coefficient map that is already
    clean as an element of the same module, without validation.
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

    def __neg__(self):
        return self._like({x: -c for x, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = LaurentPoly({0: c})
        if not c:
            return self._like({})
        # Z[v, v^-1] has no zero divisors, so no product vanishes
        return self._like({x: p * c for x, p in self.coeffs.items()})

    def coefficient(self, x: Permutation) -> LaurentPoly:
        return self.coeffs.get(tuple(x), LaurentPoly.zero())

    def support(self) -> list[Permutation]:
        return sorted(self.coeffs)


class HeckeElement(LinearCombination):
    __slots__ = ()

    def __init__(self, n: int, coeffs: dict[Permutation, LaurentPoly] | None = None):
        self.n = n
        self.coeffs: dict[Permutation, LaurentPoly] = {}
        if coeffs:
            for x, c in coeffs.items():
                if c:
                    self.coeffs[tuple(x)] = c

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
        return {",".join(map(str, x)): c.to_json_dict()
                for x, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json_dict(cls, d, n: int) -> "HeckeElement":
        coeffs = {}
        for key, val in d.items():
            x = tuple(int(t) for t in key.split(","))
            coeffs[x] = LaurentPoly.from_json_dict(val)
        return cls(n, coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "HeckeElement(0)"
        parts = [f"({c})*h{list(x)}" for x, c in sorted(self.coeffs.items())]
        return "HeckeElement(" + " + ".join(parts) + ")"


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


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """The product a*b, expanding b along reduced words of its support."""
    a._check(b)
    out = HeckeElement.zero(a.n)
    for x, c in b.coeffs.items():
        term = a
        for i in coxeter.reduced_word(x):
            term = mult_by_gen(term, i, side="right")
        out = out + term.scale(c)
    return out


def bott_samelson_char(word: Iterable[int], n: int) -> HeckeElement:
    """The product b_{s_1} b_{s_2} ... b_{s_m} in the standard basis."""
    el = unit(n)
    for i in reversed(tuple(word)):
        el = mult_by_gen(el, i, side="left", kind="b")
    return el


_inverse_cache: dict[Permutation, HeckeElement] = {}


def inverse_h(x: Permutation) -> HeckeElement:
    """The algebra inverse of h_x, via h_s^-1 = h_s + (v - v^-1) h_id."""
    x = tuple(x)
    cached = _inverse_cache.get(x)
    if cached is not None:
        return cached
    n = len(x)
    el = unit(n)
    for i in coxeter.reduced_word(x):
        # left-multiply by h_{s_i}^{-1}
        el = mult_by_gen(el, i, side="left") + el.scale(_V_MINUS_VINV)
    _inverse_cache[x] = el
    return el


_bar_cache: dict[Permutation, HeckeElement] = {}


def bar_involution(el: HeckeElement) -> HeckeElement:
    """The bar involution: v -> v^-1 and h_x -> (h_{x^-1})^-1."""
    out = HeckeElement.zero(el.n)
    for x, c in el.coeffs.items():
        barred = _bar_cache.get(x)
        if barred is None:
            barred = inverse_h(coxeter.inverse(x))
            _bar_cache[x] = barred
        out = out + barred.scale(c.bar())
    return out


# grow-only; entries are published only after they are fully built, so a
# concurrent lookup never sees a partial element
_kl_cache: dict[Permutation, HeckeElement] = {}


def kl_basis(x: Permutation) -> HeckeElement:
    """The Kazhdan-Lusztig basis element b_x.

    The unique bar-invariant element in h_x + sum_{y<x} v*Z[v]*h_y; computed
    by b_x = b_s b_{sx} - sum_{z: sz<z} mu(z, sx) b_z for a left descent s.
    """
    x = tuple(x)
    cached = _kl_cache.get(x)
    if cached is not None:
        return cached
    n = len(x)
    if x == coxeter.identity(n):
        el = unit(n)
    else:
        s = next(i for i in range(1, n) if coxeter.has_left_descent(x, i))
        y = coxeter.apply_gen_left(s, x)
        el = mult_by_gen(kl_basis(y), s, side="left", kind="b")
        for z, beta in list(kl_basis(y).coeffs.items()):
            if z == y:
                continue
            mu = beta.coefficient(1)
            if mu and coxeter.has_left_descent(z, s):
                el = el - kl_basis(z).scale(mu)
    _kl_cache[x] = el
    return el


def eps(el: HeckeElement) -> LaurentPoly:
    """The coefficient of h_id."""
    return el.coefficient(coxeter.identity(el.n))


def a_antiautomorphism(el: HeckeElement) -> HeckeElement:
    """The v -> v^-1 semilinear anti-automorphism fixing every b_s.

    Sends h_x to the algebra inverse of h_x.
    """
    out = HeckeElement.zero(el.n)
    for x, c in el.coeffs.items():
        out = out + inverse_h(x).scale(c.bar())
    return out


def pairing(a: HeckeElement, b: HeckeElement) -> LaurentPoly:
    """The standard form (a, b) = eps(a(a) * b), through the trace identity.

    Sums bar(a_x) b_y [h_{y^-1}] h_x^-1 over the supports of a and b.

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


@dataclass
class PerversityReport:
    is_perverse: bool
    expansion: dict[Permutation, LaurentPoly]


def kl_expand(el: HeckeElement) -> dict[Permutation, LaurentPoly]:
    """Coefficients of el in the KL basis, by triangular back-substitution."""
    rest = el
    expansion: dict[Permutation, LaurentPoly] = {}
    while rest:
        x = max(rest.coeffs, key=lambda p: (coxeter.length(p), p))
        c = rest.coeffs[x]
        expansion[x] = c
        rest = rest - kl_basis(x).scale(c)
    return expansion


def is_perverse_character(el: HeckeElement) -> PerversityReport:
    """True iff every KL-basis coefficient of el is a constant."""
    expansion = kl_expand(el)
    ok = all(set(c.terms) <= {0} for c in expansion.values())
    return PerversityReport(ok, expansion)
