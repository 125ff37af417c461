"""
The spherical left module M attached to a parabolic subset A.

M has standard basis {m_x} indexed by the minimal coset representatives
W^A; a SphericalElement is `hecke`'s one element body.  `coxeter` owns
the input checks: its keys, and A with them, pass `coxeter.coset_key`,
and the letters of `act_by_gen` and `bott_samelson_spherical` pass
`coxeter.check_generators` at entry.  b_s acts by the three-case rule

    b_s m_u = m_{su} + v m_u      if the coset goes up,
    b_s m_u = m_{su} + v^-1 m_u   if the coset goes down,
    b_s m_u = (v + v^-1) m_u      if the coset is fixed,

the b_s row of `hecke`'s one step rule, whose h_s = b_s - v row acts on
M too (`hecke.mult_by_gen` on the left).

The embedding phi : M -> H sends m_x to h_x * b_{w_A}, which expands to
sum_{u in W_A} v^{len(w_A) - len(u)} h_{xu}.  This is an H-module map and
sends the spherical KL element c_x to b_{x w_A}; both facts are enforced
by tests.  (Mapping m_x to the single term h_{x w_A} would not give an
H-stable image.)  c_x itself is computed in M, by `hecke`'s one
Kazhdan-Lusztig recursion at A, and b_s acts through `hecke`'s step.

The spherical pairing is (m, m') = (phi(m), phi(m')) / pi~(A), where
pi~(A) = sum_{u in W_A} v^{2 len(u)}; the division is always exact and a
failure raises InexactDivision.  W_A, the lengths that weigh phi and
pi~(A) are built once per (A, n), in a table of the last 64 pairs
(`_wa_table`).

`bott_samelson_spherical` folds a word through `hecke`'s b_s step on
term maps and wraps LaurentPolys once, at the end; `act_by_gen` is
`hecke.mult_by_gen` on the left, one such step.
"""
from __future__ import annotations

from typing import Sequence

from . import coxeter, hecke, subexpr
from .coxeter import Permutation
from .laurent import ONE, LaurentPoly, _add_product, _poly, _polys, v_power


class SphericalElement(hecke.LinearCombination):
    __slots__ = ()
    _basis = "m"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "parabolic": sorted(self.parabolic),
            "coeffs": hecke.coeffs_json(self.coeffs),
        }


def m(x: Permutation, parabolic) -> SphericalElement:
    """The standard basis element m_x; x must be a minimal coset rep."""
    x = tuple(x)
    return SphericalElement(len(x), parabolic, {x: ONE})


def m_id(n: int, parabolic) -> SphericalElement:
    return m(coxeter.identity(n), parabolic)


def act_by_gen(i: int, el: SphericalElement) -> SphericalElement:
    """The action of b_{s_i}, extended linearly over the standard basis:
    the b_s row of `hecke`'s step rule, through `hecke.mult_by_gen`."""
    return hecke.mult_by_gen(el, i, "left", "b")


def bott_samelson_spherical(word: Sequence[int], n: int,
                            parabolic) -> SphericalElement:
    """b_{s_1} b_{s_2} ... b_{s_m} m_id, folded right to left by `hecke`'s
    b_s step on term maps; the coefficients become LaurentPolys once, at
    the end."""
    word = tuple(word)
    coxeter.check_generators(word, n)
    el = m_id(n, parabolic)
    terms = {u: c.terms for u, c in el.coeffs.items()}
    for i in reversed(word):
        terms = hecke._b_step(i, terms, el.parabolic)
    return el._like(_polys(terms))


# (A, n) -> ([(u, len(w_A) - len(u)) for u in W_A], pi~(A)) for the last
# _WA_TABLES pairs (A, n) asked for.  Nothing writes an entry after it is
# built.
_wa_tables: dict[tuple[frozenset, int], tuple[list, LaurentPoly]] = {}
_WA_TABLES = 64


def _wa_table(parabolic: frozenset, n: int) -> tuple[list, LaurentPoly]:
    """W_A with the exponents of the weights in `phi_embed`, and pi~(A),
    built once per (A, n).  pi~(A) is a product of quantum factorials,
    one per block of A."""
    key = (parabolic, n)
    table = _wa_tables.get(key)
    if table is None:
        pi = ONE
        for first, last in coxeter.parabolic_blocks(parabolic, n):
            for k in range(1, last - first + 3):
                pi = pi * LaurentPoly({2 * j: 1 for j in range(k)})
        top = coxeter.length(coxeter.longest_element(parabolic, n))
        exponents = [(u, top - coxeter.length(u))
                     for u in coxeter.parabolic_elements(parabolic, n)]
        if len(_wa_tables) >= _WA_TABLES:
            del _wa_tables[next(iter(_wa_tables))]
        table = _wa_tables[key] = (exponents, pi)
    return table


def pi_tilde(parabolic, n: int) -> LaurentPoly:
    """sum_{u in W_A} v^{2 len(u)}: the Poincare polynomial of W_A in v^2,
    read from the W_A table of (A, n)."""
    return _wa_table(frozenset(parabolic), n)[1]


def phi_embed(el: SphericalElement) -> hecke.HeckeElement:
    """The embedding phi: m_x -> h_x * b_{w_A}, extended linearly, over
    the W_A table of (A, n).  The products xu are distinct, so no term
    cancels."""
    weights = [(u, v_power(k).terms)
               for u, k in _wa_table(el.parabolic, el.n)[0]]
    out: dict[Permutation, dict] = {}
    for x, c in el.coeffs.items():
        for u, g in weights:
            _add_product(out, coxeter.multiply(x, u), c.terms, g)
    return hecke.HeckeElement(el.n)._like(_polys(out))


def spherical_pairing(a: SphericalElement, b: SphericalElement) -> LaurentPoly:
    """(a, b) = (phi(a), phi(b)) / pi~(A), exactly."""
    a._check(b)
    num = hecke.pairing(phi_embed(a), phi_embed(b))
    return num.exact_divide(pi_tilde(a.parabolic, a.n))


def spherical_kl_basis(x: Permutation, parabolic) -> SphericalElement:
    """The spherical KL element c_x, by `hecke`'s Kazhdan-Lusztig recursion
    at A = parabolic.  Raises ValueError for an x that is no minimal coset
    representative for A, or past hecke.KL_BUDGET terms."""
    x = tuple(x)
    el = SphericalElement(len(x), parabolic)
    return el._like(hecke._kl(coxeter.coset_key(x, el.n, el.parabolic),
                              el.parabolic))


def is_perverse_spherical(el: SphericalElement) -> hecke.PerversityReport:
    """True iff every spherical-KL-basis coefficient of el is a constant."""
    return hecke._perversity(el)


def deodhar_expand(word: Sequence[int], n: int, parabolic,
                   constraint: subexpr.EnumConstraint | None = None,
                   ) -> SphericalElement:
    """sum over allowed subexpressions of v^defect on the endpoint coset:
    the subexpressions with e = 1 at every position `constraint` forces.

    With no constraint every position is free, and this equals
    bott_samelson_spherical(word, n, A).
    The fold's endpoints are minimal coset representatives by
    construction (it applies s_i only in the U and D cases of
    `coxeter.coset_step`) and its counts are positive ints, so each
    histogram becomes its coefficient as it is, unchecked and uncopied.
    """
    data = subexpr.sweep(word, n, parabolic, constraint)
    return SphericalElement(n, parabolic)._like(
        {z: _poly(hist) for z, hist in data.items()})

