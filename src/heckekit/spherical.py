"""
The spherical left module M attached to a parabolic subset A.

M has standard basis {m_x} indexed by the minimal coset representatives
W^A; a SphericalElement is `hecke`'s one element body, which stores a
term map {exponent: int} per coset representative and hands out
LaurentPolys only through `coeffs` and `coefficient`.  `coxeter` owns
the input checks: A and the keys pass `coxeter.coset_keys`, which
checks A once per construction, with or without keys, and the letters
of `act_by_gen` and `bott_samelson_spherical` pass
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
pi~(A) = sum_{u in W_A} v^{2 len(u)}.  It is computed from one
embedding, with no division.  Let iota(m_x) = h_x (the same
coefficients, read in H) and b = b_{w_A}, so that phi(m) = iota(m) b.
Then

    (m, m') = v^-len(w_A) (iota(m), phi(m')),

from three facts about the form of H (`hecke.pairing`):

- (h c, h') = (h, h' a(c)), since eps is a trace:
  eps(a(c) a(h) h') = eps(a(h) h' a(c));
- a(b) = b, since a is the bar involution after the linear map
  h_x -> h_{x^-1}, and each fixes b;
- b^2 = v^-len(w_A) pi~(A) b, since h_u b = v^-len(u) b for u in W_A,
  so b^2 = sum_u v^{len(w_A) - 2 len(u)} b, and pi~(A) is palindromic of
  degree 2 len(w_A).

So (phi(m), phi(m')) = (iota(m), phi(m') a(b)) = (iota(m), iota(m') b^2)
= v^-len(w_A) pi~(A) (iota(m), phi(m')), and the quotient is exact.
`hecke.pairing`'s outer loop then runs over the support of m, not of
phi(m).  The tests keep the quotient, with its exact division, as the
reference (`tests/oracles.py`), and check the second and third facts.
W_A, with the weights of phi as term maps, and len(w_A) are built once
per (A, n), and cached for the last 64 pairs (`_wa_table`).

`bott_samelson_spherical` folds a word through `hecke`'s b_s step on
the stored term maps, and stores each step's map as it is; `act_by_gen`
is `hecke.mult_by_gen` on the left, one such step.  Every function here
reads and stores the elements' term maps (`LinearCombination.terms`);
LaurentPolys leave only as the value of `spherical_pairing` and the
expansion of `is_perverse_spherical`, both built in `hecke`.
"""
from __future__ import annotations

import functools
from typing import Sequence

from . import coxeter, hecke, subexpr
from .coxeter import Permutation
from .laurent import ONE, LaurentPoly, _add_product, v_power


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
    b_s step on the stored term maps, one step per letter."""
    word = tuple(word)
    coxeter.check_generators(word, n)
    el = m_id(n, parabolic)
    for i in reversed(word):
        el = el._like(hecke._b_step(i, el.terms, el.parabolic))
    return el


@functools.lru_cache(maxsize=64)
def _wa_table(parabolic: frozenset, n: int) -> tuple[list, int]:
    """W_A with the weights v^{len(w_A) - len(u)} of `phi_embed` as term
    maps, [(u, {len(w_A) - len(u): 1}) for u in W_A], and len(w_A),
    built once per (A, n) and kept for the 64 pairs used last.  Nothing
    writes a table, nor one of its term maps, after it is built."""
    top = coxeter.length(coxeter.longest_element(parabolic, n))
    weights = [(u, {top - coxeter.length(u): 1})
               for u in coxeter.parabolic_elements(parabolic, n)]
    return weights, top


def phi_embed(el: SphericalElement) -> hecke.HeckeElement:
    """The embedding phi: m_x -> h_x * b_{w_A}, extended linearly, over
    the W_A table of (A, n).  The products xu are distinct, so no term
    cancels."""
    weights = _wa_table(el.parabolic, el.n)[0]
    out: dict[Permutation, dict] = {}
    for x, t in el.terms.items():
        for u, g in weights:
            _add_product(out, coxeter.multiply(x, u), t, g)
    return hecke.HeckeElement(el.n)._like(out)


def spherical_pairing(a: SphericalElement, b: SphericalElement) -> LaurentPoly:
    """(a, b) = (phi(a), phi(b)) / pi~(A), computed as
    v^-len(w_A) (iota(a), phi(b)) in H, iota(m_x) = h_x: one embedding
    and no division (see the module docstring)."""
    a._check(b)
    iota_a = hecke.HeckeElement(a.n)._like(a.terms)
    top = _wa_table(a.parabolic, a.n)[1]
    return hecke.pairing(iota_a, phi_embed(b)) * v_power(-top)


def spherical_kl_basis(x: Permutation, parabolic) -> SphericalElement:
    """The spherical KL element c_x, by `hecke`'s Kazhdan-Lusztig recursion
    at A = parabolic.  Raises ValueError for an x that is no minimal coset
    representative for A, or past hecke.KL_BUDGET terms."""
    el = m(x, parabolic)    # A and x pass `coxeter.coset_keys`, A once
    [x] = el.terms
    return el._like(hecke._kl(x, el.parabolic))


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
    histogram is stored as its term map as it is, unchecked and uncopied.
    """
    data = subexpr.sweep(word, n, parabolic, constraint)
    return SphericalElement(n, parabolic)._like(dict(data.items()))

