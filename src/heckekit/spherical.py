"""
The spherical left module M attached to a parabolic subset A.

M has standard basis {m_x} indexed by the minimal coset representatives
W^A, with b_s acting by the three-case rule

    b_s m_u = m_{su} + v m_u      if the coset goes up,
    b_s m_u = m_{su} + v^-1 m_u   if the coset goes down,
    b_s m_u = (v + v^-1) m_u      if the coset is fixed.

The embedding phi : M -> H sends m_x to h_x * b_{w_A}, which expands to
sum_{u in W_A} v^{len(w_A) - len(u)} h_{xu}.  This is an H-module map and
sends the spherical KL element c_x to b_{x w_A}; both facts are enforced
by tests.  (Mapping m_x to the single term h_{x w_A} would not give an
H-stable image.)

The spherical pairing is (m, m') = (phi(m), phi(m')) / pi~(A), where
pi~(A) = sum_{u in W_A} v^{2 len(u)}; the division is always exact and a
failure raises InexactDivision.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import coxeter, hecke, subexpr
from .coxeter import Permutation
from .laurent import ONE, LaurentPoly, _add_into, v_power

_V_PLUS_VINV = LaurentPoly({1: 1, -1: 1})


class PullbackMismatch(ArithmeticError):
    """b_{x w_A} failed to lie in the image of phi (a convention error)."""


class SphericalElement(hecke.LinearCombination):
    __slots__ = ("parabolic",)

    def __init__(self, n: int, parabolic, coeffs=None):
        self.n = n
        self.parabolic = frozenset(parabolic)
        self.coeffs: dict[Permutation, LaurentPoly] = {}
        if coeffs:
            for x, c in coeffs.items():
                x = tuple(x)
                if not coxeter.is_min_coset_rep(x, self.parabolic):
                    raise ValueError(
                        f"{x} is not a minimal coset representative")
                if c:
                    self.coeffs[x] = c

    def _like(self, coeffs: dict[Permutation, LaurentPoly]
              ) -> "SphericalElement":
        out = super()._like(coeffs)
        out.parabolic = self.parabolic
        return out

    @classmethod
    def zero(cls, n: int, parabolic) -> "SphericalElement":
        return cls(n, parabolic)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SphericalElement) and self.n == other.n
                and self.parabolic == other.parabolic
                and self.coeffs == other.coeffs)

    def _check(self, other: "SphericalElement") -> None:
        if self.n != other.n or self.parabolic != other.parabolic:
            raise ValueError("elements of different spherical modules")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "parabolic": sorted(self.parabolic),
            "coeffs": {",".join(map(str, x)): c.to_json_dict()
                       for x, c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json_dict(cls, d) -> "SphericalElement":
        coeffs = {}
        for key, val in d["coeffs"].items():
            x = tuple(int(t) for t in key.split(","))
            coeffs[x] = LaurentPoly.from_json_dict(val)
        return cls(d["n"], d["parabolic"], coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "SphericalElement(0)"
        parts = [f"({c})*m{list(x)}" for x, c in sorted(self.coeffs.items())]
        return "SphericalElement(" + " + ".join(parts) + ")"


def m(x: Permutation, parabolic) -> SphericalElement:
    """The standard basis element m_x; x must be a minimal coset rep."""
    x = tuple(x)
    return SphericalElement(len(x), parabolic, {x: ONE})


def m_id(n: int, parabolic) -> SphericalElement:
    return m(coxeter.identity(n), parabolic)


def act_by_gen(i: int, el: SphericalElement) -> SphericalElement:
    """The action of b_{s_i}, extended linearly over the standard basis."""
    out: dict[Permutation, LaurentPoly] = {}
    for u, c in el.coeffs.items():
        kind, nxt = coxeter.coset_step(u, i, el.parabolic)
        if kind == "S":
            _add_into(out, u, c * _V_PLUS_VINV)
        else:
            _add_into(out, nxt, c)
            _add_into(out, u, c * v_power(1 if kind == "U" else -1))
    return el._like(out)


def bott_samelson_spherical(word: Sequence[int], n: int,
                            parabolic) -> SphericalElement:
    """b_{s_1} b_{s_2} ... b_{s_m} m_id, folded right to left."""
    el = m_id(n, parabolic)
    for i in reversed(tuple(word)):
        el = act_by_gen(i, el)
    return el


def pi_tilde(parabolic, n: int) -> LaurentPoly:
    """sum_{u in W_A} v^{2 len(u)}: the Poincare polynomial of W_A in v^2.

    Computed blockwise as a product of quantum factorials, so it stays
    cheap even for large parabolic subgroups.
    """
    out = ONE
    for first, last in coxeter.parabolic_blocks(parabolic, n):
        size = last - first + 2
        for k in range(1, size + 1):
            out = out * LaurentPoly({2 * j: 1 for j in range(k)})
    return out


def phi_embed(el: SphericalElement) -> hecke.HeckeElement:
    """The embedding phi: m_x -> h_x * b_{w_A}, extended linearly."""
    n = el.n
    A = el.parabolic
    wA_len = coxeter.length(coxeter.longest_element(A, n))
    out: dict[Permutation, LaurentPoly] = {}
    for x, c in el.coeffs.items():
        for u in coxeter.parabolic_elements(A, n):
            xu = coxeter.multiply(x, u)
            _add_into(out, xu, c * v_power(wA_len - coxeter.length(u)))
    return hecke.HeckeElement(n, out)


def spherical_pairing(a: SphericalElement, b: SphericalElement) -> LaurentPoly:
    """(a, b) = (phi(a), phi(b)) / pi~(A), exactly."""
    a._check(b)
    num = hecke.pairing(phi_embed(a), phi_embed(b))
    return num.exact_divide(pi_tilde(a.parabolic, a.n))


_skl_cache: dict[tuple[Permutation, frozenset], SphericalElement] = {}


def spherical_kl_basis(x: Permutation, parabolic) -> SphericalElement:
    """The spherical KL element c_x, pulled back from b_{x w_A} through phi.

    phi(m_y) contributes v^{len(w_A)-len(u)} h_{yu} over u in W_A, so the
    coefficient of m_y in c_x is the coefficient of h_{y w_A} in b_{x w_A}.
    The reconstruction phi(c_x) == b_{x w_A} is verified; a mismatch raises
    PullbackMismatch.
    """
    x = tuple(x)
    A = frozenset(parabolic)
    cached = _skl_cache.get((x, A))
    if cached is not None:
        return cached
    n = len(x)
    if not coxeter.is_min_coset_rep(x, A):
        raise ValueError(f"{x} is not a minimal coset representative")
    wA = coxeter.longest_element(A, n)
    b = hecke.kl_basis(coxeter.multiply(x, wA))
    coeffs = {}
    for y in b.coeffs:
        if coxeter.is_min_coset_rep(y, A):
            ywA = coxeter.multiply(y, wA)
            coeffs[y] = b.coefficient(ywA)
    el = SphericalElement(n, A, coeffs)
    if phi_embed(el) != b:
        raise PullbackMismatch(
            f"b_(x*wA) for x={x}, A={sorted(A)} is not in the image of phi")
    _skl_cache[(x, A)] = el
    return el


def spherical_kl_expand(el: SphericalElement) -> dict[Permutation, LaurentPoly]:
    rest = el
    expansion: dict[Permutation, LaurentPoly] = {}
    while rest:
        x = max(rest.coeffs, key=lambda p: (coxeter.length(p), p))
        c = rest.coeffs[x]
        expansion[x] = c
        rest = rest - spherical_kl_basis(x, el.parabolic).scale(c)
    return expansion


def is_perverse_spherical(el: SphericalElement) -> hecke.PerversityReport:
    expansion = spherical_kl_expand(el)
    ok = all(set(c.terms) <= {0} for c in expansion.values())
    return hecke.PerversityReport(ok, expansion)


def expansion_from_sweep(data: subexpr.SweepResult, n: int,
                         parabolic) -> SphericalElement:
    """Turn endpoint -> defect -> count aggregates into sum v^defect m_z."""
    coeffs = {}
    for endpoint, hist in data.items():
        coeffs[endpoint] = LaurentPoly({d: c for d, c in hist.items()})
    return SphericalElement(n, parabolic, coeffs)


def deodhar_expand(word: Sequence[int], n: int, parabolic,
                   constraint: subexpr.EnumConstraint | None = None,
                   ) -> SphericalElement:
    """sum over allowed subexpressions of v^defect on the endpoint coset.

    With no constraint this equals bott_samelson_spherical(word, n, A).
    """
    data = subexpr.sweep(word, n, parabolic, constraint)
    return expansion_from_sweep(data, n, parabolic)


@dataclass
class IntervalEntry:
    coset: Permutation
    coefficient: LaurentPoly
    ok: bool


@dataclass
class IntervalReport:
    """Result of the interval condition on an expansion.

    Every endpoint z with x < z <= w (Bruhat order on minimal coset
    representatives, strict below, weak above) must carry a coefficient
    with nonnegative powers only.  Endpoints outside the interval are
    unconstrained and only counted.
    """
    passed: bool
    entries: list[IntervalEntry]
    outside: int

    def failures(self) -> list[IntervalEntry]:
        return [e for e in self.entries if not e.ok]


def interval_condition_check(expansion: SphericalElement, x: Permutation,
                             w: Permutation) -> IntervalReport:
    A = expansion.parabolic
    x, w = tuple(x), tuple(w)
    for p in (x, w):
        if not coxeter.is_min_coset_rep(p, A):
            raise ValueError(f"{p} is not a minimal coset representative")
    rx = coxeter.rank_table(x)
    rw = coxeter.rank_table(w)
    entries = []
    outside = 0
    for z in sorted(expansion.coeffs):
        rz = coxeter.rank_table(z)
        in_interval = (z != x and coxeter.rank_table_dominates(rx, rz)
                       and coxeter.rank_table_dominates(rz, rw))
        if not in_interval:
            outside += 1
            continue
        c = expansion.coeffs[z]
        entries.append(IntervalEntry(z, c, c.is_nonnegative_powers()))
    return IntervalReport(all(e.ok for e in entries), entries, outside)
