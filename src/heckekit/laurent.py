"""
Sparse Laurent polynomials in one variable v over the integers.

Polynomials are stored as {exponent: coefficient} maps with no zero
coefficients; the zero polynomial is the empty map, so equality is
structural.  Coefficients are Python ints (arbitrary precision): every
object of the certificate lives in Z[v, v^-1], and the ranks over F_p that
the certificate needs are computed on plain ints in `demazure`.  All
arithmetic is exact; there is no floating-point mode.

Sparse sums throughout the package accumulate through `_add_into`, which
keeps the no-zero-entries invariant of these maps.
"""
from __future__ import annotations

from typing import Iterator, Mapping


class InexactDivision(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _add_into(out: dict, key, c) -> None:
    """Add c into out[key], dropping the key when the sum is zero."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _poly(terms: dict[int, int]) -> "LaurentPoly":
    """Wrap `terms` without validation; it must hold nonzero ints only."""
    out = object.__new__(LaurentPoly)
    out.terms = terms
    return out


class LaurentPoly:
    """A sparse Laurent polynomial sum(c_k * v^k) with integer c_k."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        cleaned = {}
        if terms:
            for e, c in terms.items():
                if isinstance(c, bool) or not isinstance(c, int):
                    raise TypeError(f"not an integer coefficient: {c!r}")
                if c:
                    cleaned[int(e)] = c
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- basic protocol ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self == LaurentPoly({0: other})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.terms.items()))

    def coefficient(self, exponent: int) -> int:
        return self.terms.get(exponent, 0)

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        return max(self.terms)

    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        return min(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _add_into(terms, e, c)
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_into(terms, e1 + e2, c1 * c2)
        return _poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- the operations the workbench needs ---------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1 (negate every exponent)."""
        return _poly({-e: c for e, c in self.terms.items()})

    def is_nonnegative_powers(self) -> bool:
        """True iff the polynomial lies in the subring of ordinary polynomials."""
        return all(e >= 0 for e in self.terms)

    def exact_divide(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return q with q * other == self, or raise InexactDivision.

        >>> a = LaurentPoly({-1: 1, 1: 2, 3: 1})
        >>> a.exact_divide(LaurentPoly({-1: 1, 1: 1}))
        LaurentPoly(1 + v^2)
        """
        if not isinstance(other, LaurentPoly):
            raise TypeError("can only divide by a LaurentPoly")
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly.zero()
        lead = other.degree()
        lead_c = other.terms[lead]
        # Exact quotients have valuation val(self) - val(other); stop there.
        low = self.valuation() - other.valuation()
        rem = dict(self.terms)
        quo: dict[int, int] = {}
        while rem:
            top = max(rem)
            e = top - lead
            if e < low:
                raise InexactDivision("no Laurent quotient exists")
            c, r = divmod(rem[top], lead_c)
            if r:
                raise InexactDivision(
                    f"{rem[top]} is not divisible by {lead_c} in ZZ")
            quo[e] = c
            for be, bc in other.terms.items():
                _add_into(rem, e + be, -c * bc)
        return _poly(quo)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict[str, str]:
        """{"exponent": "coefficient"} with string values for exact round-trips."""
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    @classmethod
    def from_json_dict(cls, d: Mapping[str, str]) -> "LaurentPoly":
        return cls({int(e): int(str(c)) for e, c in d.items()})

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                body = str(c)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    body = ve
                elif c == -1:
                    body = f"-{ve}"
                else:
                    body = f"{c}*{ve}"
            parts.append(body)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


#: the generator v, its inverse and the unit
V = LaurentPoly({1: 1})
V_INV = LaurentPoly({-1: 1})
ONE = LaurentPoly.one()


def v_power(k: int, coeff: int = 1) -> LaurentPoly:
    return LaurentPoly({k: coeff})
