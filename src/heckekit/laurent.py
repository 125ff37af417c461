"""
Sparse Laurent polynomials in one variable v over the integers.

Polynomials are stored as {exponent: coefficient} maps with no zero
coefficients; the zero polynomial is the empty map, so equality is
structural.  Coefficients are Python ints (arbitrary precision): every
object of the certificate lives in Z[v, v^-1], and the ranks over F_p that
the certificate needs are computed on plain ints in `demazure`.  All
arithmetic is exact; there is no floating-point mode.

Sums of Laurent polynomial products throughout the package go through
one kernel, `_add_product`, which works on plain {exponent: int} maps: it
adds f * g into the map under one key of an accumulator, in place, and
drops the key when its map cancels to zero.  Most factors g have one
term (1, v, v^-1, a scalar), and those re-key f in one pass.  The Hecke
and spherical elements and the caches of `hecke` store such term maps,
not LaurentPolys, so their sums (`hecke`'s one generator step `_b_step`,
whose three rows are the b_s, h_s and h_s^-1 products, one pass each,
and through which the module action and the Bott-Samelson folds of
`inverse_h` and `spherical` go, `_add_scaled`, `pairing`,
`spherical.phi_embed`) read them as they are and store one accumulator
per call, or per fold, as the result.  `hecke` alone wraps a stored map
as a LaurentPoly (`_poly`), where a value leaves the library.
`LaurentPoly.__mul__` is the same kernel on a one-key accumulator, and
so are `__add__` and the remainder of `exact_divide`, each with a
one-term factor, and a factor step of `demazure._step`, on packed
monomials, whose keys add as exponents do.  Three sums deliberately go
around it: `demazure.MultiPoly.__add__`, whose tuple exponents do not
add as the kernel's int keys do, keeps a loop of its own;
`demazure._step`'s del_i loop adds each monomial's coefficient along a
run of keys, and routed through the kernel (each monomial times its
run's geometric sum) `intersection_vector` took 0.59 ms against
0.33 ms per expression, on `paper-GL15` and its 151 balanced one- or
two-symbol edits (medians of 7 alternating passes, 2 vCPU, Python
3.11.7); and `subexpr.sweep` adds packed histograms (one int each) in
its hot loop, as a `SweepResult` totals them.
"""
from __future__ import annotations

from typing import Mapping


class ConsistencyViolation(ArithmeticError):
    """An internal check of the mathematics failed: a bug or a false
    hypothesis, never bad input.  The CLI maps it to exit code 3."""


class InexactDivision(ConsistencyViolation):
    """Raised when a division that must be exact leaves a remainder."""


def _add_product(out: dict, key, f: Mapping[int, int],
                 g: Mapping[int, int]) -> None:
    """out[key] += f * g on {exponent: int} maps, in place.

    `out` maps keys to term maps of nonzero ints; a missing key counts as
    zero, and a key whose map cancels to zero is dropped, so `out` never
    holds an empty map.  f and g hold nonzero ints only.  A one-term g,
    which is what most calls pass (the b_s step's 1, v and v^-1, and
    scalars), re-keys f in one pass: into a fresh map for a new key (a
    copy of f when g is 1, never f itself), else into the key's map.
    """
    t = out.get(key)
    if len(g) == 1:
        [(k, a)] = g.items()
        if t is None:
            if f:
                out[key] = (dict(f) if k == 0 and a == 1
                            else {e + k: c * a for e, c in f.items()})
            return
        get = t.get
        for e, c in f.items():
            e += k
            s = get(e, 0) + c * a
            if s:
                t[e] = s
            else:
                del t[e]
        if not t:
            del out[key]
        return
    if t is None:
        t = {}
    get = t.get
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if s:
                t[e] = s
            else:           # c1 * c2 != 0, so e was there
                del t[e]
    if t:
        out[key] = t
    else:
        out.pop(key, None)


def _poly(terms: dict[int, int]) -> "LaurentPoly":
    """Wrap `terms` without validation; it must hold nonzero ints only."""
    out = object.__new__(LaurentPoly)
    out.terms = terms
    return out


class LaurentPoly:
    """A sparse Laurent polynomial sum(c_k * v^k) with integer c_k.

    The constructor takes ints only, exponents and coefficients alike,
    and raises TypeError for anything else (a bool or a float included).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        cleaned = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int or type(c) is not int:
                    raise TypeError(f"not an integer term: {c!r}*v^{e!r}")
                if c:
                    cleaned[e] = c
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

    def coefficient(self, exponent: int) -> int:
        return self.terms.get(exponent, 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, dict[int, int]] = {}
        _add_product(out, 0, self.terms, {0: 1})
        _add_product(out, 0, other.terms, {0: 1})
        return _poly(out.get(0, {}))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, dict[int, int]] = {}
        _add_product(out, 0, self.terms, other.terms)
        return _poly(out.get(0, {}))

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
        return min(self.terms, default=0) >= 0

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
        lead = max(other.terms)
        lead_c = other.terms[lead]
        # Exact quotients have valuation val(self) - val(other); stop there.
        low = min(self.terms) - min(other.terms)
        rem = {0: dict(self.terms)}   # one key: the remainder's terms
        quo: dict[int, int] = {}
        while rem:
            terms = rem[0]
            top = max(terms)
            e = top - lead
            if e < low:
                raise InexactDivision("no Laurent quotient exists")
            c, r = divmod(terms[top], lead_c)
            if r:
                raise InexactDivision(
                    f"{terms[top]} is not divisible by {lead_c} in ZZ")
            quo[e] = c
            _add_product(rem, 0, other.terms, {e: -c})
        return _poly(quo)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict[str, str]:
        """{"exponent": "coefficient"} with string values for exact round-trips."""
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

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


#: the generator v and the unit
V = LaurentPoly({1: 1})
ONE = LaurentPoly.one()


def v_power(k: int) -> LaurentPoly:
    return LaurentPoly({k: 1})
