"""
Demazure operators on a sparse multivariate polynomial ring, nested
operator expressions, the erase-one-operator intersection vector, and
exact matrix rank over Q and F_p.

The ring is k[x_1, ..., x_k] graded with deg x_i = 2.  The operator
del_i sends f to (f - s_i f) / alpha_i with alpha_i = x_{i+1} - x_i;
the divided difference drops the graded degree by 2.  Division by
alpha_i is synthetic division along the variable x_i (leading
coefficient -1, so every step is exact); in debug mode the quotient is
verified by multiplying back.

Operator expressions are trees of Const / Mul / Op nodes.  Op nodes are
numbered 1, 2, ... in the order they appear in prefix notation, which is
the order used to erase single operators when assembling the 1 x N
intersection-form vector.  The built-in expression `paper-GL15` encodes
the published 12-operator example whose erasure vector is
(-2, -2, 0, -2, -2, 0, -2, -2, -2, 2, 0, 0), of rank 1 over Q and rank 0
over F_2.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .laurent import InexactDivision, _add_into

Exponents = tuple[int, ...]


class DegreeAuditFailure(ArithmeticError):
    """An operator erasure produced a nonconstant value."""


class MultiPoly:
    """Sparse multivariate polynomial: {exponent vector: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, object] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length")
                if c != 0:
                    self.terms[e] = c

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        """x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable x{i} out of range")
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def alpha(cls, i: int, nvars: int) -> "MultiPoly":
        """The simple root alpha_i = x_{i+1} - x_i."""
        return cls.variable(i + 1, nvars) - cls.variable(i, nvars)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(other, self.nvars)
        return NotImplemented

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _add_into(terms, e, c)
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        terms: dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_into(terms, tuple(a + b for a, b in zip(e1, e2)),
                          c1 * c2)
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def swap_variables(self, i: int) -> "MultiPoly":
        """The action of s_i: exchange x_i and x_{i+1}."""
        if not 1 <= i <= self.nvars - 1:
            raise ValueError(f"s_{i} out of range for {self.nvars} variables")
        out: dict[Exponents, object] = {}
        for e, c in self.terms.items():
            f = list(e)
            f[i - 1], f[i] = f[i], f[i - 1]
            out[tuple(f)] = c
        return MultiPoly(self.nvars, out)

    def graded_degrees(self) -> set[int]:
        """{2 * total exponent} over the monomials (deg x_i = 2)."""
        return {2 * sum(e) for e in self.terms}

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def map_coefficients(self, f) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: f(c) for e, c in self.terms.items()})

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": {",".join(map(str, e)): str(c)
                      for e, c in sorted(self.terms.items())},
        }

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(parts) + ")"


def divexact_alpha(g: MultiPoly, i: int) -> MultiPoly:
    """Exact division of g by alpha_i = x_{i+1} - x_i.

    Synthetic division along x_i: alpha_i has x_i-leading coefficient -1,
    so each reduction step is division-free.  Raises InexactDivision if a
    remainder survives (never happens for alpha-antisymmetric input).
    """
    vi = i - 1       # exponent slot of x_i
    vj = i           # exponent slot of x_{i+1}
    work = dict(g.terms)
    quo: dict[Exponents, object] = {}
    while work:
        d = max(e[vi] for e in work)
        if d == 0:
            raise InexactDivision(f"remainder left after division by alpha_{i}")
        layer = [(e, c) for e, c in work.items() if e[vi] == d]
        for e, c in layer:
            q = list(e)
            q[vi] = d - 1
            qe = tuple(q)
            _add_into(quo, qe, -c)
            del work[e]
            # subtract (-c) * x^qe * x_{i+1}; the x_i part cancelled exactly
            r = list(qe)
            r[vj] += 1
            _add_into(work, tuple(r), c)
    out = MultiPoly(g.nvars, quo)
    if __debug__:
        assert out * MultiPoly.alpha(i, g.nvars) == g
    return out


def apply_demazure(i: int, f: MultiPoly) -> MultiPoly:
    """del_i(f) = (f - s_i f) / alpha_i; drops graded degree by 2.

    >>> x2 = MultiPoly.variable(2, 2)
    >>> apply_demazure(1, x2) == MultiPoly.constant(1, 2)
    True
    """
    return divexact_alpha(f - f.swap_variables(i), i)


# -- operator expressions ----------------------------------------------


@dataclass(frozen=True)
class Const:
    poly: MultiPoly


@dataclass(frozen=True)
class Mul:
    factor: MultiPoly
    child: "DemazureExpr"


@dataclass(frozen=True)
class Op:
    index: int
    child: "DemazureExpr"


DemazureExpr = Union[Const, Mul, Op]


def op_count(expr: DemazureExpr) -> int:
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Mul):
        return op_count(expr.child)
    return 1 + op_count(expr.child)


def op_indices(expr: DemazureExpr) -> list[int]:
    """Generator indices of the Op nodes, in prefix (written) order."""
    out = []
    node = expr
    while not isinstance(node, Const):
        if isinstance(node, Op):
            out.append(node.index)
        node = node.child
    return out


def content_degree(expr: DemazureExpr) -> int:
    """Graded degree of the polynomial content (Const and Mul factors)."""
    node = expr
    deg = 0
    while True:
        if isinstance(node, Const):
            degs = node.poly.graded_degrees()
            return deg + (max(degs) if degs else 0)
        if isinstance(node, Mul):
            degs = node.factor.graded_degrees()
            deg += max(degs) if degs else 0
        node = node.child


def eval_expr(expr: DemazureExpr, erase: int | None = None) -> MultiPoly:
    """Evaluate bottom-up; with `erase` = k, the k-th Op node in prefix
    order acts as the identity.

    >>> eval_expr(builtin_expr("paper-GL15"), erase=4).constant_value()
    -2
    """
    total = op_count(expr)
    if erase is not None and not 1 <= erase <= total:
        raise IndexError(f"operator index {erase} out of range 1..{total}")
    counter = 0

    def walk(node: DemazureExpr) -> MultiPoly:
        nonlocal counter
        if isinstance(node, Const):
            return node.poly
        if isinstance(node, Mul):
            return node.factor * walk(node.child)
        counter += 1
        k = counter
        val = walk(node.child)
        if k == erase:
            return val
        return apply_demazure(node.index, val)

    return walk(expr)


@dataclass
class ErasureAudit:
    op_number: int
    generator: int
    expected_degree: int
    value_degrees: list[int]
    ok: bool


@dataclass
class IntersectionFormReport:
    entries: list[int]
    rank_over_Q: int
    rank_over_p: int
    p: int
    degree_audit: list[ErasureAudit]

    def to_json_dict(self) -> dict:
        return {
            "entries": list(self.entries),
            "rank_over_Q": self.rank_over_Q,
            "rank_over_p": self.rank_over_p,
            "p": self.p,
            "degree_audit": [
                {
                    "op": a.op_number,
                    "generator": a.generator,
                    "expected_degree": a.expected_degree,
                    "value_degrees": a.value_degrees,
                    "ok": a.ok,
                }
                for a in self.degree_audit
            ],
        }


def intersection_vector(expr: DemazureExpr, p: int = 2) -> IntersectionFormReport:
    """Erase each Op in prefix order; collect the constants and both ranks.

    Every erasure must land in degree 0 (content degree minus 2 per
    surviving operator); a nonconstant value raises DegreeAuditFailure.
    """
    gens = op_indices(expr)
    total = len(gens)
    cdeg = content_degree(expr)
    entries: list[int] = []
    audit: list[ErasureAudit] = []
    for k in range(1, total + 1):
        val = eval_expr(expr, erase=k)
        expected = cdeg - 2 * (total - 1)
        degrees = sorted(val.graded_degrees())
        ok = val.is_constant()
        audit.append(ErasureAudit(k, gens[k - 1], expected, degrees, ok))
        if not ok:
            raise DegreeAuditFailure(
                f"erasing operator {k} left degrees {degrees}, "
                f"expected a constant")
        entries.append(val.constant_value())
    report = IntersectionFormReport(
        entries=entries,
        rank_over_Q=matrix_rank([entries], "Q") if entries else 0,
        rank_over_p=matrix_rank([entries], "Fp", p) if entries else 0,
        p=p,
        degree_audit=audit,
    )
    return report


# -- exact matrix rank -------------------------------------------------


def matrix_rank(rows: Sequence[Sequence], field: str = "Q",
                p: int | None = None) -> int:
    """Exact rank over Q (fraction-free Bareiss) or F_p (modular Gauss).

    >>> matrix_rank([[-2, -2, 0, 2]], "Q")
    1
    >>> matrix_rank([[-2, -2, 0, 2]], "Fp", 2)
    0
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    if field == "Q":
        return _rank_bareiss(m)
    if field == "Fp":
        if p is None or p < 2:
            raise ValueError("a prime p is required for F_p rank")
        return _rank_mod_p(m, p)
    raise ValueError(f"unknown field {field!r}")


def _rank_bareiss(m: list[list]) -> int:
    # clear any rational entries row by row
    for r, row in enumerate(m):
        if any(isinstance(c, Fraction) for c in row):
            denom = 1
            for c in row:
                if isinstance(c, Fraction):
                    denom = denom * c.denominator // _gcd(denom, c.denominator)
            m[r] = [int(c * denom) for c in row]
        else:
            m[r] = [int(c) for c in row]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, rows):
            factor = m[r][col]
            for c in range(cols):
                m[r][c] = (m[r][c] * pv - factor * m[rank][c]) // prev
        prev = pv
        rank += 1
        if rank == rows:
            break
    return rank


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _rank_mod_p(m: list[list], p: int) -> int:
    m = [[int(c) % p for c in row] for row in m]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(c * inv) % p for c in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


# -- text format and builtins ------------------------------------------

_TOKEN = re.compile(r"\s*(D\d+|a\d+(?:\^\d+)?|x\d+(?:\^\d+)?|-?\d+|\(|\)|\*)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ValueError(f"bad token at: {text[pos:pos + 20]!r}")
            break
        out.append(match.group(1))
        pos = match.end()
    return out


def parse_expr(text: str, nvars: int | None = None) -> DemazureExpr:
    """Parse prefix notation like
    `D1 D2 ( a3 * D2 ( a3^2 ) )`:
    `Di` applies del_i, `ai^k` is the k-th power of a simple root, `xi` a
    variable, integers are constants, `poly * (...)` multiplies into the
    child value.  The ring dimension is the largest variable index used
    (alpha_i needs x_{i+1}) unless nvars is given.
    """
    tokens = _tokenize(text)
    if nvars is None:
        needed = 1
        for t in tokens:
            m = re.match(r"[Dax](\d+)", t)
            if m:
                idx = int(m.group(1))
                needed = max(needed, idx + 1 if t[0] in "Da" else idx)
        nvars = needed
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor() -> MultiPoly:
        tok = take()
        m = re.fullmatch(r"([ax])(\d+)(?:\^(\d+))?", tok)
        if m:
            kind, idx, power = m.group(1), int(m.group(2)), m.group(3)
            base = (MultiPoly.alpha(idx, nvars) if kind == "a"
                    else MultiPoly.variable(idx, nvars))
            return base ** int(power) if power else base
        if re.fullmatch(r"-?\d+", tok):
            return MultiPoly.constant(int(tok), nvars)
        raise ValueError(f"expected a polynomial factor, got {tok!r}")

    def parse_poly() -> MultiPoly:
        out = parse_factor()
        while peek() == "*" and pos + 1 < len(tokens) and \
                not tokens[pos + 1].startswith("D") and tokens[pos + 1] != "(":
            take()
            out = out * parse_factor()
        return out

    def parse_node() -> DemazureExpr:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok.startswith("D"):
            take()
            return Op(int(tok[1:]), parse_node())
        if tok == "(":
            take()
            node = parse_node()
            if take() != ")":
                raise ValueError("missing closing parenthesis")
            return node
        poly = parse_poly()
        if peek() == "*":
            take()
            return Mul(poly, parse_node())
        return Const(poly)

    node = parse_node()
    if pos != len(tokens):
        raise ValueError(f"trailing input: {tokens[pos:]}")
    return node


#: the published 12-operator erasure example for GL_15 (variables x1..x5)
PAPER_GL15_TEXT = ("D1 D2 D3 ( a4 * D2 D3 ( a4^2 * D3 ( a4^2 * "
                   "D1 D2 D3 ( a4^2 * D2 D3 ( a4^2 * D3 ( a4^2 ) ) ) ) ) )")

BUILTIN_EXPRESSIONS = {
    "paper-GL15": PAPER_GL15_TEXT,
}


def builtin_expr(name: str) -> DemazureExpr:
    try:
        return parse_expr(BUILTIN_EXPRESSIONS[name])
    except KeyError:
        raise ValueError(f"unknown builtin expression {name!r}") from None
