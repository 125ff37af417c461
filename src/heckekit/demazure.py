"""
Demazure operators on a sparse integer polynomial ring, nested operator
expressions, and the erase-one-operator intersection vector with its
ranks over Q and F_p.

The ring is Z[x_1, ..., x_k] graded with deg x_i = 2.  The operator
del_i sends f to (f - s_i f) / alpha_i with alpha_i = x_{i+1} - x_i;
the divided difference drops the graded degree by 2.  No division is
carried out: with m free of x_i and x_{i+1}, d = |a - b| and
l = min(a, b), del_i(x_i^a x_{i+1}^b m) is 0 if a = b and otherwise

    sign(b - a) (x_i x_{i+1})^l sum_{k<d} x_i^(d-1-k) x_{i+1}^k m,

so `apply_demazure` is one pass over the terms of f.

An operator expression is a chain: every Mul and Op node has exactly one
child, and the bottom node is a Const.  Op nodes are numbered 1, 2, ...
from the top down, the order in which they are written in prefix
notation and in which single operators are erased to assemble the 1 x N
intersection-form vector.  `intersection_vector` evaluates the chain
once bottom-up, keeping the value under each Op, and gets erasure k by
applying only the steps above Op k to that value; `eval_expr` with
`erase` re-evaluates the whole chain and is the slow reference.  The
vector is a single row, so its rank over a field is 1 if some entry is
nonzero there and 0 otherwise.  The built-in expression `paper-GL15`
encodes the published 12-operator example whose erasure vector is
(-2, -2, 0, -2, -2, 0, -2, -2, -2, 2, 0, 0), of rank 1 over Q and rank 0
over F_2.
"""
from __future__ import annotations

import re
from typing import Mapping, Sequence, Union

from .laurent import ConsistencyViolation, _add_into

Exponents = tuple[int, ...]

# Largest k that `parse_expr` accepts in `ai^k` or `xi^k`.  Expanding
# ai^k takes time growing faster than k^2 (about 5 s at k = 1,600), and
# every known expression uses k <= 3.
MAX_EXPONENT = 64

# Most variables that `parse_expr` lets an expression's indices call for
# (x_i needs i of them, Di and ai need i + 1).  The ring's size grows
# with the largest index; 255 is also the largest n the fold takes.
MAX_VARIABLES = 255

# Most digits that `parse_expr` accepts in an integer constant: the
# longest string int() converts by default (sys.get_int_max_str_digits).
MAX_CONSTANT_DIGITS = 4300


class DegreeAuditFailure(ConsistencyViolation):
    """An operator erasure produced a nonconstant value."""


class MultiPoly:
    """Sparse multivariate polynomial: {exponent vector: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, int] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length")
                if c != 0:
                    self.terms[e] = c

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[Exponents, int]) -> "MultiPoly":
        """Adopt `terms`, already valid and free of zeros, unchecked."""
        out = cls.__new__(cls)
        out.nvars, out.terms = nvars, terms
        return out

    @classmethod
    def constant(cls, c: int, nvars: int) -> "MultiPoly":
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
        if isinstance(other, int):
            return self == MultiPoly.constant(other, self.nvars)
        return NotImplemented

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _add_into(terms, e, c)
        return MultiPoly._wrap(self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        terms: dict[Exponents, int] = {}
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
        out: dict[Exponents, int] = {}
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

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

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


def apply_demazure(i: int, f: MultiPoly) -> MultiPoly:
    """del_i(f) = (f - s_i f) / alpha_i, by the closed form on each
    monomial (see the module docstring); drops graded degree by 2.

    >>> x2 = MultiPoly.variable(2, 2)
    >>> apply_demazure(1, x2) == MultiPoly.constant(1, 2)
    True
    """
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"s_{i} out of range for {f.nvars} variables")
    terms: dict[Exponents, int] = {}
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


# -- operator expressions ----------------------------------------------


class Const:
    __slots__ = ("poly",)

    def __init__(self, poly: MultiPoly):
        self.poly = poly


class Mul:
    __slots__ = ("factor", "child")

    def __init__(self, factor: MultiPoly, child: "DemazureExpr"):
        self.factor = factor
        self.child = child


class Op:
    __slots__ = ("index", "child")

    def __init__(self, index: int, child: "DemazureExpr"):
        self.index = index
        self.child = child


DemazureExpr = Union[Const, Mul, Op]


def _chain(expr: DemazureExpr) -> tuple[list[Union[Mul, Op]], MultiPoly]:
    """The Mul and Op nodes from the top down, and the Const polynomial
    at the bottom.  Every step must act on the ring of the Const."""
    steps = []
    while not isinstance(expr, Const):
        steps.append(expr)
        expr = expr.child
    nvars = expr.poly.nvars
    for step in steps:
        if isinstance(step, Mul):
            if step.factor.nvars != nvars:
                raise ValueError("polynomials in different rings")
        elif not 1 <= step.index <= nvars - 1:
            raise ValueError(
                f"D{step.index} out of range for {nvars} variables")
    return steps, expr.poly


def _apply(steps: Sequence[Union[Mul, Op]], val: MultiPoly) -> MultiPoly:
    """The value of `steps` (listed top-down) over `val`, bottom step
    first.  Every step maps 0 to 0, so a zero value is final."""
    for step in reversed(steps):
        if not val:
            break
        if isinstance(step, Mul):
            val = step.factor * val
        else:
            val = apply_demazure(step.index, val)
    return val


def _op_positions(steps: Sequence[Union[Mul, Op]]) -> list[int]:
    return [pos for pos, step in enumerate(steps) if isinstance(step, Op)]


def op_count(expr: DemazureExpr) -> int:
    return len(op_indices(expr))


def op_indices(expr: DemazureExpr) -> list[int]:
    """Generator indices of the Op nodes, in prefix (written) order."""
    return [step.index for step in _chain(expr)[0] if isinstance(step, Op)]


def content_degree(expr: DemazureExpr) -> int:
    """Graded degree of the polynomial content (Const and Mul factors)."""
    steps, base = _chain(expr)
    polys = [base] + [step.factor for step in steps if isinstance(step, Mul)]
    return sum(max(f.graded_degrees(), default=0) for f in polys)


def eval_expr(expr: DemazureExpr, erase: int | None = None) -> MultiPoly:
    """Evaluate bottom-up; with `erase` = k, the k-th Op node in prefix
    order acts as the identity.

    >>> eval_expr(builtin_expr("paper-GL15"), erase=4).constant_value()
    -2
    """
    steps, base = _chain(expr)
    ops = _op_positions(steps)
    if erase is not None:
        if not 1 <= erase <= len(ops):
            raise IndexError(
                f"operator index {erase} out of range 1..{len(ops)}")
        pos = ops[erase - 1]
        steps = steps[:pos] + steps[pos + 1:]
    return _apply(steps, base)


class ErasureAudit:
    __slots__ = ("op_number", "generator", "expected_degree",
                 "value_degrees", "ok")

    def __init__(self, op_number: int, generator: int, expected_degree: int,
                 value_degrees: list[int], ok: bool):
        self.op_number = op_number
        self.generator = generator
        self.expected_degree = expected_degree
        self.value_degrees = value_degrees
        self.ok = ok


class IntersectionFormReport:
    __slots__ = ("entries", "rank_over_Q", "rank_over_p", "p",
                 "degree_audit")

    def __init__(self, entries: list[int], rank_over_Q: int,
                 rank_over_p: int, p: int, degree_audit: list[ErasureAudit]):
        self.entries = entries
        self.rank_over_Q = rank_over_Q
        self.rank_over_p = rank_over_p
        self.p = p
        self.degree_audit = degree_audit

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

    The value under each Op is computed once, bottom-up; erasure k then
    applies only the steps above Op k to the value under it.  Every
    erasure must land in degree 0 (content degree minus 2 per surviving
    operator); the first nonconstant value, in prefix order, raises
    DegreeAuditFailure.  The erasures form a single row, so its rank is
    1 if some entry is nonzero (over F_p: nonzero mod p) and 0 otherwise.
    """
    steps, val = _chain(expr)
    ops = _op_positions(steps)
    expected = content_degree(expr) - 2 * (len(ops) - 1)
    under: list[MultiPoly] = []
    done = len(steps)
    for pos in reversed(ops):
        val = _apply(steps[pos + 1:done], val)
        under.append(val)
        done = pos + 1
    under.reverse()
    entries: list[int] = []
    audit: list[ErasureAudit] = []
    for k, (pos, below) in enumerate(zip(ops, under), 1):
        val = _apply(steps[:pos], below)
        degrees = sorted(val.graded_degrees())
        ok = val.is_constant()
        audit.append(ErasureAudit(k, steps[pos].index, expected, degrees, ok))
        if not ok:
            raise DegreeAuditFailure(
                f"erasing operator {k} left degrees {degrees}, "
                f"expected a constant")
        entries.append(val.constant_value())
    return IntersectionFormReport(
        entries=entries,
        rank_over_Q=int(any(entries)),
        rank_over_p=int(any(e % p for e in entries)),
        p=p,
        degree_audit=audit,
    )


# -- text format and builtins ------------------------------------------

# [0-9], not \d: int() would read other scripts' digits as ASCII ones
_TOKEN = re.compile(
    r"\s*(D[0-9]+|[ax][0-9]+(?:\^[0-9]+)?|-?[0-9]+|\(|\)|\*)")


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
    (alpha_i needs x_{i+1}) unless nvars is given.  An index of 0, one
    beyond the ring or calling for more than MAX_VARIABLES variables, an
    exponent above MAX_EXPONENT or a constant of more than
    MAX_CONSTANT_DIGITS digits is a ValueError naming the token.
    """
    tokens = _tokenize(text)
    indexed = []
    for t in tokens:
        if t[0] in "-0123456789":
            digits = len(t.lstrip("-"))
            if digits > MAX_CONSTANT_DIGITS:
                raise ValueError(
                    f"bad token {t!r}: a constant of {digits} digits exceeds "
                    f"the budget MAX_CONSTANT_DIGITS = {MAX_CONSTANT_DIGITS}")
        elif t[0] in "Dax":
            index = re.match(r"[Dax]0*([0-9]+)", t).group(1)
            shift = t[0] != "x"   # D_i and alpha_i need x_{i+1}
            # lengths first: int() refuses strings of over 4,300 digits
            if (len(index) > len(str(MAX_VARIABLES))
                    or int(index) + shift > MAX_VARIABLES):
                raise ValueError(
                    f"bad token {t!r}: index {index} needs more than "
                    f"MAX_VARIABLES = {MAX_VARIABLES} variables")
            indexed.append((t, int(index), shift))
    if nvars is None:
        nvars = max([idx + shift for _, idx, shift in indexed], default=1)
    for t, idx, shift in indexed:
        if idx == 0:
            raise ValueError(f"bad token {t!r}: indices start at 1")
        if idx + shift > nvars:
            raise ValueError(f"bad token {t!r}: index {idx} out of range "
                             f"for {nvars} variables")
        power = (t.partition("^")[2] or "1").lstrip("0") or "0"
        # lengths first: int() refuses strings of over 4,300 digits
        if len(power) > len(str(MAX_EXPONENT)) or int(power) > MAX_EXPONENT:
            raise ValueError(f"bad token {t!r}: exponent {power} exceeds "
                             f"the budget MAX_EXPONENT = {MAX_EXPONENT}")
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

    # Read the chain top-down: every `Di` or `poly *` adds a step, every
    # `(` one pending `)`, and the first bare polynomial ends the chain.
    steps: list[int | MultiPoly] = []
    depth = 0
    while True:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok.startswith("D"):
            take()
            steps.append(int(tok[1:]))
        elif tok == "(":
            take()
            depth += 1
        else:
            poly = parse_poly()
            if peek() != "*":
                break
            take()
            steps.append(poly)
    for _ in range(depth):
        if take() != ")":
            raise ValueError("missing closing parenthesis")
    if pos != len(tokens):
        raise ValueError(f"trailing input: {tokens[pos:]}")
    node: DemazureExpr = Const(poly)
    for step in reversed(steps):
        node = Op(step, node) if isinstance(step, int) else Mul(step, node)
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
