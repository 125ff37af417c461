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

so an operator is one pass over the terms of f.

An operator expression is a `Chain`: a list of steps from the top down,
each an operator del_i or a polynomial factor, above a base polynomial,
with the positions of its operators (`ops`).  Operators are numbered
1, 2, ... from the top down, the order in which they are written in
prefix notation and in which single operators are erased to assemble
the 1 x N intersection-form vector.  `parse_expr` reads the text in one
pass, matching each token once and checking it against its budgets, so
of several faulty tokens it names the first; it writes ai^k out by the
binomial formula.

`MultiPoly`, a map from exponent tuples to coefficients, is the value
type at the boundary only: what `parse_expr` builds, the steps of a
Chain, the result of `eval_expr` and the JSON; a value is read through
its `terms`.  Evaluation runs on packed monomials instead.  A Chain packs
its base and factors once, each exponent vector into one int with a
field of w bits per variable, where w is the bit length of the chain's
total degree bound, so no field can carry (see `Chain`).  A product of
monomials is then one int addition, so a factor multiplies through the
package's one sparse product kernel, `laurent._add_product`, whose
exponents add as packed keys do; and the d terms of del_i on a monomial
are an arithmetic progression of keys.  `_step` applies one packed step,
and `intersection_vector` and `eval_expr` both run on it.
`intersection_vector` evaluates the chain once bottom-up, keeping the
value under each operator, and gets erasure k by applying only the steps
above operator k to that value; `eval_expr` with `erase` re-evaluates
the whole chain and is the slow reference.  The vector is a single row,
so its rank over a field is 1 if some entry is nonzero there and 0
otherwise; its degree audit is rendered from the entries, since a
report exists only once every erasure has passed it.  The built-in
expression `paper-GL15` encodes the published 12-operator example.  Its
erasure vector evaluates to
(-2, -2, 0, -2, -2, 0, -2, -2, 0, -2, 0, 0), of rank 1 over Q and rank 0
over F_2; the published tuple has -2, 2 at entries 9 and 10 (see the
README's note on acceptance criterion 1).
"""
from __future__ import annotations

import operator
import re
from math import comb
from typing import Mapping, Sequence

from .laurent import ConsistencyViolation, _add_product

Exponents = tuple[int, ...]

# Largest k that `parse_expr` accepts in `ai^k` or `xi^k`.  An operator
# on ai^k writes about k^2 / 2 terms: `D1 ( a2^k )` takes about 1.8 s at
# k = 1,600 and 12 s at k = 3,200 (2 vCPU, Python 3.11), almost all of it
# evaluation.  Every known expression uses k <= 3.
MAX_EXPONENT = 64

# Most variables that `parse_expr` lets an expression's indices call for
# (x_i needs i of them, Di and ai need i + 1).  The ring's size grows
# with the largest index; 255 is also the largest n the fold takes.
MAX_VARIABLES = 255

# Most digits of a constant that `parse_expr` accepts, or of a result: the
# longest string int() converts by default (sys.get_int_max_str_digits).
MAX_CONSTANT_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_CONSTANT_DIGITS


class DegreeAuditFailure(ConsistencyViolation):
    """An operator erasure produced a nonconstant value."""


class MultiPoly:
    """Sparse multivariate polynomial: {exponent vector: coefficient}.

    The constructor takes int exponents and int coefficients only, and
    raises TypeError for anything else (a bool or a float included);
    the arithmetic adopts terms it has built from checked ones (`_wrap`).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, int] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length")
                if not all(type(k) is int for k in (*e, c)):
                    raise TypeError(f"not an integer term: {c!r}*x^{e!r}")
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
            terms[e] = terms.get(e, 0) + c
        return MultiPoly._wrap(self.nvars, {e: c for e, c in terms.items()
                                            if c})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        terms: dict[Exponents, int] = {}
        get = terms.get
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:       # c1 * c2 != 0, so e was there
                    del terms[e]
        return MultiPoly._wrap(self.nvars, terms)

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
        return MultiPoly._wrap(self.nvars, out)

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


# -- operator expressions ----------------------------------------------


class Chain:
    """`steps` from the top down, each an int i for del_i or a MultiPoly
    factor, above the polynomial `base`; `ops` lists the positions of the
    operator steps, and `degree` is the sum over the base and the factors
    of their largest total x-degree (`content_degree` // 2).  Every step
    is checked here, once, against the ring of `base`: evaluation skips
    steps above a zero value.

    The chain is packed here too, once, for evaluation: a monomial x^e
    becomes the int sum_j e_j << (j - 1) w, one field of
    w = degree.bit_length() bits per variable, and a polynomial a
    {key: coefficient} dict.  No field can carry, because no exponent
    leaves 0..degree, that is 0..2^w - 1.  A value starts as the base,
    each factor adds at most its largest total degree to a term and each
    operator lowers the total degree of every term it keeps by exactly 1
    with exponents staying >= 0 (the closed form), so every value on the
    way, and every erasure, which only skips an operator, has total
    degree at most `degree`; so has every sum of keys that a product
    forms.  A negative exponent would void this bound and is a
    ValueError (`parse_expr` never builds one).
    """

    __slots__ = ("steps", "base", "ops", "degree", "_packed", "_base",
                 "_shifts", "_mask")

    def __init__(self, steps: Sequence[int | MultiPoly], base: MultiPoly):
        nvars = base.nvars
        ops = []
        polys = [base]
        for pos, step in enumerate(steps):
            if isinstance(step, MultiPoly):
                if step.nvars != nvars:
                    raise ValueError("polynomials in different rings")
                polys.append(step)
            elif not 1 <= step <= nvars - 1:
                raise ValueError(f"D{step} out of range for {nvars} variables")
            else:
                ops.append(pos)
        for f in polys:
            for e in f.terms:
                if any(k < 0 for k in e):
                    raise ValueError(f"negative exponent in x^{e}")
        self.steps, self.base, self.ops = tuple(steps), base, tuple(ops)
        self.degree = sum(max(map(sum, f.terms), default=0) for f in polys)
        width = self.degree.bit_length()
        shifts = self._shifts = tuple(j * width for j in range(nvars))
        mask = self._mask = (1 << width) - 1

        def pack(step):
            if isinstance(step, MultiPoly):
                return {sum(k << s for k, s in zip(e, shifts)): c
                        for e, c in step.terms.items()}
            lo, hi = shifts[step - 1], shifts[step]
            return (lo, hi, mask, ~(mask << lo | mask << hi),
                    (1 << hi) - (1 << lo))

        self._packed = tuple(map(pack, self.steps))
        self._base = pack(base)

    def _exponents(self, key: int) -> Exponents:
        """The exponent vector of a packed monomial."""
        mask = self._mask
        return tuple(key >> s & mask for s in self._shifts)


def _step(step: dict[int, int] | tuple, val: dict[int, int]
          ) -> dict[int, int]:
    """One packed step of a Chain applied to the packed value `val`.  A
    factor multiplies through `laurent._add_product`: packed keys add as
    the exponents of a Laurent polynomial do, so the one product kernel
    serves, one-term factors by its one-pass path.  del_i, packed as
    (lo, hi, mask, clear, stride) with lo and hi the shifts of x_i and
    x_{i+1}, sends x_i^a x_{i+1}^b m with a < b to the b - a keys
    start, start + stride, ..., each with the coefficient of the term:
    start is m with both fields cleared (`clear`) and set to b - 1 and a,
    and stride = (1 << hi) - (1 << lo) trades one x_i for one x_{i+1}.
    With a > b the roles of a and b swap and the sign flips."""
    out: dict = {}
    if type(step) is dict:
        _add_product(out, 0, val, step)
        return out.get(0, {})
    lo, hi, mask, clear, stride = step
    get = out.get
    for m, c in val.items():
        a, b = m >> lo & mask, m >> hi & mask
        if a == b:
            continue
        if a > b:
            a, b, c = b, a, -c
        start = (m & clear) + ((b - 1) << lo) + (a << hi)
        for key in range(start, start + (b - a) * stride, stride):
            s = get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _run(steps: Sequence, val: dict[int, int]) -> dict[int, int]:
    """The value of packed `steps` (listed top-down) over `val`, bottom
    step first.  Every step maps 0 to 0, so a zero value is final."""
    for step in reversed(steps):
        if not val:
            break
        val = _step(step, val)
    return val


def _check_digits(values, what: str) -> None:
    """Refuse a value of more digits than str() prints by default."""
    if not all(-_DIGIT_BOUND < c < _DIGIT_BOUND for c in values):
        raise ValueError(f"{what} exceeds the budget MAX_CONSTANT_DIGITS = "
                         f"{MAX_CONSTANT_DIGITS} digits")


def op_count(expr: Chain) -> int:
    return len(expr.ops)


def content_degree(expr: Chain) -> int:
    """Graded degree of the polynomial content (base and factors)."""
    return 2 * expr.degree


def eval_expr(expr: Chain, erase: int | None = None) -> MultiPoly:
    """Evaluate bottom-up; with `erase` = k, the k-th operator in prefix
    order acts as the identity.  A result coefficient of more than
    MAX_CONSTANT_DIGITS digits is a ValueError.

    >>> eval_expr(builtin_expr("paper-GL15"), erase=4).terms
    {(0, 0, 0, 0, 0): -2}
    """
    steps, ops = expr._packed, expr.ops
    if erase is not None:
        if not 1 <= erase <= len(ops):
            raise IndexError(
                f"operator index {erase} out of range 1..{len(ops)}")
        pos = ops[erase - 1]
        steps = steps[:pos] + steps[pos + 1:]
    val = _run(steps, expr._base)
    _check_digits(val.values(), "a result coefficient")
    return MultiPoly._wrap(expr.base.nvars, {expr._exponents(m): c
                                             for m, c in val.items()})


class IntersectionFormReport:
    """The erasure row of a chain, its ranks over Q and F_p, and what its
    degree audit is rendered from: the generator of each operator and the
    expected degree of its erasure.  A report exists only if every
    erasure passed the audit (`intersection_vector` raises otherwise), so
    every audit row is ok, and an erasure, a constant, has degree 0 if it
    is nonzero and no degree at all if it is zero; `to_json_dict` writes
    each row from its entry rather than storing a copy of it."""

    __slots__ = ("entries", "rank_over_Q", "rank_over_p", "p",
                 "generators", "expected_degree")

    def __init__(self, entries: list[int], rank_over_Q: int,
                 rank_over_p: int, p: int, generators: list[int],
                 expected_degree: int):
        self.entries = entries
        self.rank_over_Q = rank_over_Q
        self.rank_over_p = rank_over_p
        self.p = p
        self.generators = generators
        self.expected_degree = expected_degree

    def to_json_dict(self) -> dict:
        return {
            "entries": list(self.entries),
            "rank_over_Q": self.rank_over_Q,
            "rank_over_p": self.rank_over_p,
            "p": self.p,
            "degree_audit": [
                {
                    "op": k,
                    "generator": generator,
                    "expected_degree": self.expected_degree,
                    "value_degrees": [0] if entry else [],
                    "ok": True,
                }
                for k, (generator, entry)
                in enumerate(zip(self.generators, self.entries), 1)
            ],
        }


def intersection_vector(expr: Chain, p: int = 2) -> IntersectionFormReport:
    """Erase each operator in turn; collect the constants and both ranks.

    The value under each operator is computed once, bottom-up; erasure k
    then applies only the steps above operator k to the value under it.
    Every factor is homogeneous and every operator lowers the degree by
    2, so a nonzero erasure has the expected degree: the content degree
    minus 2 per surviving operator.  Where that is not 0 the expression
    is unbalanced, and its first nonconstant erasure, in prefix order, is
    a ValueError naming --expr; where it is 0, a nonconstant erasure
    raises DegreeAuditFailure.  Either message names the erasure's
    degrees, which are computed for it alone.  An entry of more than
    MAX_CONSTANT_DIGITS digits is a ValueError.  The erasures form a
    single row, so its rank is 1 if some entry is nonzero (over F_p:
    nonzero mod p) and 0 otherwise.
    """
    steps, ops, val = expr._packed, expr.ops, expr._base
    expected = content_degree(expr) - 2 * (len(ops) - 1)
    under: list[dict[int, int]] = []
    done = len(steps)
    for pos in reversed(ops):
        val = _run(steps[pos + 1:done], val)
        under.append(val)
        done = pos + 1
    under.reverse()
    entries: list[int] = []
    for k, (pos, below) in enumerate(zip(ops, under), 1):
        val = _run(steps[:pos], below)
        if not val.keys() <= {0}:   # key 0 is the monomial 1
            degrees = sorted({2 * sum(expr._exponents(m)) for m in val})
            if expected:
                raise ValueError(
                    f"--expr is unbalanced: erasing operator {k} left "
                    f"degrees {degrees}; its content degree minus 2 per "
                    f"remaining operator is {expected}, not 0")
            raise DegreeAuditFailure(
                f"erasing operator {k} left degrees {degrees}, "
                f"expected a constant")
        entries.append(val.get(0, 0))
    _check_digits(entries, "an intersection-vector entry")
    return IntersectionFormReport(
        entries=entries,
        rank_over_Q=int(any(entries)),
        rank_over_p=int(any(e % p for e in entries)),
        p=p,
        generators=[expr.steps[pos] for pos in ops],
        expected_degree=expected,
    )


# -- text format and builtins ------------------------------------------

# One match per token.  Groups: the token, an operator's index, a factor's
# index and exponent, a constant.  [0-9], not \d: int() would read other
# scripts' digits as ASCII ones.
_TOKEN = re.compile(
    r"\s*(D([0-9]+)|[ax]([0-9]+)(?:\^([0-9]+))?|(-?[0-9]+)|[()*])")


def parse_expr(text: str) -> Chain:
    """Parse prefix notation like `D1 D2 ( a3 * D2 ( a3^2 ) )`: `Di`
    applies del_i, `ai^k` is the k-th power of a simple root, `xi` a
    variable, integers are constants, `poly * (...)` multiplies into the
    child value.  The ring dimension is the largest variable index used
    (alpha_i needs x_{i+1}).  An index of 0 or one calling for more than
    MAX_VARIABLES variables, an exponent above MAX_EXPONENT or a constant
    of more than MAX_CONSTANT_DIGITS digits is a ValueError naming the
    token; with several faults, the first in reading order.

    >>> expr = parse_expr("D1 ( a2 * D2 ( x3^2 ) )")
    >>> expr.steps
    (1, MultiPoly(1*x3 + -1*x2), 2)
    >>> [expr.steps[pos] for pos in expr.ops], expr.base.nvars
    ([1, 2], 3)
    """
    # Read each token once into (token, kind, value, exponent): kind is
    # "D", "a", "x", "c" (a constant, value) or the bracket or `*` itself.
    tokens: list[tuple[str, str, int, int | None]] = []
    nvars = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ValueError(f"bad token at: {text[pos:pos + 20]!r}")
            break
        pos = match.end()
        tok, op, index, power, const = match.groups()
        if const is not None:
            digits = len(const.lstrip("-"))
            if digits > MAX_CONSTANT_DIGITS:
                raise ValueError(
                    f"bad token {tok!r}: a constant of {digits} digits "
                    f"exceeds the budget MAX_CONSTANT_DIGITS = "
                    f"{MAX_CONSTANT_DIGITS}")
            tokens.append((tok, "c", int(const), None))
        elif op is None and index is None:
            tokens.append((tok, tok, 0, None))
        else:
            index = (op or index).lstrip("0") or "0"
            shift = tok[0] != "x"   # D_i and alpha_i need x_{i+1}
            # lengths first: int() refuses strings of over 4,300 digits
            if (len(index) > len(str(MAX_VARIABLES))
                    or int(index) + shift > MAX_VARIABLES):
                raise ValueError(
                    f"bad token {tok!r}: index {index} needs more than "
                    f"MAX_VARIABLES = {MAX_VARIABLES} variables")
            if index == "0":
                raise ValueError(f"bad token {tok!r}: indices start at 1")
            if power is not None:
                power = power.lstrip("0") or "0"
                if (len(power) > len(str(MAX_EXPONENT))
                        or int(power) > MAX_EXPONENT):
                    raise ValueError(
                        f"bad token {tok!r}: exponent {power} exceeds the "
                        f"budget MAX_EXPONENT = {MAX_EXPONENT}")
                power = int(power)
            nvars = max(nvars, int(index) + shift)
            tokens.append((tok, tok[0], int(index), power))

    def factor(kind: str, value: int, power: int | None) -> MultiPoly:
        if kind == "c":
            return MultiPoly.constant(value, nvars)
        if kind not in ("a", "x"):
            raise ValueError(f"expected a polynomial factor, got {kind!r}")
        k = 1 if power is None else power
        e = [0] * nvars
        if kind == "x":
            e[value - 1] = k
            return MultiPoly._wrap(nvars, {tuple(e): 1})
        terms = {}      # alpha_i^k = sum_j C(k, j) x_{i+1}^j (-x_i)^(k-j)
        for j in range(k + 1):
            e[value - 1], e[value] = k - j, j
            terms[tuple(e)] = (-1) ** (k - j) * comb(k, j)
        return MultiPoly._wrap(nvars, terms)

    # Read the chain top-down: every `Di` or `poly *` adds a step, every
    # `(` one pending `)`, and the first bare polynomial ends the chain.
    # Factors joined by `*` form one polynomial up to the next `Di` or `(`.
    tokens.append(("", "", 0, None))   # the end of the text
    steps: list[int | MultiPoly] = []
    depth = pos = 0
    while True:
        kind, value = tokens[pos][1:3]
        if not kind:
            raise ValueError("unexpected end of expression")
        pos += 1
        if kind == "D":
            steps.append(value)
        elif kind == "(":
            depth += 1
        else:
            poly = factor(*tokens[pos - 1][1:])
            while (tokens[pos][1] == "*"
                   and tokens[pos + 1][1] not in ("D", "(", "")):
                poly = poly * factor(*tokens[pos + 1][1:])
                pos += 2
            if tokens[pos][1] != "*":
                break
            pos += 1
            steps.append(poly)
    for _ in range(depth):
        if tokens[pos][1] != ")":
            raise ValueError("missing closing parenthesis" if tokens[pos][1]
                             else "unexpected end of expression")
        pos += 1
    if tokens[pos][1]:
        raise ValueError(
            f"trailing input: {[tok for tok, *_ in tokens[pos:-1]]}")
    return Chain(steps, poly)


#: the published 12-operator erasure example for GL_15 (variables x1..x5)
PAPER_GL15_TEXT = ("D1 D2 D3 ( a4 * D2 D3 ( a4^2 * D3 ( a4^2 * "
                   "D1 D2 D3 ( a4^2 * D2 D3 ( a4^2 * D3 ( a4^2 ) ) ) ) ) )")

BUILTIN_EXPRESSIONS = {"paper-GL15": PAPER_GL15_TEXT}


def builtin_expr(name: str) -> Chain:
    try:
        return parse_expr(BUILTIN_EXPRESSIONS[name])
    except KeyError:
        raise ValueError(f"unknown builtin expression {name!r}") from None
