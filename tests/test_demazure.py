import random
import re

import pytest

import oracles
from heckekit import demazure
from heckekit.demazure import (
    BUILTIN_EXPRESSIONS,
    MAX_CONSTANT_DIGITS,
    MAX_EXPONENT,
    MAX_VARIABLES,
    PAPER_GL15_TEXT,
    Chain,
    DegreeAuditFailure,
    MultiPoly,
    builtin_expr,
    content_degree,
    eval_expr,
    intersection_vector,
    op_count,
    parse_expr,
)


def demazure_closed_form(i, f):
    """Independent oracle: del_i on the monomial u * x_i^a * x_{i+1}^b is
    sign(b - a) * u * (x_i x_{i+1})^min(a,b) * h_{|a-b|-1}(x_i, x_{i+1}),
    where h_k is the complete homogeneous symmetric polynomial."""
    out = MultiPoly(f.nvars)
    for e, c in f.terms.items():
        a, b = e[i - 1], e[i]
        if a == b:
            continue
        sign = 1 if b > a else -1
        lo, hi = min(a, b), max(a, b)
        for j in range(hi - lo):
            g = list(e)
            g[i - 1] = lo + j
            g[i] = hi - 1 - j
            out = out + MultiPoly(f.nvars, {tuple(g): sign * c})
    return out


def delta(i, f):
    """del_i(f) through the package's one evaluator, checked against the
    tuple-key oracle on the way."""
    got = eval_expr(Chain([i], f))
    assert got == oracles.apply_demazure(i, f), (i, f)
    return got


def rand_poly(rng, nvars=4, terms=4, deg=3):
    out = MultiPoly(nvars)
    for _ in range(terms):
        e = tuple(rng.randrange(deg) for _ in range(nvars))
        out = out + MultiPoly(nvars, {e: rng.randrange(-5, 6)})
    return out


def test_apply_demazure_examples():
    x1, x2 = MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(0, 1): 1})
    assert delta(1, x2).terms == {(0, 0): 1}
    assert delta(1, x1).terms == {(0, 0): -1}
    a4sq = parse_expr("a4^2").base
    assert delta(3, a4sq).terms == {
        (0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 1): -2}


def test_apply_demazure_matches_closed_form():
    rng = random.Random(17)
    for _ in range(120):
        f = rand_poly(rng)
        i = rng.randrange(1, 4)
        assert delta(i, f) == demazure_closed_form(i, f)


def test_apply_demazure_multiplies_back_on_every_small_monomial():
    """del_i(f) * alpha_i == f - s_i f on every x_i^a x_{i+1}^b m with
    a, b <= 6 in five variables; Z[x] has no zero divisors, so this
    identity alone determines del_i(f)."""
    nv = 5
    for i in range(1, nv):
        alpha = parse_expr(f"a{i} * x{nv}^0").base
        others = [v for v in range(nv) if v not in (i - 1, i)]
        for m in ((0, 0, 0), (2, 1, 3)):
            for a in range(7):
                for b in range(7):
                    e = [0] * nv
                    e[i - 1], e[i] = a, b
                    for v, k in zip(others, m):
                        e[v] = k
                    f = MultiPoly(nv, {tuple(e): 3})
                    got = delta(i, f)
                    assert got * alpha == f + f.swap_variables(i) * -1, (i, e)
                    if a != b:
                        assert {sum(g) for g in got.terms} == {sum(e) - 1}


def test_nil_and_braid_relations():
    rng = random.Random(19)
    for _ in range(60):
        f = rand_poly(rng)
        i = rng.randrange(1, 4)
        assert not eval_expr(Chain([i, i], f))
    for _ in range(40):
        f = rand_poly(rng)
        i = rng.randrange(1, 3)
        lhs = eval_expr(Chain([i, i + 1, i], f))
        rhs = eval_expr(Chain([i + 1, i, i + 1], f))
        assert lhs == rhs == oracles.chain_value(Chain([i, i + 1, i], f))


def test_twisted_leibniz():
    rng = random.Random(21)
    for _ in range(60):
        f, g = rand_poly(rng, terms=3), rand_poly(rng, terms=3)
        i = rng.randrange(1, 4)
        lhs = delta(i, f * g)
        rhs = delta(i, f) * g + f.swap_variables(i) * delta(i, g)
        assert lhs == rhs


def test_parser_and_structure():
    expr = parse_expr("D1 D2 ( a2 * D1 ( x1^2 ) )")
    assert op_count(expr) == 3
    assert [expr.steps[pos] for pos in expr.ops] == [1, 2, 1]
    assert expr.steps == (1, 2, MultiPoly(3, {(0, 0, 1): 1, (0, 1, 0): -1}),
                          1)
    assert expr.base.terms == {(2, 0, 0): 1}
    assert content_degree(expr) == 2 + 4

    with pytest.raises(ValueError):
        parse_expr("D1 D2 ( a2 * D1 ( x1^2 )")
    with pytest.raises(ValueError):
        parse_expr("Q1 ( x1 )")
    with pytest.raises(ValueError, match="bad token at"):
        parse_expr("D\u0661 ( x2 )")      # an Arabic-Indic digit one


def test_parser_names_each_structural_fault():
    for text, message in (
            ("D1 ( x2 x3 )", "missing closing parenthesis"),
            ("D1 ( D2 ( x3 ) x3 )", "missing closing parenthesis"),
            ("D1 ( x2", "unexpected end of expression"),
            ("D1 ( x2 * ", "unexpected end of expression"),
            ("D1 ( x2 ) )", "trailing input: [')']"),
            ("D1 ( x2 * * x3 )", "expected a polynomial factor, got '*'"),
            ("D1 ( )", "expected a polynomial factor, got ')'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_expr(text)


def test_parser_rejects_indices_outside_the_ring():
    for text, token in (("D0 ( x1 )", "D0"), ("D1 ( a0 )", "a0"),
                        ("D1 ( x0 )", "x0"), ("D1 ( a0^2 )", "a0^2")):
        with pytest.raises(ValueError, match=re.escape(f"'{token}'")):
            parse_expr(text)


def test_parser_rejects_exponents_above_the_budget():
    assert MAX_EXPONENT == 64
    for token in ("a2^65", "x1^100000"):
        with pytest.raises(ValueError, match=re.escape(
                f"bad token '{token}': exponent {token.partition('^')[2]} "
                f"exceeds the budget MAX_EXPONENT = 64")):
            parse_expr(f"D1 ( x3 * {token} )")
    got = eval_expr(parse_expr("D1 ( a1^64 )"))
    assert got == delta(1, parse_expr("a1^64").base)
    assert not got


def test_parser_rejects_indices_above_the_budget():
    assert MAX_VARIABLES == 255
    huge = "9" * 5000   # past int()'s 4,300-digit limit
    for text, token, index in (
            ("D1 ( x3000000 * x2999999 )", "x3000000", "3000000"),
            (f"D1 ( x{huge} )", f"x{huge}", huge),
            ("D1 ( x0256 )", "x0256", "256"),
            ("D255 ( x1 )", "D255", "255"),
            ("D1 ( a255 )", "a255", "255")):
        with pytest.raises(ValueError, match=re.escape(
                f"bad token '{token}': index {index} needs more than "
                f"MAX_VARIABLES = 255 variables")):
            parse_expr(text)
    assert eval_expr(parse_expr("D254 ( x255 )")) == MultiPoly.constant(1, 255)


def test_parser_rejects_constants_above_the_budget():
    assert MAX_CONSTANT_DIGITS == 4300
    for token in ("9" * 4301, "-" + "9" * 5000, "0" * 4301):
        digits = len(token.lstrip("-"))
        with pytest.raises(ValueError, match=re.escape(
                f"bad token '{token}': a constant of {digits} digits "
                f"exceeds the budget MAX_CONSTANT_DIGITS = 4300")):
            parse_expr(f"D1 ( {token} * x2 )")
    # the longest constant that int() converts still parses
    got = eval_expr(parse_expr(f"D1 ( -{'9' * 4300} * x2 )"))
    assert got == MultiPoly.constant(1 - 10 ** 4300, 2)


def test_results_above_the_digit_budget_are_rejected():
    """A value past MAX_CONSTANT_DIGITS digits is a ValueError naming the
    budget, whether eval_expr returns it or it is an erasure entry."""
    message = "exceeds the budget MAX_CONSTANT_DIGITS = 4300 digits"
    for c in (10 ** 4300 - 1, 1 - 10 ** 4300):
        assert eval_expr(Chain([], MultiPoly.constant(c, 2))) == c
        assert intersection_vector(
            Chain([1, 1], MultiPoly(2, {(0, 1): c}))).entries == [c, c]
    for c in (10 ** 4300, -10 ** 4300):
        with pytest.raises(ValueError, match=message):
            eval_expr(Chain([], MultiPoly.constant(c, 2)))
        with pytest.raises(ValueError, match=message):
            intersection_vector(Chain([1, 1], MultiPoly(2, {(0, 1): c})))


def test_multipoly_takes_int_exponents_and_coefficients_only():
    for e in ((0.5, 0), (1.0, 0), (True, 0), (0, False)):
        with pytest.raises(TypeError, match="not an integer term"):
            MultiPoly(2, {e: 1})
    for c in (1.5, 1.0, True, False):
        with pytest.raises(TypeError, match="not an integer term"):
            MultiPoly(2, {(0, 0): c})
    with pytest.raises(ValueError, match="wrong length"):
        MultiPoly(2, {(0,): 1})
    f = MultiPoly(2, {(1, 0): 2, (0, 1): 0})
    assert f.terms == {(1, 0): 2}
    # an int scalar (a negative one too) and s_i adopt checked terms
    assert (f * -1).terms == {(1, 0): -2}
    assert (f * 3).terms == {(1, 0): 6} and (f * 0).terms == {}
    assert f.swap_variables(1).terms == {(0, 1): 2}


def test_chain_rejects_operators_outside_the_ring():
    # zero values skip the remaining steps, so the ring is checked up front
    with pytest.raises(ValueError, match="D3 out of range for 3 variables"):
        Chain([3], MultiPoly(3))
    with pytest.raises(ValueError, match="D0 out of range for 3 variables"):
        Chain([0, MultiPoly(3)], MultiPoly(3))
    with pytest.raises(ValueError, match="different rings"):
        Chain([1, MultiPoly(2)], MultiPoly.constant(1, 3))


def test_eval_simple():
    a4 = parse_expr("a4").base
    assert eval_expr(Chain([], a4)) == a4
    got = eval_expr(Chain([3], a4 ** 2))
    assert got == delta(3, a4 ** 2)


def test_builtin_shape():
    expr = builtin_expr("paper-GL15")
    assert op_count(expr) == 12
    assert [expr.steps[pos] for pos in expr.ops] == [1, 2, 3, 2, 3, 3,
                                                     1, 2, 3, 2, 3, 3]
    assert content_degree(expr) == 22  # alpha4 + five alpha4^2 factors
    with pytest.raises(ValueError):
        builtin_expr("no-such")
    assert "paper-GL15" in BUILTIN_EXPRESSIONS


def test_builtin_full_evaluation_vanishes():
    # degree 22 - 2*12 < 0 forces the zero polynomial
    assert not eval_expr(builtin_expr("paper-GL15"))


def test_builtin_single_erasures():
    expr = builtin_expr("paper-GL15")
    assert eval_expr(expr, erase=1) == MultiPoly.constant(-2, 5)
    assert eval_expr(expr, erase=3) == MultiPoly.constant(0, 5)
    # erasing the fourth operator (the second D2) gives the worked value -2
    assert eval_expr(expr, erase=4) == MultiPoly.constant(-2, 5)
    with pytest.raises(IndexError):
        eval_expr(expr, erase=13)


def test_builtin_erasure_vector_frozen():
    """All 12 erasures of the built-in expression, frozen from two
    independent evaluations (this module and a rational-function check);
    see the acceptance suite for the comparison against the published
    12-tuple, which differs at written positions 9 and 10."""
    rep = intersection_vector(builtin_expr("paper-GL15"), 2)
    assert rep.entries == [-2, -2, 0, -2, -2, 0, -2, -2, 0, -2, 0, 0]
    assert rep.rank_over_Q == 1
    assert rep.rank_over_p == 0
    audit = rep.to_json_dict()["degree_audit"]
    assert [a["generator"] for a in audit] == [1, 2, 3, 2, 3, 3,
                                               1, 2, 3, 2, 3, 3]
    assert [a["value_degrees"] for a in audit] == [
        [0] if e else [] for e in rep.entries]
    assert all(a["ok"] and a["expected_degree"] == 0 for a in audit)


def gl15_edit(rng):
    """PAPER_GL15_TEXT with one or two D-index or root-index edits, or with
    one root exponent moved to another root (the degree stays 22)."""
    tokens = PAPER_GL15_TEXT.split()
    indexed = [k for k, t in enumerate(tokens) if t[0] in "Da"]
    roots = [k for k, t in enumerate(tokens) if t[0] == "a"]
    if rng.randrange(3):
        for _ in range(rng.randint(1, 2)):
            k = rng.choice(indexed)
            head, _, power = tokens[k].partition("^")
            tokens[k] = f"{head[0]}{rng.randint(1, 4)}" + (
                f"^{power}" if power else "")
    else:
        def exponent(k):
            return int(tokens[k].partition("^")[2] or 1)

        donor = rng.choice([k for k in roots if exponent(k) > 0])
        taker = rng.choice([k for k in roots if k != donor])
        for k, step in ((donor, -1), (taker, 1)):
            head = tokens[k].partition("^")[0]
            tokens[k] = f"{head}^{exponent(k) + step}"
    return " ".join(tokens)


def test_shared_erasure_pass_matches_reference():
    rng = random.Random(29)
    texts = [PAPER_GL15_TEXT, "D1 ( a2 * D2 D1 ( 3 * x2 ) )"]
    texts += [gl15_edit(rng) for _ in range(60)]
    for text in texts:
        expr = parse_expr(text)
        rep = intersection_vector(expr, 3)
        one = (0,) * expr.base.nvars
        expected = [eval_expr(expr, erase=k).terms.get(one, 0)
                    for k in range(1, op_count(expr) + 1)]
        assert rep.entries == expected, text
        assert rep.rank_over_Q == int(any(expected))
        assert rep.rank_over_p == int(any(e % 3 for e in expected))


def agrees_with_oracle(expr, p=3):
    """eval_expr (whole, and with each operator erased) and
    intersection_vector on `expr` against the tuple-key oracle, the
    rendered degree audit included: "passed" if the erasures are all
    constant, "zero" if moreover they are all 0 on an unbalanced chain,
    else "failed"."""
    nops = op_count(expr)
    one = (0,) * expr.base.nvars
    factors = [s for s in expr.steps if isinstance(s, MultiPoly)]
    assert content_degree(expr) == sum(
        2 * max(map(sum, f.terms), default=0) for f in [expr.base, *factors])
    assert eval_expr(expr) == oracles.chain_value(expr)
    values = [oracles.chain_value(expr, k) for k in range(1, nops + 1)]
    for k, value in enumerate(values, 1):
        assert eval_expr(expr, erase=k) == value, k
    expected = content_degree(expr) - 2 * (nops - 1)
    audit = [{"op": k, "generator": expr.steps[pos],
              "expected_degree": expected,
              "value_degrees": sorted({2 * sum(e) for e in value.terms}),
              "ok": value.terms.keys() <= {one}}
             for k, (pos, value) in enumerate(zip(expr.ops, values), 1)]
    bad = [row for row in audit if not row["ok"]]
    if bad:
        with pytest.raises(ValueError) as exc:
            intersection_vector(expr, p)
        assert isinstance(exc.value, DegreeAuditFailure) == (expected == 0)
        assert (f"erasing operator {bad[0]['op']} left degrees "
                f"{bad[0]['value_degrees']}" in str(exc.value))
        return "failed"
    rep = intersection_vector(expr, p)
    assert rep.entries == [value.terms.get(one, 0) for value in values]
    assert rep.rank_over_Q == int(any(rep.entries))
    assert rep.rank_over_p == int(any(e % p for e in rep.entries))
    assert rep.to_json_dict()["degree_audit"] == audit
    return "zero" if nops and expected and not any(rep.entries) else "passed"


def random_chain_text(rng):
    """Prefix text in 2-8 variables with up to 12 operators, each factor a
    product of a_i^k, x_i^k and constants; for most texts the content
    degree is one less than the number of operators (balanced)."""
    nv = rng.randint(2, 8)
    nops = rng.randint(0, 12)
    nfactors = rng.randint(0, 4)
    kinds = ["D"] * nops + ["F"] * nfactors
    rng.shuffle(kinds)
    products = [[] for _ in range(nfactors + 1)]   # the last is the base
    target = nops - 1 if nops and rng.randrange(4) else rng.randint(0, 6)
    for _ in range(rng.randint(1, 4)):
        rng.choice(products).append(["a", rng.randint(1, nv - 1), 0])
    for _ in range(rng.randint(0, 2)):
        rng.choice(products).append(["x", rng.randint(1, nv), 0])
    atoms = [atom for product in products for atom in product]
    for _ in range(target):
        rng.choice(atoms)[2] += 1
    for product in products:
        if rng.randrange(4) == 0 or not product:
            product.append(["c", rng.choice([-3, -1, 2, 5]), 1])

    def text(product):
        return " * ".join(
            str(i) if kind == "c" else
            f"{kind}{i}" + ("" if k == 1 and rng.randrange(2) else f"^{k}")
            for kind, i, k in product)

    words, factors = [], iter(products)
    for kind in kinds:
        words.append(f"D{rng.randint(1, nv - 1)}" if kind == "D"
                     else text(next(factors)) + " *")
    return " ".join(words) + f" ( {text(next(factors))} )"


def random_chain(rng):
    """A Chain built directly: 2-8 variables, up to 12 operators and
    factors of mixed degrees (most are not homogeneous)."""
    nv = rng.randint(2, 8)
    steps = [rng.randint(1, nv - 1) for _ in range(rng.randint(0, 12))]
    for _ in range(rng.randint(0, 3)):
        steps.insert(rng.randrange(len(steps) + 1),
                     rand_poly(rng, nv, rng.randint(1, 3), 3))
    return Chain(steps, rand_poly(rng, nv, rng.randint(1, 4), 4))


def test_packed_evaluation_agrees_with_the_tuple_oracle():
    rng = random.Random(41)
    texts = [agrees_with_oracle(parse_expr(random_chain_text(rng)))
             for _ in range(150)]
    chains = [agrees_with_oracle(random_chain(rng)) for _ in range(100)]
    assert texts.count("passed") >= 50
    assert texts.count("zero") + chains.count("zero") >= 50


def test_packed_fields_at_the_degree_bound():
    """A field of w bits holds 0..2^w - 1: chains whose degree bound is
    exactly 2^w - 1, whose values reach that exponent in one field."""
    x = [MultiPoly(3, {e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    alpha1 = MultiPoly(3, {(0, 1, 0): 1, (1, 0, 0): -1})
    chains = [
        Chain([1, 2], x[0] ** 3),                       # w = 2
        Chain([], x[1] ** 3),
        Chain([2, x[2] ** 2, 1], x[1]),                 # x3^2 * del1(x2)
        Chain([1, 2, 1, 2], alpha1 ** 4 * x[2] ** 3),   # w = 3
        Chain([2, 1, 1, 2], x[0] ** 7),
        Chain([1], x[1]),                               # w = 1
        Chain([1, 2], MultiPoly.constant(5, 3)),        # w = 0
        parse_expr("D1 D2 D1 ( x1^15 )"),               # w = 4
    ]
    for expr in chains:
        assert expr.degree == 2 ** expr.degree.bit_length() - 1, expr.steps
        agrees_with_oracle(expr)
    assert eval_expr(chains[1]) == x[1] ** 3
    assert intersection_vector(chains[6]).entries == [0, 0]


def test_packed_evaluation_in_255_variables():
    texts = ["D254 D254 ( x255 )",
             "D253 D254 ( a254^2 * x1 * D1 ( x2 ) )",
             "D1 D254 D2 ( a1 * a254^3 * x3 * D253 ( x255 * x128 ) )",
             "D254 D253 D254 ( a253 * D253 ( a254^2 * x254 ) )"]
    for text in texts:
        expr = parse_expr(text)
        assert expr.base.nvars == 255
        agrees_with_oracle(expr)
    assert intersection_vector(parse_expr(texts[0])).entries == [1, 1]


def test_chain_refuses_a_negative_exponent():
    x1 = MultiPoly(2, {(1, 0): 1})
    for steps, base in (([], MultiPoly(2, {(-1, 0): 1})),
                        ([1], MultiPoly(2, {(2, 0): 1, (0, -3): 4})),
                        ([MultiPoly(2, {(1, -1): 1}), 1], x1)):
        with pytest.raises(ValueError, match="negative exponent"):
            Chain(steps, base)


def test_parsed_powers_match_multipoly_powers():
    for i, nv in ((1, 2), (3, 4), (7, 8)):
        e = [0] * nv
        e[i - 1] = 1
        x = MultiPoly(nv, {tuple(e): 1})
        # x_{i+1} - x_i
        alpha = MultiPoly(nv, {tuple(e[-1:] + e[:-1]): 1}) + x * -1
        x_last = MultiPoly(nv, {(0,) * (nv - 1) + (1,): 1})
        assert parse_expr(f"a{i}").base == alpha
        assert parse_expr(f"x{i} * a{nv - 1}^0").base == x
        for k in range(MAX_EXPONENT + 1):
            assert parse_expr(f"a{i}^{k}").base == alpha ** k, (i, k)
            assert parse_expr(f"x{i}^{k} * x{nv}").base == x ** k * x_last


def test_degree_audit_names_the_first_failing_erasure():
    # an erasure of nonzero expected degree: the expression is unbalanced
    cases = {
        "D1 D2 D3 ( x2 * a3 * a3 )": (3, [2], 2),
        "D2 a1 * D2 a2 * x3 * D1 ( a3^2 )": (3, [6], 6),
        "D1 ( a1 )": (1, [2], 2),
    }
    for text, (k, degrees, expected) in cases.items():
        with pytest.raises(ValueError) as exc:
            intersection_vector(parse_expr(text), 2)
        assert not isinstance(exc.value, DegreeAuditFailure)
        assert str(exc.value) == (
            f"--expr is unbalanced: erasing operator {k} left degrees "
            f"{degrees}; its content degree minus 2 per remaining operator "
            f"is {expected}, not 0")


def test_long_chain_needs_no_recursion():
    expr = parse_expr("D1 " * 1200 + "( x2 )")
    assert op_count(expr) == 1200
    assert [expr.steps[pos] for pos in expr.ops] == [1] * 1200
    assert content_degree(expr) == 2
    assert not eval_expr(expr)
    assert not eval_expr(expr, erase=1200)
    assert intersection_vector(expr).entries == [0] * 1200


def test_degree_audit_failure(monkeypatch):
    # A balanced chain (expected degree 0) whose erasure is nonconstant is
    # an internal inconsistency: plant an operator that keeps the degree
    # (every step of this chain is an operator, so a packed step that
    # returns its value unchanged is one).
    balanced = Chain([1, 1], MultiPoly(2, {(0, 1): 1, (1, 0): -1}))
    assert intersection_vector(balanced, 2).entries == [2, 2]
    monkeypatch.setattr(demazure, "_step", lambda step, val: val)
    with pytest.raises(DegreeAuditFailure, match="erasing operator 1 left "
                       "degrees \\[2\\], expected a constant"):
        intersection_vector(balanced, 2)


def test_intersection_vector_no_ops():
    rep = intersection_vector(Chain([], MultiPoly.constant(5, 2)), 2)
    assert rep.entries == [] and rep.rank_over_Q == 0 and rep.rank_over_p == 0


def test_matrix_rank_examples():
    """The erasure vector is one row: rank 1 iff some entry is nonzero in
    the field.  The built-in vector has entries in {0, -2}, like the
    published tuple (-2, -2, 0, -2, -2, 0, -2, -2, -2, 2, 0, 0), so both
    have rank 1 over Q, 0 over F_2 and 1 over F_3."""
    cases = [
        (builtin_expr("paper-GL15"), 2, [0, -2], 1, 0),
        (builtin_expr("paper-GL15"), 3, [0, -2], 1, 1),
        (parse_expr("D1 D1 ( x2 )"), 2, [1], 1, 1),
        (parse_expr("D1 ( 0 )"), 2, [0], 0, 0),
        (Chain([], MultiPoly.constant(5, 2)), 2, [], 0, 0),
    ]
    for expr, p, values, rank_q, rank_p in cases:
        rep = intersection_vector(expr, p)
        assert sorted(set(rep.entries)) == sorted(values)
        assert (rep.rank_over_Q, rep.rank_over_p) == (rank_q, rank_p)


def test_multipoly_json():
    f = parse_expr("a2^2").base
    d = f.to_json_dict()
    assert d["nvars"] == 3
    assert d["terms"]["0,2,0"] == "1"
