import random
import re

import pytest

from heckekit.demazure import (
    BUILTIN_EXPRESSIONS,
    MAX_CONSTANT_DIGITS,
    MAX_EXPONENT,
    MAX_VARIABLES,
    PAPER_GL15_TEXT,
    Chain,
    DegreeAuditFailure,
    MultiPoly,
    apply_demazure,
    builtin_expr,
    content_degree,
    eval_expr,
    intersection_vector,
    op_count,
    op_indices,
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


def rand_poly(rng, nvars=4, terms=4, deg=3):
    out = MultiPoly(nvars)
    for _ in range(terms):
        e = tuple(rng.randrange(deg) for _ in range(nvars))
        out = out + MultiPoly(nvars, {e: rng.randrange(-5, 6)})
    return out


def test_apply_demazure_examples():
    x2 = MultiPoly.variable(2, 2)
    x1 = MultiPoly.variable(1, 2)
    assert apply_demazure(1, x2) == MultiPoly.constant(1, 2)
    assert apply_demazure(1, x1) == MultiPoly.constant(-1, 2)
    a4sq = MultiPoly.alpha(4, 5) ** 2
    expect = (MultiPoly.variable(3, 5) + MultiPoly.variable(4, 5)
              - 2 * MultiPoly.variable(5, 5))
    assert apply_demazure(3, a4sq) == expect


def test_apply_demazure_matches_closed_form():
    rng = random.Random(17)
    for _ in range(120):
        f = rand_poly(rng)
        i = rng.randrange(1, 4)
        assert apply_demazure(i, f) == demazure_closed_form(i, f)


def test_apply_demazure_multiplies_back_on_every_small_monomial():
    """del_i(f) * alpha_i == f - s_i f on every x_i^a x_{i+1}^b m with
    a, b <= 6 in five variables; Z[x] has no zero divisors, so this
    identity alone determines del_i(f)."""
    nv = 5
    for i in range(1, nv):
        alpha = MultiPoly.alpha(i, nv)
        others = [v for v in range(nv) if v not in (i - 1, i)]
        for m in ((0, 0, 0), (2, 1, 3)):
            for a in range(7):
                for b in range(7):
                    e = [0] * nv
                    e[i - 1], e[i] = a, b
                    for v, k in zip(others, m):
                        e[v] = k
                    f = MultiPoly(nv, {tuple(e): 3})
                    got = apply_demazure(i, f)
                    assert got * alpha == f - f.swap_variables(i), (i, e)
                    if a != b:
                        assert got.graded_degrees() == {2 * sum(e) - 2}


def test_nil_and_braid_relations():
    rng = random.Random(19)
    for _ in range(60):
        f = rand_poly(rng)
        i = rng.randrange(1, 4)
        assert not apply_demazure(i, apply_demazure(i, f))
    for _ in range(40):
        f = rand_poly(rng)
        i = rng.randrange(1, 3)
        lhs = apply_demazure(i, apply_demazure(i + 1, apply_demazure(i, f)))
        rhs = apply_demazure(i + 1, apply_demazure(i, apply_demazure(i + 1, f)))
        assert lhs == rhs


def test_twisted_leibniz():
    rng = random.Random(21)
    for _ in range(60):
        f, g = rand_poly(rng, terms=3), rand_poly(rng, terms=3)
        i = rng.randrange(1, 4)
        lhs = apply_demazure(i, f * g)
        rhs = (apply_demazure(i, f) * g
               + f.swap_variables(i) * apply_demazure(i, g))
        assert lhs == rhs


def test_parser_and_structure():
    expr = parse_expr("D1 D2 ( a2 * D1 ( x1^2 ) )")
    assert op_count(expr) == 3
    assert op_indices(expr) == [1, 2, 1]
    assert expr.steps == (1, 2, MultiPoly.alpha(2, 3), 1)
    assert expr.base == MultiPoly.variable(1, 3) ** 2
    assert content_degree(expr) == 2 + 4

    with pytest.raises(ValueError):
        parse_expr("D1 D2 ( a2 * D1 ( x1^2 )")
    with pytest.raises(ValueError):
        parse_expr("Q1 ( x1 )")
    with pytest.raises(ValueError, match="bad token at"):
        parse_expr("D\u0661 ( x2 )")      # an Arabic-Indic digit one


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
    assert got == apply_demazure(1, MultiPoly.alpha(1, 2) ** 64)
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


def test_chain_rejects_operators_outside_the_ring():
    # zero values skip the remaining steps, so the ring is checked up front
    with pytest.raises(ValueError, match="D3 out of range for 3 variables"):
        Chain([3], MultiPoly(3))
    with pytest.raises(ValueError, match="D0 out of range for 3 variables"):
        Chain([0, MultiPoly(3)], MultiPoly(3))
    with pytest.raises(ValueError, match="different rings"):
        Chain([1, MultiPoly(2)], MultiPoly.constant(1, 3))


def test_eval_simple():
    assert eval_expr(Chain([], MultiPoly.alpha(4, 5))) == MultiPoly.alpha(4, 5)
    got = eval_expr(Chain([3], MultiPoly.alpha(4, 5) ** 2))
    assert got == apply_demazure(3, MultiPoly.alpha(4, 5) ** 2)


def test_builtin_shape():
    expr = builtin_expr("paper-GL15")
    assert op_count(expr) == 12
    assert op_indices(expr) == [1, 2, 3, 2, 3, 3, 1, 2, 3, 2, 3, 3]
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
    assert all(a.ok and a.expected_degree == 0 for a in rep.degree_audit)


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
        expected = [eval_expr(expr, erase=k).constant_value()
                    for k in range(1, op_count(expr) + 1)]
        assert rep.entries == expected, text
        assert rep.rank_over_Q == int(any(expected))
        assert rep.rank_over_p == int(any(e % 3 for e in expected))


def test_degree_audit_names_the_first_failing_erasure():
    cases = {
        "D1 D2 D3 ( x2 * a3 * a3 )":
            "erasing operator 3 left degrees [2], expected a constant",
        "D2 a1 * D2 a2 * x3 * D1 ( a3^2 )":
            "erasing operator 3 left degrees [6], expected a constant",
    }
    for text, message in cases.items():
        with pytest.raises(DegreeAuditFailure) as exc:
            intersection_vector(parse_expr(text), 2)
        assert str(exc.value) == message


def test_long_chain_needs_no_recursion():
    expr = parse_expr("D1 " * 1200 + "( x2 )")
    assert op_count(expr) == 1200
    assert op_indices(expr) == [1] * 1200
    assert content_degree(expr) == 2
    assert not eval_expr(expr)
    assert not eval_expr(expr, erase=1200)
    assert intersection_vector(expr).entries == [0] * 1200


def test_degree_audit_failure():
    # erasing the only operator leaves a degree-2 value
    bad = Chain([1], MultiPoly.alpha(1, 2))
    with pytest.raises(DegreeAuditFailure):
        intersection_vector(bad, 2)


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
    f = MultiPoly.alpha(2, 3) ** 2
    d = f.to_json_dict()
    assert d["nvars"] == 3
    assert d["terms"]["0,2,0"] == "1"
