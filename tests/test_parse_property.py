"""Property test of the expression parser on generated text: every input
either parses to an expression that acts on its own ring or is rejected
with ValueError."""
import pytest

from heckekit.demazure import eval_expr, op_indices, parse_expr

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

INDEX = st.integers(0, 6)
FACTORS = st.one_of(st.builds("{}{}".format, st.sampled_from("ax"), INDEX),
                    st.builds("{}{}^{}".format, st.sampled_from("ax"), INDEX,
                              st.integers(0, 3)),
                    st.integers(-3, 3).map(str))
OPERATORS = st.builds("D{}".format, INDEX)
# arbitrary token soup, mostly rejected
TOKENS = st.one_of(FACTORS, OPERATORS,
                   st.sampled_from(["(", ")", "*", "D", "^2", "Q1", "x1^"]))
SOUP = st.lists(TOKENS, max_size=14).map(" ".join)
# well-formed chains, some with an index of 0
POLYS = st.lists(FACTORS, min_size=1, max_size=3).map(" * ".join)
STEPS = st.lists(st.one_of(OPERATORS, POLYS.map("{} *".format)), max_size=6)
CHAINS = st.builds(
    lambda steps, depth, base: " ".join(
        steps + ["("] * depth + [base] + [")"] * depth),
    STEPS, st.integers(0, 2), POLYS)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.one_of(SOUP, CHAINS))
def test_parse_expr_accepts_only_in_range_indices(text):
    try:
        expr = parse_expr(text)
    except ValueError:
        return
    ring = expr.base.nvars
    assert all(1 <= i <= ring - 1 for i in op_indices(expr))
    assert eval_expr(expr).nvars == ring
