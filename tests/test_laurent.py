import random
from fractions import Fraction

import pytest

from heckekit.laurent import InexactDivision, LaurentPoly, V, v_power


def rand_poly(rng, span=4, density=4):
    terms = {}
    for _ in range(rng.randrange(density + 1)):
        terms[rng.randrange(-span, span + 1)] = rng.randrange(-9, 10)
    return LaurentPoly(terms)


def test_binomial_square():
    a = V + v_power(-1)
    assert a * a == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_additive_identity():
    p = LaurentPoly({3: 5, -2: 1})
    assert p + LaurentPoly.zero() == p


def test_zero_normalization():
    z = V - V
    assert z.terms == {}
    assert z * LaurentPoly({5: 7, -5: -7}) == LaurentPoly.zero()
    assert not z


def test_scalar_and_pow():
    assert 3 * V == LaurentPoly({1: 3})
    assert (V + 1) ** 2 == LaurentPoly({2: 1, 1: 2, 0: 1})
    assert V ** 0 == LaurentPoly.one()


def test_non_integer_coefficients_rejected():
    for c in (Fraction(1, 2), 1.0, True):
        with pytest.raises(TypeError):
            LaurentPoly({0: c})


def test_non_integer_exponents_rejected():
    # int(0.5) is 0, so a truncated 0.5 would make v^0.5 equal to 1
    for e in (0.5, 1.0, True, Fraction(1, 1), "1"):
        with pytest.raises(TypeError, match="not an integer term"):
            LaurentPoly({e: 1})
    # a zero coefficient does not excuse its exponent
    with pytest.raises(TypeError, match=r"not an integer term: 0\*v\^0\.5"):
        LaurentPoly({0.5: 0})
    assert LaurentPoly({-3: 2, 0: 1}).terms == {-3: 2, 0: 1}


def test_bar_examples():
    assert LaurentPoly({2: 1, -1: 3}).bar() == LaurentPoly({-2: 1, 1: 3})
    sym = V + v_power(-1)
    assert sym.bar() == sym
    assert LaurentPoly.zero().bar() == LaurentPoly.zero()


def test_bar_involution_and_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_is_nonnegative_powers():
    assert LaurentPoly({2: 1, 0: 1}).is_nonnegative_powers()
    assert not v_power(-1).is_nonnegative_powers()
    assert LaurentPoly.zero().is_nonnegative_powers()


def test_exact_divide_examples():
    one_plus_v2 = LaurentPoly({0: 1, 2: 1})
    assert one_plus_v2.exact_divide(one_plus_v2) == LaurentPoly.one()
    a = LaurentPoly({-1: 1, 1: 2, 3: 1})
    b = LaurentPoly({-1: 1, 1: 1})
    q = a.exact_divide(b)
    assert q == one_plus_v2
    assert q * b == a  # multiply back
    with pytest.raises(InexactDivision):
        LaurentPoly({0: 1, 1: 1}).exact_divide(one_plus_v2)


def test_exact_divide_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not b:
            continue
        assert (a * b).exact_divide(b) == a


def test_exact_divide_needs_integer_quotient():
    with pytest.raises(InexactDivision):
        LaurentPoly({0: 2}).exact_divide(LaurentPoly({0: 3}))


def test_json_roundtrip():
    a = LaurentPoly({-1: 1, 1: 1})
    d = a.to_json_dict()
    assert d == {"-1": "1", "1": "1"}
    # coefficients are strings, so big ones survive JSON exactly
    big = LaurentPoly({0: 10 ** 40, -3: -(2 ** 80)})
    assert big.to_json_dict() == {
        "-3": "-1208925819614629174706176",
        "0": "10000000000000000000000000000000000000000"}


def test_repr():
    assert str(LaurentPoly({-1: 1, 0: 2, 2: -1})) == "v^-1 + 2 - v^2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({-2: 3})) == "3*v^-2"
