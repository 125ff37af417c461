import itertools
import random

from heckekit import coxeter, hecke
from heckekit.coxeter import all_permutations, evaluate_word, identity, length
from heckekit.hecke import (
    HeckeElement,
    bar_involution,
    bott_samelson_char,
    h,
    inverse_h,
    is_perverse_character,
    kl_basis,
    kl_expand,
    mult_by_gen,
    multiply,
    pairing,
    unit,
)
from heckekit.laurent import ONE, V, LaurentPoly, v_power


def s(i, n):
    return evaluate_word((i,), n)


def rand_element(rng, n, size=3):
    perms = list(all_permutations(n))
    el = HeckeElement.zero(n)
    for _ in range(size):
        x = rng.choice(perms)
        c = LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4)})
        el = el + h(x).scale(c)
    return el


def test_b_s_on_identity():
    got = mult_by_gen(unit(2), 1, kind="b")
    assert got == h(s(1, 2)) + unit(2).scale(V)


def test_quadratic_relation():
    # h_s * h_s = h_id + (v^-1 - v) h_s, forced by b_s^2 = (v+v^-1) b_s
    got = mult_by_gen(h(s(1, 2)), 1)
    assert got == unit(2) + h(s(1, 2)).scale(LaurentPoly({-1: 1, 1: -1}))
    bs = mult_by_gen(unit(2), 1, kind="b")
    assert mult_by_gen(bs, 1, kind="b") == bs.scale(LaurentPoly({1: 1, -1: 1}))


def test_bott_samelson_examples():
    assert bott_samelson_char((1,), 3) == h(s(1, 3)) + unit(3).scale(V)
    assert bott_samelson_char((), 3) == unit(3)
    expect = (h(s(1, 3)) + unit(3).scale(V)).scale(LaurentPoly({1: 1, -1: 1}))
    assert bott_samelson_char((1, 1), 3) == expect


def test_left_right_mult_against_full_multiply():
    rng = random.Random(2)
    for _ in range(30):
        el = rand_element(rng, 3)
        for i in (1, 2):
            assert mult_by_gen(el, i, "left") == multiply(h(s(i, 3)), el)
            assert mult_by_gen(el, i, "right") == multiply(el, h(s(i, 3)))


def test_multiplication_associative():
    rng = random.Random(4)
    for n in (3, 4):
        for _ in range(12 if n == 3 else 6):
            a, b, c = (rand_element(rng, n, 2) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_inverse_h():
    for n in (2, 3):
        for x in all_permutations(n):
            assert multiply(inverse_h(x), h(x)) == unit(n)
            assert multiply(h(x), inverse_h(x)) == unit(n)


def test_bar_examples():
    assert bar_involution(unit(3)) == unit(3)
    bs = bott_samelson_char((1,), 3)
    assert bar_involution(bs) == bs
    rng = random.Random(6)
    for _ in range(25):
        el = rand_element(rng, 3)
        assert bar_involution(bar_involution(el)) == el


def test_kl_examples():
    assert kl_basis(identity(3)) == unit(3)
    assert kl_basis(s(1, 3)) == h(s(1, 3)) + unit(3).scale(V)
    w0 = (3, 2, 1)
    b = kl_basis(w0)
    assert len(b.coeffs) == 6
    for y in all_permutations(3):
        assert b.coefficient(y) == v_power(3 - length(y))


def test_kl_defining_properties_s4():
    """b_x is bar-invariant and lies in h_x + sum v*Z[v]*h_y with y < x;
    these properties characterize it, so checking them is the oracle."""
    for x in all_permutations(4):
        b = kl_basis(x)
        assert bar_involution(b) == b
        assert b.coefficient(x) == ONE
        for y, c in b.coeffs.items():
            if y == x:
                continue
            assert coxeter.bruhat_leq(y, x) and y != x
            assert c.is_nonnegative_powers() and c.coefficient(0) == 0
            # positivity of KL polynomials in type A
            assert all(cc > 0 for cc in c.terms.values())


def test_kl_singular_patterns_s4():
    """The two singular Schubert classes in S_4 have KL polynomial 1 + q:
    beta_{id,x} = v^len(x) * (1 + v^-2)."""
    assert kl_basis((3, 4, 1, 2)).coefficient(identity(4)) == \
        LaurentPoly({2: 1, 4: 1})
    assert kl_basis((4, 2, 3, 1)).coefficient(identity(4)) == \
        LaurentPoly({3: 1, 5: 1})


def test_kl_longest_s5_closed_form():
    b = kl_basis((5, 4, 3, 2, 1))
    assert len(b.coeffs) == 120
    for y in all_permutations(5):
        assert b.coefficient(y) == v_power(10 - length(y))


def test_parabolic_longest_kl_is_v_power_sum():
    for A in ({1}, {2, 3}, {1, 3}, {1, 2, 3}):
        wA = coxeter.longest_element(A, 4)
        b = kl_basis(wA)
        WA = set(coxeter.parabolic_elements(A, 4))
        assert set(b.coeffs) == WA
        for u in WA:
            assert b.coefficient(u) == v_power(length(wA) - length(u))


def test_pairing_examples():
    assert pairing(unit(3), unit(3)) == ONE
    bs = bott_samelson_char((1,), 3)
    assert pairing(bs, bs) == LaurentPoly({0: 1, 2: 1})
    # values forced by the defining properties:
    #   (h_s, h_id) = (b_s - v h_id, h_id) = v - v^-1, (h_id, h_s) = 0
    assert pairing(h(s(1, 3)), unit(3)) == LaurentPoly({1: 1, -1: -1})
    assert pairing(unit(3), h(s(1, 3))) == LaurentPoly.zero()
    assert pairing(unit(3), bs) == V
    assert pairing(bs, unit(3)) == V


def reference_pairing(a, b):
    """The pairing as defined, through the full product a(a) * b."""
    return hecke.eps(multiply(hecke.a_antiautomorphism(a), b))


def test_pairing_agrees_with_full_product():
    perms = list(all_permutations(3))
    for x, y in itertools.product(perms, perms):
        assert pairing(h(x), h(y)) == reference_pairing(h(x), h(y))
    rng = random.Random(21)
    perms = list(all_permutations(4))

    def rand_coeff():
        # a negative power with a positive coefficient and a nonnegative
        # power with a negative one: never bar-invariant
        return LaurentPoly({rng.randrange(-3, 0): rng.randrange(1, 4),
                            rng.randrange(0, 4): rng.randrange(-3, 0)})

    for _ in range(40):
        a, b = (HeckeElement(4, {rng.choice(perms): rand_coeff()
                                 for _ in range(rng.randrange(1, 5))})
                for _ in range(2))
        assert all(c.bar() != c for c in a.coeffs.values())
        assert pairing(a, b) == reference_pairing(a, b)


def test_pairing_properties_exhaustive_s3():
    perms = list(all_permutations(3))
    ps = [ONE, V, LaurentPoly({-2: 3, 1: -1})]
    qs = [ONE, v_power(-1), LaurentPoly({0: 2, 3: 1})]
    for x, y in itertools.product(perms, perms):
        hx, hy = h(x), h(y)
        base = pairing(hx, hy)
        for p, q in zip(ps, qs):
            assert pairing(hx.scale(p), hy.scale(q)) == p.bar() * q * base
        for i in (1, 2):
            assert pairing(mult_by_gen(hx, i, "left", "b"), hy) == \
                pairing(hx, mult_by_gen(hy, i, "left", "b"))
            assert pairing(mult_by_gen(hx, i, "right", "b"), hy) == \
                pairing(hx, mult_by_gen(hy, i, "right", "b"))


def test_pairing_properties_random_s4():
    rng = random.Random(8)
    for _ in range(60):
        a = rand_element(rng, 4)
        b = rand_element(rng, 4)
        p = LaurentPoly({rng.randrange(-2, 3): rng.randrange(1, 4)})
        assert pairing(a.scale(p), b) == p.bar() * pairing(a, b)
        assert pairing(a, b.scale(p)) == p * pairing(a, b)
        i = rng.randrange(1, 4)
        assert pairing(mult_by_gen(a, i, "left", "b"), b) == \
            pairing(a, mult_by_gen(b, i, "left", "b"))
        assert pairing(mult_by_gen(a, i, "right", "b"), b) == \
            pairing(a, mult_by_gen(b, i, "right", "b"))


def test_kl_expand_roundtrip():
    rng = random.Random(10)
    for _ in range(20):
        el = rand_element(rng, 3)
        expansion = kl_expand(el)
        rebuilt = HeckeElement.zero(3)
        for x, c in expansion.items():
            rebuilt = rebuilt + kl_basis(x).scale(c)
        assert rebuilt == el


def test_is_perverse_examples():
    bs = bott_samelson_char((1,), 3)
    assert is_perverse_character(bs).is_perverse
    assert not is_perverse_character(
        bs.scale(LaurentPoly({1: 1, -1: 1}))).is_perverse
    rep = is_perverse_character(bott_samelson_char((1, 2), 3))
    assert rep.is_perverse
    assert rep.expansion == {evaluate_word((1, 2), 3): ONE}


def test_json_roundtrip():
    el = bott_samelson_char((1, 2, 1), 3)
    assert HeckeElement.from_json_dict(el.to_json_dict(), 3) == el
