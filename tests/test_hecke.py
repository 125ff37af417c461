import itertools
import random
import re

import pytest

from heckekit import coxeter, hecke, spherical
from heckekit.coxeter import all_permutations, evaluate_word, identity, length
from heckekit.hecke import (
    HeckeElement,
    bar_involution,
    bott_samelson_char,
    h,
    inverse_h,
    is_perverse_character,
    kl_basis,
    mult_by_gen,
    pairing,
)
from heckekit.laurent import ONE, V, LaurentPoly, v_power
from oracles import a_antiautomorphism, eps, multiply


def s(i, n):
    return evaluate_word((i,), n)


def unit(n):
    return h(identity(n))


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


def test_mult_by_gen_rejects_unknown_side_and_kind():
    with pytest.raises(ValueError, match="kind must be 'h' or 'b'"):
        mult_by_gen(unit(2), 1, kind="B")
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        mult_by_gen(unit(2), 1, side="up")


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


def test_bott_samelson_char_matches_both_references():
    # the fold at A = {} against b_s multiplied in letter by letter, and
    # against the spherical module at A = {}, which steps by coset_step
    rng = random.Random(19)
    words = [(w, 4) for k in range(7)
             for w in itertools.product((1, 2, 3), repeat=k)]
    words += [(tuple(rng.randrange(1, 5) for _ in range(rng.randint(0, 10))),
               5) for _ in range(200)]
    for word, n in words:
        got = bott_samelson_char(word, n)
        product = unit(n)
        for i in reversed(word):
            product = mult_by_gen(product, i, "left", "b")
        assert got == product
        assert got.coeffs == spherical.bott_samelson_spherical(
            word, n, ()).coeffs


def test_bott_samelson_char_names_a_letter_outside_the_generators():
    with pytest.raises(ValueError,
                       match="generator index 4 out of range for S_4"):
        bott_samelson_char((1, 4), 4)


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
    for n in (2, 3, 5):
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
    these properties characterize it, so checking them on S_4 and S_5 is
    the oracle."""
    for x in itertools.chain(all_permutations(4), all_permutations(5)):
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


def test_kl_refuses_up_front_what_its_support_puts_past_the_budget(
        monkeypatch):
    """b_x has at least 2^k terms, k being the number of generators in the
    support of x (read here from a reduced word), and kl_basis refuses x
    up front when 2^k passes the budget.  spherical_kl_basis refuses a
    minimal coset representative x by the same rule, for every A != {}."""
    for n in (4, 5):
        for x in all_permutations(n):
            k = len(set(coxeter.reduced_word(x)))
            assert len(kl_basis(x).coeffs) >= 2 ** k, x
            with monkeypatch.context() as m:
                m.setattr(hecke, "_kl_cache", {})
                m.setattr(hecke, "KL_BUDGET", 2 ** k - 1)
                with pytest.raises(ValueError,
                                   match=rf"at least 2\^{k} terms \({k} "):
                    kl_basis(x)
        for r in range(1, n):
            for A in itertools.combinations(range(1, n), r):
                for x in coxeter.min_coset_reps(A, n):
                    k = len(set(coxeter.reduced_word(x)))
                    with monkeypatch.context() as m:
                        m.setattr(hecke, "_kl_cache", {})
                        m.setattr(hecke, "KL_BUDGET", 2 ** k - 1)
                        with pytest.raises(ValueError,
                                           match=rf"^x has {k} generators "):
                            spherical.spherical_kl_basis(x, A)


def test_inverse_cache_stays_within_the_budget(monkeypatch):
    """The cached inverses count their terms as the KL cache does, and
    one that would pass KL_BUDGET is refused and left uncached."""
    monkeypatch.setattr(hecke, "_inverse_cache", {})
    monkeypatch.setattr(hecke, "KL_BUDGET", 30)
    w0 = (4, 3, 2, 1)
    assert len(inverse_h(w0).coeffs) == 24
    assert len(inverse_h((2, 1, 3, 4)).coeffs) == 2
    assert inverse_h(w0) == inverse_h(w0)          # hits add nothing
    with pytest.raises(ValueError, match="budget KL_BUDGET = 30 terms"):
        inverse_h((3, 2, 1, 4))                     # 6 terms: 32 > 30
    assert set(hecke._inverse_cache) == {w0, (2, 1, 3, 4)}
    assert len(inverse_h((1, 3, 2, 4)).coeffs) == 2
    # a cache cleared behind its count is counted again
    hecke._inverse_cache.clear()
    assert len(inverse_h((3, 2, 1, 4)).coeffs) == 6


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
    return eps(multiply(a_antiautomorphism(a), b))


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
        expansion = is_perverse_character(el).expansion
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


def _terms(el):
    """A copy of the stored term maps of an element, or of a cache entry."""
    return {x: dict(t) for x, t in getattr(el, "terms", el).items()}


def test_sums_write_into_no_argument_and_no_cached_element(monkeypatch):
    """Sums accumulate in place into maps of their own: the coefficients
    of the arguments and of every cached element stay as they were."""
    caches = {"kl": {}, "inverse": {}}
    monkeypatch.setattr(hecke, "_kl_cache", caches["kl"])
    monkeypatch.setattr(hecke, "_inverse_cache", caches["inverse"])
    # cache the short elements, so that the runs below build longer ones
    # on top of entries that the first snapshot holds
    for x in all_permutations(4):
        if length(x) <= 2:
            kl_basis(x)
            inverse_h(x)
    rng = random.Random(18)
    A = frozenset({2})
    hs = [rand_element(rng, 4, 4) for _ in range(4)]
    hs += [kl_basis((2, 4, 3, 1)), bott_samelson_char((1, 2, 3, 2), 4)]
    ms = [spherical.bott_samelson_spherical(w, 4, A)
          for w in ((1, 2, 3), (3, 2, 1, 2), (2, 1, 3, 2))]
    ms.append(spherical.spherical_kl_basis((3, 1, 4, 2), A))

    def run():
        for a, b in zip(hs, hs[1:]):
            multiply(a, b)
            pairing(a, b)
        for a in hs:
            bar_involution(a)
            a_antiautomorphism(a)
            a.scale(V)
            is_perverse_character(a)
        for a, b in zip(ms, ms[1:]):
            spherical.spherical_pairing(a, b)
        for a in ms:
            a.scale(V)
            spherical.is_perverse_spherical(a)

    for _ in range(2):      # the first run extends the caches, the second hits
        args = [_terms(a) for a in hs + ms]
        cached = {(name, key): _terms(el)
                  for name, cache in caches.items()
                  for key, el in cache.items()}
        run()
        assert [_terms(a) for a in hs + ms] == args
        assert {(name, key): _terms(caches[name][key])
                for name, key in cached} == cached


def test_inverse_h_checks_its_key_on_a_cache_miss_only(monkeypatch):
    checked = []
    key = coxeter.coset_key
    monkeypatch.setattr(coxeter, "coset_key",
                        lambda *args: checked.append(args[0]) or key(*args))
    monkeypatch.setattr(hecke, "_inverse_cache", {})
    x = (2, 3, 1)
    first = inverse_h(x)
    assert inverse_h(x) == first and checked == [x]


def test_inverse_h_refuses_a_float_or_a_bool_key_that_hits_the_cache(
        monkeypatch):
    """A key with a float or a bool entry equals a cached permutation and
    hits its entry, so it goes through `coxeter`'s key check on a hit
    too, as a miss does."""
    monkeypatch.setattr(hecke, "_inverse_cache", {})
    inverse_h((2, 1, 3))
    for key in ((2.0, 1, 3), (2, True, 3), (3.0, 1, 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"{key} is not a permutation of 1..3")):
            inverse_h(key)
    assert list(hecke._inverse_cache) == [(2, 1, 3)]


def test_pairing_refuses_elements_of_a_spherical_module_at_a_nonempty_A():
    a = spherical.act_by_gen(2, spherical.m((2, 3, 1), {1}))
    b = spherical.m((1, 2, 3), {1})
    assert spherical.spherical_pairing(a, b) == LaurentPoly({-1: -1, 3: 1})
    with pytest.raises(ValueError, match="spherical_pairing"):
        pairing(a, b)
    # at A = {} the spherical module is H, and both forms agree
    x = (2, 1, 3)
    assert pairing(spherical.m(x, ()), spherical.m(x, ())) == \
        pairing(h(x), h(x)) == spherical.spherical_pairing(
            spherical.m(x, ()), spherical.m(x, ()))


def test_bar_involution_refuses_elements_of_a_spherical_module():
    el = spherical.m((1, 3, 2), {1})
    with pytest.raises(ValueError, match="bar involution of H"):
        bar_involution(el)
    with pytest.raises(ValueError, match="bar involution of H"):
        bar_involution(spherical.SphericalElement(3, {1}))
    # at A = {} the spherical module is H
    x = (1, 3, 2)
    assert bar_involution(spherical.m(x, ())).coeffs == \
        bar_involution(h(x)).coeffs


def test_mult_by_gen_refuses_the_right_side_of_a_spherical_module():
    """M is a left module: on the right, an element at A != {} raises;
    on the left, h_s and b_s act on M and keep its keys minimal."""
    el = spherical.m((1, 3, 2), {1})
    for kind in ("h", "b"):
        with pytest.raises(ValueError, match="left module"):
            mult_by_gen(el, 1, "right", kind)
        with pytest.raises(ValueError, match="left module"):
            mult_by_gen(spherical.SphericalElement(3, {1}), 2, "right", kind)
    for i in (1, 2):
        got = mult_by_gen(el, i, "left", "h")
        assert all(coxeter.is_min_coset_rep(x, {1}) for x in got.coeffs)
        assert got == mult_by_gen(el, i, "left", "b") + el.scale(-V)
    # h_{s_1} m_{132}: s_1 raises the coset of 132 to that of 231
    assert mult_by_gen(el, 1, "left", "h") == spherical.m((2, 3, 1), {1})
    # at A = {} both sides act, as in H
    x = (1, 3, 2)
    assert mult_by_gen(spherical.m(x, ()), 1, "right", "h").coeffs == \
        mult_by_gen(h(x), 1, "right", "h").coeffs


@pytest.mark.parametrize("build", [
    lambda c: HeckeElement(3, {(1, 2, 3): c}),
    lambda c: spherical.SphericalElement(3, {2}, {(1, 2, 3): c}),
], ids=["HeckeElement", "SphericalElement"])
@pytest.mark.parametrize("value", [2, 0, "v", {0: 1}])
def test_a_coefficient_that_is_no_laurent_poly_is_a_type_error(build, value):
    """The constructors take LaurentPoly coefficients; anything else, a
    zero int or a term map too, is a TypeError naming the key and the
    value."""
    with pytest.raises(TypeError, match=re.escape(
            f"coefficient {value!r} at (1, 2, 3) is no LaurentPoly")):
        build(value)
