import itertools
import random
import re

import pytest

import oracles
from heckekit import coxeter, demazure, hecke, spherical, worddata
from heckekit.coxeter import evaluate_word, identity, length, min_coset_reps
from heckekit.hecke import kl_basis, mult_by_gen
from heckekit.laurent import ONE, V, LaurentPoly, v_power
from heckekit.spherical import (
    SphericalElement,
    act_by_gen,
    bott_samelson_spherical,
    deodhar_expand,
    is_perverse_spherical,
    m,
    m_id,
    phi_embed,
    spherical_kl_basis,
    spherical_pairing,
)
from heckekit.subexpr import EnumConstraint, defect_histogram, sweep
from oracles import interval_endpoints


def all_subsets(n):
    gens = tuple(range(1, n))
    for r in range(n):
        yield from map(frozenset, itertools.combinations(gens, r))


V_PLUS_VINV = LaurentPoly({1: 1, -1: 1})


def test_act_examples():
    assert act_by_gen(2, m_id(3, {2})) == m_id(3, {2}).scale(V_PLUS_VINV)
    got = act_by_gen(1, m_id(3, {2}))
    s1 = evaluate_word((1,), 3)
    assert got == m(s1, {2}) + m_id(3, {2}).scale(V)


def test_act_degenerate_parabolic_matches_hecke():
    rng = random.Random(1)
    for _ in range(40):
        n = 3
        word = tuple(rng.randrange(1, n) for _ in range(rng.randrange(6)))
        mm = bott_samelson_spherical(word, n, set())
        hh = hecke.bott_samelson_char(word, n)
        assert mm.coeffs == hh.coeffs


def test_bott_samelson_examples():
    assert bott_samelson_spherical((), 3, {2}) == m_id(3, {2})
    assert bott_samelson_spherical((2,), 3, {2}) == \
        m_id(3, {2}).scale(V_PLUS_VINV)
    s1 = evaluate_word((1,), 3)
    assert bott_samelson_spherical((1,), 3, {2}) == \
        m(s1, {2}) + m_id(3, {2}).scale(V)


def test_minrep_key_enforced():
    with pytest.raises(ValueError):
        m(evaluate_word((2,), 3), {2})


def test_phi_examples():
    got = phi_embed(m_id(3, {2}))
    assert got == hecke.bott_samelson_char((2,), 3)  # b_{w_A} for A={s2}
    s1 = evaluate_word((1,), 3)
    assert phi_embed(m(s1, set())) == hecke.h(s1)


def test_phi_intertwines_exhaustive_s4():
    for A in all_subsets(4):
        for u in min_coset_reps(A, 4):
            mu = m(u, A)
            image = phi_embed(mu)
            for i in (1, 2, 3):
                lhs = phi_embed(act_by_gen(i, mu))
                rhs = mult_by_gen(image, i, side="left", kind="b")
                assert lhs == rhs, (A, u, i)


def test_pi_tilde():
    """oracles.pi_tilde, summed term by term over W_A, is a product of
    quantum factorials [k]_{v^2}, one per block of A, for every A of S_3
    to S_5."""
    pi_tilde = oracles.pi_tilde
    assert pi_tilde(set(), 3) == ONE
    assert pi_tilde({2}, 3) == LaurentPoly({0: 1, 2: 1})
    # S_3 block: (1)(1+v^2)(1+v^2+v^4)
    assert pi_tilde({1, 2}, 3) == \
        LaurentPoly({0: 1, 2: 1}) * LaurentPoly({0: 1, 2: 1, 4: 1})
    for n in (3, 4, 5):
        for A in all_subsets(n):
            want = ONE
            for first, last in coxeter.parabolic_blocks(A, n):
                for k in range(1, last - first + 3):
                    want = want * LaurentPoly({2 * j: 1 for j in range(k)})
            assert pi_tilde(A, n) == want, A


def test_spherical_pairing_examples():
    assert spherical_pairing(m_id(3, {2}), m_id(3, {2})) == ONE
    # A empty: coincides with the Hecke pairing
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(5)))
        a = bott_samelson_spherical(word, 3, set())
        b = m_id(3, set())
        assert spherical_pairing(a, b) == \
            hecke.pairing(phi_embed(a), phi_embed(b))
    # sesquilinearity instance
    a = m_id(3, {2})
    assert spherical_pairing(a.scale(V), a) == v_power(-1)


def test_spherical_pairing_properties_random_s4():
    rng = random.Random(5)
    reps = {A: list(min_coset_reps(A, 4)) for A in all_subsets(4)}
    for _ in range(80):
        A = rng.choice(list(reps))
        xs = reps[A]
        a = SphericalElement(4, A)
        b = SphericalElement(4, A)
        for _ in range(2):
            a = a + m(rng.choice(xs), A).scale(
                LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4)}))
            b = b + m(rng.choice(xs), A).scale(
                LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4)}))
        p = LaurentPoly({rng.randrange(-2, 3): rng.randrange(1, 4)})
        # exact divisibility is implicit: spherical_pairing raises otherwise
        base = spherical_pairing(a, b)
        assert spherical_pairing(a.scale(p), b) == p.bar() * base
        assert spherical_pairing(a, b.scale(p)) == p * base
        i = rng.randrange(1, 4)
        assert spherical_pairing(act_by_gen(i, a), b) == \
            spherical_pairing(a, act_by_gen(i, b))


def test_spherical_kl_examples():
    assert spherical_kl_basis(identity(3), {2}) == m_id(3, {2})
    s1 = evaluate_word((1,), 3)
    assert spherical_kl_basis(s1, {2}) == m(s1, {2}) + m_id(3, {2}).scale(V)
    for x in coxeter.all_permutations(3):
        got = spherical_kl_basis(x, set())
        assert got.coeffs == kl_basis(x).coeffs


def all_parabolic_pairs(n):
    """(A, w_A, x) for every A and every x in W^A of S_n."""
    for A in all_subsets(n):
        wA = coxeter.longest_element(A, n)
        for x in min_coset_reps(A, n):
            yield A, wA, x


def test_phi_sends_ckl_to_kl_exhaustive_s4():
    """phi(c_x) = b_{x w_A} on S_4 and S_5."""
    for n in (4, 5):
        for A, wA, x in all_parabolic_pairs(n):
            cx = spherical_kl_basis(x, A)
            assert phi_embed(cx) == kl_basis(coxeter.multiply(x, wA)), (A, x)


def test_spherical_kl_equals_parabolic_kl_restriction_s4():
    """gamma_{y,x} = beta_{y*wA, x*wA} for all x, y in W^A, on S_4 and
    S_5."""
    for n in (4, 5):
        for A, wA, x in all_parabolic_pairs(n):
            cx = spherical_kl_basis(x, A)
            bxwA = kl_basis(coxeter.multiply(x, wA))
            for y in min_coset_reps(A, n):
                gamma = cx.coefficient(y)
                beta = bxwA.coefficient(coxeter.multiply(y, wA))
                assert gamma == beta, (A, x, y)


def test_spherical_kl_builds_no_element_of_h(monkeypatch):
    """c_x is computed in M itself: every element that its recursion
    caches lives at the same A, none at A = {} (none is b_{x w_A})."""
    monkeypatch.setattr(hecke, "_kl_cache", {})
    A = frozenset({1, 2, 3, 5, 6, 7})
    spherical_kl_basis((5, 6, 7, 8, 1, 2, 3, 4), A)
    assert hecke._kl_cache
    assert all(len(key) == 2 and key[1] == A for key in hecke._kl_cache)


def test_is_perverse_spherical():
    s1 = evaluate_word((1,), 3)
    assert is_perverse_spherical(spherical_kl_basis(s1, {2})).is_perverse
    assert not is_perverse_spherical(
        m_id(3, {2}).scale(V_PLUS_VINV)).is_perverse
    rep = is_perverse_spherical(bott_samelson_spherical((1,), 3, {2}))
    assert rep.is_perverse
    assert rep.expansion == {s1: ONE}


def test_deodhar_examples():
    assert deodhar_expand((2,), 3, {2}) == m_id(3, {2}).scale(V_PLUS_VINV)
    assert deodhar_expand((1, 2), 3, {2}) == \
        bott_samelson_spherical((1, 2), 3, {2})
    # all bits forced to 1: a single subexpression lands on minrep(w)
    word = (1, 2, 1)
    ones = EnumConstraint(3, range(3))
    got = deodhar_expand(word, 3, {2}, ones)
    w = coxeter.min_coset_rep(evaluate_word(word, 3), {2})
    assert sorted(got.coeffs) == [w]


def test_deodhar_identity_sample():
    """Unconstrained Deodhar expansion equals the Bott-Samelson element
    (the exhaustive length <= 8 run lives in the acceptance suite)."""
    rng = random.Random(7)
    for _ in range(150):
        n = rng.choice((3, 4))
        word = tuple(rng.randrange(1, n) for _ in range(rng.randrange(6)))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.5)
        assert deodhar_expand(word, n, A) == \
            bott_samelson_spherical(word, n, A), (n, word, sorted(A))


def test_deodhar_identity_s5_longer_words():
    rng = random.Random(11)
    for _ in range(60):
        word = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(11)))
        A = frozenset(i for i in range(1, 5) if rng.random() < 0.4)
        assert deodhar_expand(word, 5, A) == \
            bott_samelson_spherical(word, 5, A), (word, sorted(A))


def test_interval_condition_check():
    A = frozenset({2})
    x = identity(3)
    s1 = evaluate_word((1,), 3)
    w = coxeter.min_coset_rep(evaluate_word((2, 1, 2), 3), A)
    # coefficient 1 on m_w alone: w is the one coset in the interval
    assert interval_endpoints({w: {0: 1}}, 3, A, x) == [w]

    # v^-1 inside the interval: fail at that coset
    bad = {s1: {-1: 1}, w: {0: 1}}
    inside = interval_endpoints(bad, 3, A, x)
    assert inside == [s1, w]
    assert [z for z in inside if min(bad[z]) < 0] == [s1]

    # v^-1 outside the interval (z not > x): no condition
    assert s1 not in interval_endpoints(bad, 3, A, s1)
    assert interval_endpoints({x: {-1: 1}}, 3, A, s1) == []


def test_interval_check_rejects_a_bad_x():
    data = sweep((), 4, {2})
    with pytest.raises(ValueError, match=r"^x = \(1, 2, 3\)"):
        interval_endpoints(data, 4, {2}, (1, 2, 3))
    with pytest.raises(ValueError, match=r"^x = \(1, 1, 2, 3\)"):
        interval_endpoints(data, 4, {2}, (1, 1, 2, 3))
    with pytest.raises(ValueError, match="not a minimal coset"):
        interval_endpoints(data, 4, {2}, (1, 3, 2, 4))


def _reduced_word(rng, n, length_cap):
    """A random reduced word in S_n of at most length_cap letters: each
    letter is drawn among the generators that lengthen the product."""
    word, p = [], identity(n)
    while len(word) < length_cap:
        up = [i for i in range(1, n) if p[i - 1] < p[i]]
        if not up:
            break
        i = rng.choice(up)
        word.append(i)
        p = oracles.apply_gen_right(p, i)
    return tuple(word)


def test_interval_check_matches_rank_table_oracle():
    """Seeded constrained expansions of reduced words in S_4/S_5 against
    the interval x < z <= w decided by tuple rank tables, with w the
    word's minimal coset representative.  x is a short endpoint, so that
    many intervals are not empty."""
    rng = random.Random(23)
    seen = failed = 0
    for _ in range(100):
        n = rng.choice((4, 5))
        word = _reduced_word(rng, n, rng.randrange(3, 12))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        forced = [k for k in range(len(word)) if rng.random() < 0.25]
        data = sweep(word, n, A, EnumConstraint(len(word), forced))
        w = coxeter.min_coset_rep(evaluate_word(word, n), A)
        support = sorted(data)
        x = min(rng.sample(support, min(3, len(support))), key=length)
        rx, rw = coxeter.rank_table(x), coxeter.rank_table(w)
        inside = [z for z in support if z != x
                  and coxeter.rank_table_dominates(rx, coxeter.rank_table(z))
                  and coxeter.rank_table_dominates(coxeter.rank_table(z), rw)]
        assert interval_endpoints(data, n, A, x) == inside
        seen += len(inside)
        failed += sum(min(data[z]) < 0 for z in inside)
    assert seen > 100 and 0 < failed < seen


def test_x_is_no_interval_entry_when_the_cosets_are_bytes():
    """`SweepResult.above` passes the packed keys of a fold: the interval
    comes back as bytes, in the order of the tuple interval, and x, an
    endpoint of every fold below, is never in it."""
    rng = random.Random(31)
    for _ in range(100):
        n = rng.choice((4, 5))
        word = _reduced_word(rng, n, rng.randrange(3, 12))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        forced = [k for k in range(len(word)) if rng.random() < 0.25]
        data = sweep(word, n, A, EnumConstraint(len(word), forced))
        support = sorted(data)
        x = min(rng.sample(support, min(3, len(support))), key=length)
        got = data.above(x)[0]
        assert x in data and bytes(x) not in got
        assert all(type(z) is bytes for z in got)
        assert [tuple(z) for z in got] == interval_endpoints(data, n, A, x)


def test_expansion_of_a_reduced_word_lies_below_w():
    """Why the interval test compares endpoints with x alone:
    every endpoint of the (constrained) expansion of a reduced word is
    <= w, the word's minimal coset representative.  Seeded reduced words
    with random A and constraints, and both demo words, checked with the
    tuple-table `bruhat_leq`."""
    from heckekit import worddata

    rng = random.Random(29)
    cases = []
    for _ in range(300):
        n = rng.randrange(2, 7)
        word = _reduced_word(rng, n, rng.randrange(1, 13))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        forced = [k for k in range(len(word)) if rng.random() < 0.25]
        cases.append((word, n, A, EnumConstraint(len(word), forced)))
    for name in ("demo-s4-pass", "demo-s4-fail"):
        wd = worddata.load_word_data(name)
        cases.append((wd.word, wd.n, wd.parabolic, wd.constraint()))
    endpoints = 0
    for word, n, A, constraint in cases:
        assert coxeter.is_reduced(word, n)
        w = coxeter.min_coset_rep(evaluate_word(word, n), A)
        for z in deodhar_expand(word, n, A, constraint).coeffs:
            assert coxeter.bruhat_leq(z, w), (word, n, sorted(A), z)
            endpoints += 1
    assert endpoints > 1000


def test_expansion_of_a_non_reduced_word_can_leave_the_interval():
    # s1 s1 is the identity, yet its subexpression s1 (e = 1, 0) is an
    # endpoint above it: validation must reject such a word before the
    # interval check, which compares endpoints with x alone
    word, n = (1, 1), 3
    w = coxeter.min_coset_rep(evaluate_word(word, n), frozenset())
    assert w == identity(3) and not coxeter.is_reduced(word, n)
    s1 = evaluate_word((1,), 3)
    data = sweep(word, n, frozenset())
    assert s1 in data and not coxeter.bruhat_leq(s1, w)
    assert interval_endpoints(data, n, frozenset(), w) == [s1]


def test_constructor_checks_key_length():
    with pytest.raises(ValueError, match="has 2 entries, not n = 3"):
        SphericalElement(3, {2}, {(1, 2): ONE})


def _bad_keys(rng, n, A):
    """Seeded keys of rank n that are no basis keys of the module of A:
    of the wrong length, no permutation, and (for A != {}) no minimal
    coset representative."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    short, long_ = tuple(perm[:-1]), tuple(perm) + (n + 1,)
    repeat = list(perm)
    i, j = rng.sample(range(n), 2)
    repeat[i] = repeat[j]
    out = {"length": [short, long_],
           "permutation": [tuple(repeat), tuple(p + n for p in perm)]}
    if A:
        out["minimal"] = rng.sample(
            [x for x in coxeter.all_permutations(n)
             if not coxeter.is_min_coset_rep(x, A)], 3)
    return out


def test_every_entry_refuses_a_bad_key_by_name():
    """h, m, both constructors, kl_basis, spherical_kl_basis, inverse_h
    and the target of defect_histogram share one key check: each refuses
    a key of the wrong length (where the entry takes n apart from the
    key), one that is no permutation, and one that is no minimal coset
    representative for A, naming the key."""
    rng = random.Random(53)
    entries = {
        "h": (lambda x, n, A: hecke.h(x), ("permutation",)),
        "kl_basis": (lambda x, n, A: kl_basis(x), ("permutation",)),
        "inverse_h": (lambda x, n, A: hecke.inverse_h(x), ("permutation",)),
        "defect_histogram": (
            lambda x, n, A: defect_histogram((), n, A, target=x),
            ("length", "permutation", "minimal")),
        "HeckeElement": (lambda x, n, A: hecke.HeckeElement(n, {x: ONE}),
                         ("length", "permutation")),
        "m": (lambda x, n, A: m(x, A), ("permutation", "minimal")),
        "spherical_kl_basis": (lambda x, n, A: spherical_kl_basis(x, A),
                               ("permutation", "minimal")),
        "SphericalElement": (lambda x, n, A: SphericalElement(n, A, {x: ONE}),
                             ("length", "permutation", "minimal")),
    }
    refused = 0
    for n in (3, 4, 5):
        for A in all_subsets(n):
            bad = _bad_keys(rng, n, A)
            for name, (entry, kinds) in entries.items():
                if name in ("h", "kl_basis", "inverse_h",
                            "HeckeElement") and A:
                    continue
                for kind in kinds:
                    for x in bad.get(kind, ()):
                        with pytest.raises(ValueError,
                                           match=re.escape(str(x))):
                            entry(x, n, A)
                        refused += 1
    assert refused > 300


def test_elements_of_different_modules_neither_add_nor_pair_nor_compare():
    hh = hecke.h((1, 2, 3))
    mm = m((2, 1, 3), {2})
    m0 = m((1, 2, 3), ())
    for a, b in ((hh, mm), (mm, hh), (hh, m0), (m0, hh),
                 (mm, m((1, 2, 3, 4), {2})), (mm, m((1, 3, 2), {1}))):
        with pytest.raises(ValueError, match="different modules"):
            a + b
        assert a != b
    with pytest.raises(ValueError, match="different modules"):
        hecke.pairing(hh, mm)
    with pytest.raises(ValueError, match="different modules"):
        spherical_pairing(mm, m0)
    # H is the module at A = {}, but an element of H is no SphericalElement
    assert hh.coeffs == m0.coeffs and hh != m0 and m0 != hh
    assert hh.parabolic is hecke.HeckeElement.zero(5).parabolic


def test_b_s_is_symmetric_on_the_standard_basis():
    """The matrix of b_s on {m_u} is symmetric (the entries at (su, u) and
    (u, su) are both 1), so [m_z] b_{s_1}...b_{s_m} m_id equals
    [m_id] b_{s_m}...b_{s_1} m_z: the fold read from z, through
    act_by_gen, reaches the identity with the fold's coefficient at z."""
    rng = random.Random(59)
    cases = 0
    for _ in range(400):
        n = rng.choice((3, 4, 5))
        A = frozenset(g for g in range(1, n) if rng.random() < 0.4)
        word = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 8)))
        forward = bott_samelson_spherical(word, n, A)
        for z in min_coset_reps(A, n):
            el = m(z, A)
            for i in word:
                el = act_by_gen(i, el)
            assert el.coefficient(identity(n)) == forward.coefficient(z), \
                (word, A, z)
            cases += 1
    assert cases > 7000


def test_perversity_expansion_sums_back_to_the_character_for_every_A():
    """is_perverse_spherical on seeded S_4/S_5 Bott-Samelson characters,
    for every A: the expansion, read off the cached c_x, sums back to the
    character, and every coefficient is bar-invariant, as the character
    and each c_x are."""
    rng = random.Random(37)
    nonconstant = 0
    for n in (4, 5):
        for A in all_subsets(n):
            for _ in range(6 if n == 4 else 4):
                word = tuple(rng.randrange(1, n)
                             for _ in range(rng.randint(2, 10)))
                el = bott_samelson_spherical(word, n, A)
                rep = is_perverse_spherical(el)
                total = SphericalElement(n, A)
                for x, c in rep.expansion.items():
                    assert c.bar() == c, (word, A, x)
                    total = total + spherical_kl_basis(x, A).scale(c)
                assert total == el, (word, A)
                constant = [set(c.terms) <= {0}
                            for c in rep.expansion.values()]
                assert rep.is_perverse == all(constant)
                nonconstant += not all(constant)
    assert nonconstant > 40


def _copy(table):
    weights, top = table
    return [(u, dict(g)) for u, g in weights], top


def test_w_a_tables_agree_with_the_references_and_stay_unchanged():
    """phi_embed and spherical_pairing against references that enumerate
    W_A anew, for every A of S_4 and S_5: the first call of each (A, n)
    builds its W_A table, a cache miss, and the second reads the same
    table, a hit, unchanged."""
    cache = spherical._wa_table
    cache.cache_clear()
    for n in (4, 5):
        for A in all_subsets(n):
            reps = sorted(min_coset_reps(A, n))
            a = m_id(n, A) + m(reps[-1], A).scale(V)
            b = act_by_gen(1, m(reps[len(reps) // 2], A))
            want_phi = oracles.phi_embed(a)
            want_pair = oracles.spherical_pairing(a, b)
            top = oracles.inversions(coxeter.longest_element(A, n))
            before = cache.cache_info()
            table = cache(A, n)
            built = _copy(table)
            assert cache.cache_info().misses == before.misses + 1
            for call in range(2):
                assert phi_embed(a) == want_phi
                assert spherical_pairing(a, b) == want_pair
                info = cache.cache_info()
                assert cache(A, n) is table and table[1] == top
                assert cache.cache_info().hits == info.hits + 1
                assert _copy(table) == built
            assert cache.cache_info().misses == before.misses + 1
    assert cache.cache_info().currsize == 8 + 16


def test_w_a_tables_are_bounded():
    """The cache keeps the W_A tables of the 64 pairs (A, n) used last:
    after every A of S_6 and S_7 (32 + 64 pairs), the last 64 are hits
    and the first is built anew."""
    cache = spherical._wa_table
    cache.cache_clear()
    keys = [(A, n) for n in (6, 7) for A in all_subsets(n)]
    for A, n in keys:
        phi_embed(m_id(n, A))
        assert cache.cache_info().currsize <= 64
    info = cache.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (64, 64, len(keys))
    for key in keys[-64:]:
        cache(*key)
    assert cache.cache_info().misses == len(keys)
    cache(*keys[0])
    assert cache.cache_info().misses == len(keys) + 1


def test_b_w_a_is_fixed_by_a_and_squares_to_a_multiple_of_itself():
    """The two facts on b = b_{w_A} that give spherical_pairing's one
    embedding, for every A of S_3 to S_5, through the references:
    a(b) = b and b^2 = v^-len(w_A) pi~(A) b.  b is phi(m_id), the sum
    of v^{len(w_A) - len(u)} h_u over W_A."""
    for n in (3, 4, 5):
        for A in all_subsets(n):
            b = oracles.phi_embed(m_id(n, A))
            top = oracles.inversions(coxeter.longest_element(A, n))
            assert oracles.a_antiautomorphism(b) == b, A
            scalar = LaurentPoly({-top: 1}) * oracles.pi_tilde(A, n)
            assert oracles.multiply(b, b) == hecke.HeckeElement(
                n, oracles.add_scaled({}, b.coeffs, scalar)), A


def test_spherical_pairing_equals_the_quotient_on_every_basis_pair():
    """(m_x, m_y) against (phi(m_x), phi(m_y)) / pi~(A), the exact
    division of the reference, for every A of S_3 and S_4."""
    for n in (3, 4):
        for A in all_subsets(n):
            basis = [m(x, A) for x in min_coset_reps(A, n)]
            for a, b in itertools.product(basis, repeat=2):
                assert spherical_pairing(a, b) == \
                    oracles.spherical_pairing(a, b), (A, a, b)


def test_spherical_pairing_equals_the_quotient_on_a_seeded_s5_batch():
    """The same on seeded S_5 elements for every A: sums of scaled m_x and
    their images under act_by_gen."""
    rng = random.Random(71)
    for A in all_subsets(5):
        reps = list(min_coset_reps(A, 5))

        def element():
            el = SphericalElement(5, A)
            for _ in range(rng.randint(1, 3)):
                el = el + m(rng.choice(reps), A).scale(LaurentPoly(
                    {rng.randrange(-3, 4): rng.choice((-2, -1, 1, 3))}))
            for _ in range(rng.randint(0, 2)):
                el = act_by_gen(rng.randrange(1, 5), el)
            return el

        for _ in range(12):
            a, b = element(), element()
            assert spherical_pairing(a, b) == \
                oracles.spherical_pairing(a, b), (A, a, b)


def test_every_entry_names_a_parabolic_generator_outside_the_generators():
    """A = {0}, A = {n} and A = {7} are refused by the generator at every
    entry that takes A, through the one check in `coxeter`, a
    SphericalElement built with no key among them; at A = {0} the
    longest element w0 would pass a descent test that reads p[-1]."""
    entries = {
        "m": lambda n, A, w0: m(w0, A),
        "SphericalElement": lambda n, A, w0: SphericalElement(n, A,
                                                              {w0: ONE}),
        "SphericalElement, no key": lambda n, A, w0: SphericalElement(n, A),
        "spherical_kl_basis": lambda n, A, w0: spherical_kl_basis(w0, A),
        "bott_samelson_spherical":
            lambda n, A, w0: bott_samelson_spherical((1,), n, A),
        "min_coset_reps": lambda n, A, w0: list(min_coset_reps(A, n)),
    }
    for n in (3, 4):
        w0 = tuple(range(n, 0, -1))
        for bad in (0, n, 7):
            for entry in entries.values():
                with pytest.raises(ValueError,
                                   match=f"parabolic generator {bad} out of "
                                         f"range for S_{n}"):
                    entry(n, {bad}, w0)


@pytest.mark.parametrize("entry", [
    lambda A: SphericalElement(3, A),
    lambda A: SphericalElement(3, A, {(3, 2, 1): ONE}),
    lambda A: sweep((1,), 3, A),
    lambda A: defect_histogram((1,), 3, A),
    lambda A: worddata.decide(demazure.builtin_expr("paper-GL15"), 2,
                              worddata.WordData(3, (1,), A, frozenset(), -1)),
], ids=["SphericalElement", "SphericalElement, a key", "sweep",
        "defect_histogram", "decide"])
def test_a_generator_of_A_that_is_no_int_is_named_before_A_is_sorted(entry):
    """`coxeter`'s one generator check reads A before anything sorts it,
    so a member that does not compare with ints is named, not a bare
    TypeError from `sorted`."""
    with pytest.raises(ValueError, match="parabolic generator 'a' is not "
                                         "an int"):
        entry(frozenset({1, "a"}))


def test_every_entry_refuses_a_float_or_a_bool_where_it_takes_an_int():
    """A float or a bool equal to an int in range is no key entry, no
    letter and no generator of A: `coxeter`'s one key check and one
    range check refuse it with their own messages, at every entry that
    takes one, the six that take A among them, a SphericalElement with
    no key too.  (`inverse_h`, whose cache a float or a bool key can hit,
    has a test of its own.)"""
    w0 = (3, 2, 1)
    key = "is not a permutation of 1..3"
    calls = [
        (lambda: m((2.0, 1.0, 3.0), {2}), key),
        (lambda: m((True, 2, 3), ()), key),
        (lambda: hecke.h((1.0, 2, 3)), key),
        (lambda: kl_basis((2, 1, 3.0)), key),
        (lambda: SphericalElement(3, (), {(1, 2, 3.0): ONE}), key),
        (lambda: spherical_kl_basis((2.0, 1, 3), {2}), key),
        (lambda: coxeter.check_generators((1.5,), 3),
         "generator index 1.5 is not an int"),
        (lambda: act_by_gen(1.5, m_id(3, {1})),
         "generator index 1.5 is not an int"),
        (lambda: mult_by_gen(hecke.h(w0), 1.0, "right"),
         "generator index 1.0 is not an int"),
        (lambda: bott_samelson_spherical((True,), 3, ()),
         "generator index True is not an int"),
        (lambda: sweep((1, 2.0), 3, ()),
         "generator index 2.0 is not an int"),
    ]
    a_entries = [
        lambda A: m(w0, A),
        lambda A: SphericalElement(3, A, {w0: ONE}),
        lambda A: SphericalElement(3, A),
        lambda A: spherical_kl_basis(w0, A),
        lambda A: bott_samelson_spherical((1,), 3, A),
        lambda A: list(min_coset_reps(A, 3)),
    ]
    for bad in (1.0, True, 2.5):
        for entry in a_entries:
            calls.append((lambda entry=entry, bad=bad: entry({bad}),
                          f"parabolic generator {bad} is not an int"))
    for call, message in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_a_construction_checks_A_once_whatever_its_number_of_keys(
        monkeypatch):
    """Both constructors, m and spherical_kl_basis pass A through
    `coxeter.check_generators` once per element, for 0, 1 and 5 keys,
    and still check every key."""
    nouns = []
    check = coxeter.check_generators
    monkeypatch.setattr(coxeter, "check_generators",
                        lambda *args: nouns.append(args[2:]) or check(*args))
    A = frozenset({2})
    reps = sorted(min_coset_reps(A, 4))
    perms = sorted(coxeter.all_permutations(4))
    builds = {
        "SphericalElement": lambda k: SphericalElement(
            4, A, {x: ONE for x in reps[:k]}),
        "HeckeElement": lambda k: hecke.HeckeElement(
            4, {x: ONE for x in perms[:k]}),
        "m": lambda k: m(reps[k], A),
        "spherical_kl_basis": lambda k: spherical_kl_basis(reps[k], A),
    }
    for name, build in builds.items():
        for k in (0, 1, 5):
            nouns.clear()
            build(k)
            assert nouns == [("parabolic generator",)], (name, k)
    bad = reps[:4] + [(1, 3, 2, 4)]       # the last key has a descent in A
    nouns.clear()
    with pytest.raises(ValueError, match=re.escape(
            "(1, 3, 2, 4) is not a minimal coset representative "
            "for A = [2]")):
        SphericalElement(4, A, {x: ONE for x in bad})
    assert nouns == [("parabolic generator",)]


def test_every_entry_names_a_letter_outside_the_generators():
    """Each entry that takes a letter checks it on the way in, the zero
    element too."""
    entries = {
        "mult_by_gen left": lambda i: mult_by_gen(hecke.h(identity(3)), i),
        "mult_by_gen right":
            lambda i: mult_by_gen(hecke.HeckeElement(3), i, "right", "b"),
        "act_by_gen": lambda i: act_by_gen(i, m_id(3, {1})),
        "act_by_gen on 0": lambda i: act_by_gen(i, SphericalElement(3, {1})),
        "bott_samelson_spherical":
            lambda i: bott_samelson_spherical((1, i), 3, {1}),
    }
    for i in (0, 3):
        for entry in entries.values():
            with pytest.raises(ValueError, match=f"generator index {i} out "
                                                 f"of range for S_3"):
                entry(i)
