"""The term-map sums against their LaurentPoly-product references.

`laurent._add_product` adds f * g into an accumulator of {exponent: int}
maps in place, through its one-term path when g has one term, and
`hecke` (`_b_step` on term maps, with its b_s, h_s and h_s^-1 rows,
`mult_by_gen`, `inverse_h`,
`_add_scaled`, `pairing`) and `spherical` (`bott_samelson_spherical`,
`phi_embed`) sum through it; `MultiPoly.__mul__`
accumulates the same way on exponent vectors.  Each is compared with the
reference in `oracles` that forms every term as a LaurentPoly (or
validated MultiPoly) product: exhaustively on S_4 for every parabolic
subset, on a seeded S_5 batch, and on random mixed-sign coefficients, so
that terms cancel to zero.  Elements and both caches of `hecke` store
term maps: every stored map, like every accumulator, holds no zero int
and is never empty, and an element rebuilt from its LaurentPoly
coefficients through the public constructor is the same element.
"""
import itertools
import random

import oracles
from heckekit import coxeter, hecke, spherical
from heckekit.coxeter import all_permutations, min_coset_reps
from heckekit.demazure import MultiPoly
from heckekit.hecke import (
    HeckeElement,
    _add_scaled,
    _b_step,
    bar_involution,
    h,
    inverse_h,
    is_perverse_character,
    kl_basis,
    mult_by_gen,
    pairing,
)
from heckekit.laurent import ONE, V, LaurentPoly, _add_product
from heckekit.spherical import (
    SphericalElement,
    act_by_gen,
    is_perverse_spherical,
    m,
    phi_embed,
    spherical_kl_basis,
)


def all_subsets(n):
    gens = tuple(range(1, n))
    for r in range(n):
        yield from map(frozenset, itertools.combinations(gens, r))


def rand_terms(rng, size=3):
    """A mixed-sign term map with up to `size` terms, possibly empty."""
    terms = {}
    for _ in range(rng.randrange(size + 1)):
        terms[rng.randrange(-2, 3)] = rng.choice((-2, -1, 1, 2))
    return terms


def rand_coeffs(rng, keys, size=5):
    """Mixed-sign LaurentPoly coefficients on up to `size` of `keys`."""
    out = {}
    for x in rng.sample(keys, min(size, len(keys))):
        c = LaurentPoly(rand_terms(rng))
        if c:
            out[x] = c
    return out


def polys(acc):
    """A map of term maps as validated LaurentPolys."""
    return {x: LaurentPoly(t) for x, t in acc.items()}


def assert_clean(coeffs):
    """A coefficient map holds nonzero LaurentPolys of nonzero ints."""
    for c in coeffs.values():
        assert isinstance(c, LaurentPoly) and c.terms
        assert all(c.terms.values())


def assert_clean_accumulator(acc):
    """A map of term maps (an accumulator, an element's stored `terms`
    or a cache entry) holds non-empty dicts of nonzero ints."""
    for t in acc.values():
        assert type(t) is dict and t and all(t.values())


def test_add_product_is_the_sum_of_products():
    rng = random.Random(41)
    cancelled = 0
    for _ in range(2000):
        f, g = rand_terms(rng), rand_terms(rng)
        t = rand_terms(rng)
        if rng.random() < 0.2 and f and g:
            # the key cancels to zero
            t = {e: -c for e, c in (LaurentPoly(f) * LaurentPoly(g))
                 .terms.items()}
        out = {"k": dict(t)} if t else {}
        _add_product(out, "k", f, g)
        want = LaurentPoly(t) + LaurentPoly(f) * LaurentPoly(g)
        assert out.get("k", {}) == want.terms
        assert_clean_accumulator(out)
        cancelled += bool(t) and not want
    assert cancelled > 100


def test_one_term_path_is_the_sum_of_products():
    """g = {k: a} with k in {-1, 0, 1} and scalars a, added into absent
    keys, present keys and keys that cancel to zero."""
    rng = random.Random(50)
    seen = {"absent": 0, "present": 0, "cancelled": 0}
    for _ in range(3000):
        k = rng.choice((-1, 0, 1))
        a = rng.choice((1, 1, -1, 2, -3))
        g = {k: a}
        f = rand_terms(rng)
        case = rng.choice(tuple(seen))
        if case == "absent":
            t = {}
        elif case == "cancelled" and f:
            t = {e + k: -c * a for e, c in f.items()}
        else:
            t = rand_terms(rng)
        out = {"k": dict(t)} if t else {}
        before = dict(f)
        _add_product(out, "k", f, g)
        want = LaurentPoly(t) + LaurentPoly(f) * LaurentPoly(g)
        assert out.get("k", {}) == want.terms
        assert_clean_accumulator(out)
        assert f == before
        if "k" in out:
            assert out["k"] is not f
        seen[case] += 1 if case != "cancelled" else (bool(f) and not want)
    assert min(seen.values()) > 500


def test_one_term_path_never_hands_out_f_itself():
    """A fresh key gets a map of its own, so a later in-place add into
    that key writes neither the caller's map nor a cached one."""
    for g in ({0: 1}, {1: 1}, {-1: 1}, {0: -2}):
        f = {0: 1, 2: 3}
        out = {}
        _add_product(out, "k", f, g)
        assert out["k"] is not f
        _add_product(out, "k", {0: 5}, {0: 1})
        assert f == {0: 1, 2: 3}
    # an empty f adds nothing, and leaves no empty map
    out = {}
    _add_product(out, "k", {}, {0: 1})
    assert out == {}
    # a cached _kl map, a cached inverse and a W_A table pass through the
    # one-term path unwritten
    x = (3, 1, 4, 2)
    cached = {y: dict(t) for y, t in hecke._kl(x, frozenset()).items()}
    inv = {y: dict(t) for y, t in inverse_h(x).terms.items()}
    A = frozenset({1, 3})
    table = spherical._wa_table(A, 4)
    snapshot = ([(u, dict(g)) for u, g in table[0]], table[1])
    for i in (1, 2, 3):
        mult_by_gen(kl_basis(x), i, "left", "h")
        phi_embed(act_by_gen(i, m((1, 3, 2, 4), A)))
        bar_involution(kl_basis(x))
    assert hecke._kl(x, frozenset()) == cached
    assert inverse_h(x).terms == inv
    assert ([(u, dict(g)) for u, g in table[0]], table[1]) == snapshot


def test_add_product_writes_no_argument():
    f, g = {0: 1, 1: 2}, {-1: 3}
    t = {0: 5}
    out = {"k": t, "other": {2: 1}}
    _add_product(out, "k", f, g)
    assert f == {0: 1, 1: 2} and g == {-1: 3}
    assert out == {"k": {0: 11, -1: 3}, "other": {2: 1}}
    assert out["k"] is t      # added in place


def test_b_step_agrees_with_the_reference_on_s4_for_every_A():
    rng = random.Random(42)
    for A in all_subsets(4):
        reps = sorted(min_coset_reps(A, 4))
        elements = [{u: ONE} for u in reps]
        elements += [spherical_kl_basis(u, A).coeffs for u in reps]
        elements += [rand_coeffs(rng, reps) for _ in range(10)]
        for coeffs, i in itertools.product(elements, (1, 2, 3)):
            terms = {u: c.terms for u, c in coeffs.items()}
            before = {u: dict(t) for u, t in terms.items()}
            acc = _b_step(i, terms, A)
            assert_clean_accumulator(acc)
            assert terms == before
            assert not any(t is f for t in acc.values()
                           for f in terms.values())
            want = oracles.b_step(i, coeffs, A)
            assert polys(acc) == want
            el = SphericalElement(4, A, coeffs)
            assert act_by_gen(i, el).coeffs == want


def test_the_h_s_rows_are_the_b_s_row_minus_their_constant():
    """h_s = b_s - v and h_s^-1 = b_s - v^-1 on every module: `_b_step`
    with the h_s (h_s^-1) row against the default b_s step minus v (v^-1)
    times the input, on seeded term maps over W^A for every A of S_4 and
    seeded A of S_5, S cosets included (H never reaches one)."""
    rng = random.Random(49)
    subsets5 = list(all_subsets(5))
    cases = [(4, A) for A in all_subsets(4)]
    cases += [(5, rng.choice(subsets5)) for _ in range(12)]
    seen = set()
    for n, A in cases:
        reps = sorted(min_coset_reps(A, n))
        for _ in range(8):
            terms = {u: c.terms for u, c in rand_coeffs(rng, reps).items()}
            before = {u: dict(t) for u, t in terms.items()}
            for i in range(1, n):
                seen |= {coxeter.coset_step(u, i, A)[0] for u in terms}
                for rule, minus in ((hecke._H_S, {1: -1}),
                                    (hecke._H_S_INV, {-1: -1})):
                    want = _b_step(i, terms, A)
                    for u, t in terms.items():
                        _add_product(want, u, t, minus)
                    got = _b_step(i, terms, A, rule)
                    assert_clean_accumulator(got)
                    assert got == want
            assert terms == before
    assert seen == {"U", "D", "S"}


def test_h_s_and_b_s_act_on_every_spherical_kl_element_of_s4():
    """`mult_by_gen` on the left acts on M: b_s on c_u against the
    LaurentPoly reference `oracles.b_step`, and h_s as that minus v c_u,
    for every A of S_4, every c_u and every letter: 225 cases."""
    cases = fixed = 0
    for A in all_subsets(4):
        for u in min_coset_reps(A, 4):
            c = spherical_kl_basis(u, A)
            for i in (1, 2, 3):
                want = SphericalElement(4, A, oracles.b_step(i, c.coeffs, A))
                assert mult_by_gen(c, i, "left", "b") == want
                assert act_by_gen(i, c) == want
                assert mult_by_gen(c, i, "left", "h") == want + c.scale(-V)
                cases += 1
                fixed += any(coxeter.coset_step(z, i, A)[0] == "S"
                             for z in c.coeffs)
    assert cases == 225 and fixed > 50


def test_bott_samelson_spherical_agrees_with_the_reference_fold():
    """Every word of length <= 6 over S_4, for every A: the fold on term
    maps against the LaurentPoly fold of `oracles.b_step`."""
    words = [w for k in range(7) for w in itertools.product((1, 2, 3),
                                                            repeat=k)]
    for A in all_subsets(4):
        for w in words:
            got = spherical.bott_samelson_spherical(w, 4, A)
            assert got.coeffs == oracles.bott_samelson_spherical(w, 4, A)
            assert_clean_accumulator(got.terms)


def test_mult_by_gen_agrees_with_the_reference_on_s4():
    rng = random.Random(43)
    perms = list(all_permutations(4))
    elements = [h(x) for x in perms] + [kl_basis(x) for x in perms]
    elements += [HeckeElement(4, rand_coeffs(rng, perms)) for _ in range(40)]
    for el in elements:
        for i, side, kind in itertools.product((1, 2, 3), ("left", "right"),
                                               ("h", "b")):
            got = mult_by_gen(el, i, side, kind)
            assert got == oracles.mult_by_gen(el, i, side, kind)
            assert_clean_accumulator(got.terms)


def test_seeded_s5_batch_agrees_with_the_references():
    rng = random.Random(44)
    perms = list(all_permutations(5))
    subsets = list(all_subsets(5))
    for _ in range(150):
        i = rng.randrange(1, 5)
        el = HeckeElement(5, rand_coeffs(rng, perms, 8))
        for side, kind in itertools.product(("left", "right"), "hb"):
            assert mult_by_gen(el, i, side, kind) == oracles.mult_by_gen(
                el, i, side, kind)
        A = rng.choice(subsets)
        coeffs = rand_coeffs(rng, sorted(min_coset_reps(A, 5)), 8)
        acc = _b_step(i, {u: c.terms for u, c in coeffs.items()}, A)
        assert_clean_accumulator(acc)
        assert polys(acc) == oracles.b_step(i, coeffs, A)
        m_el = SphericalElement(5, A, coeffs)
        got = phi_embed(m_el)
        assert got == oracles.phi_embed(m_el)
        assert_clean_accumulator(got.terms)


def test_terms_that_cancel_leave_no_key():
    """b_s (h_x - v h_sx) = 0 for sx > x, on either side, and
    b_s (m_u - v m_su) = 0 in M when s raises the coset of u."""
    for x in all_permutations(4):
        for i, side in itertools.product((1, 2, 3), ("left", "right")):
            sx = (oracles.apply_gen_left(i, x) if side == "left"
                  else oracles.apply_gen_right(x, i))
            if coxeter.length(sx) < coxeter.length(x):
                continue
            el = h(x) + h(sx).scale(-V)
            got = mult_by_gen(el, i, side, "b")
            assert got.coeffs == {}
            assert oracles.mult_by_gen(el, i, side, "b").coeffs == {}
    hits = 0
    for A in all_subsets(4):
        for u in min_coset_reps(A, 4):
            for i in (1, 2, 3):
                kind, su = coxeter.coset_step(u, i, A)
                if kind == "U":
                    assert _b_step(i, {u: {0: 1}, su: {1: -1}}, A) == {}
                    hits += 1
    assert hits > 50


def test_random_sums_do_cancel_and_agree():
    """Random mixed-sign multiples of b_s-null pairs h_x - v h_sx, plus a
    random term: most keys cancel, and the results agree."""
    rng = random.Random(45)
    perms = list(all_permutations(4))
    cancelled = 0
    for _ in range(300):
        i, side = rng.choice((1, 2, 3)), rng.choice(("left", "right"))

        def move(x):
            return (oracles.apply_gen_left(i, x) if side == "left"
                    else oracles.apply_gen_right(x, i))

        el = HeckeElement(4, rand_coeffs(rng, perms, 1))
        for x in rng.sample(perms, 3):
            sx = move(x)
            if coxeter.length(sx) < coxeter.length(x):
                x, sx = sx, x
            p = LaurentPoly(rand_terms(rng)) or ONE
            el = el + h(x).scale(p) + h(sx).scale(-(p * V))
        got = mult_by_gen(el, i, side, "b")
        assert got == oracles.mult_by_gen(el, i, side, "b")
        assert_clean_accumulator(got.terms)
        touched = {move(x) for x in el.coeffs} | set(el.coeffs)
        cancelled += bool(touched - set(got.coeffs))
    assert cancelled > 200


def test_pairing_agrees_with_the_full_product_and_cancels():
    rng = random.Random(46)
    perms = list(all_permutations(4))
    for _ in range(25):
        a, b = (HeckeElement(4, rand_coeffs(rng, perms, 4)) for _ in range(2))
        got = pairing(a, b)
        assert got == oracles.eps(oracles.multiply(
            oracles.a_antiautomorphism(a), b))
    # (bar(P_y) h_x - bar(P_x) h_y, b) = P_y P_x - P_x P_y = 0
    for _ in range(25):
        b = kl_basis(rng.choice(perms))
        x, y = rng.sample(perms, 2)
        px, py = pairing(h(x), b), pairing(h(y), b)
        if not px or not py:
            continue
        a = h(x).scale(py.bar()) + h(y).scale(-px.bar())
        got = pairing(a, b)
        assert got == LaurentPoly.zero() and got.terms == {}


def test_add_scaled_agrees_and_scale_takes_an_int_as_a_constant():
    """`_add_scaled` on term maps against the LaurentPoly reference, for
    constant and two-term factors; `scale` by an int as by the constant
    LaurentPoly."""
    rng = random.Random(47)
    perms = list(all_permutations(4))
    for c in range(-3, 4):
        for g in ({0: c} if c else {}, {-1: c or 1, 2: -1}):
            for _ in range(10):
                coeffs = rand_coeffs(rng, perms, 6)
                terms = {x: p.terms for x, p in coeffs.items()}
                before = {x: dict(t) for x, t in terms.items()}
                start = {x: dict(p.terms)
                         for x, p in rand_coeffs(rng, perms, 6).items()}
                acc = _add_scaled({x: dict(t) for x, t in start.items()},
                                  terms, g)
                assert_clean_accumulator(acc)
                assert polys(acc) == oracles.add_scaled(
                    polys(start), coeffs, LaurentPoly(g))
                assert terms == before
        el = HeckeElement(4, coeffs)
        by_int = el.scale(c)
        assert by_int == el.scale(LaurentPoly({0: c}))
        assert_clean_accumulator(by_int.terms)
        # adding an element's negative leaves nothing
        assert _add_scaled({x: dict(t) for x, t in terms.items()}, terms,
                           {0: -1}) == {}


def test_rewritten_sums_store_no_zero_coefficient():
    rng = random.Random(48)
    perms = list(all_permutations(4))
    for _ in range(20):
        a, b = (HeckeElement(4, rand_coeffs(rng, perms)) for _ in range(2))
        for el in (a, a + b, a.scale(LaurentPoly(rand_terms(rng))),
                   a.scale(0), bar_involution(a), inverse_h(rng.choice(perms)),
                   kl_basis(rng.choice(perms))):
            assert_clean_accumulator(el.terms)
        assert_clean(is_perverse_character(a).expansion)
    for A in all_subsets(4):
        for u in min_coset_reps(A, 4):
            for el in (m(u, A), spherical_kl_basis(u, A), phi_embed(m(u, A)),
                       act_by_gen(1, spherical_kl_basis(u, A))):
                assert_clean_accumulator(el.terms)
        assert_clean(is_perverse_spherical(
            spherical.bott_samelson_spherical((1, 2, 3, 1), 4, A)).expansion)
    assert hecke._kl_cache and hecke._inverse_cache
    for cache in (hecke._kl_cache, hecke._inverse_cache):
        for terms in cache.values():
            assert_clean_accumulator(terms)


def rebuilt(el):
    """el rebuilt through the public constructor from its LaurentPolys."""
    if isinstance(el, SphericalElement):
        return SphericalElement(el.n, el.parabolic, el.coeffs)
    return HeckeElement(el.n, el.coeffs)


def test_every_element_round_trips_through_the_public_constructor():
    """For every A of S_4 and a seeded batch of words, each way of making
    an element stores term maps that the constructor, given the
    LaurentPolys of `coeffs`, stores again: an equal element with the
    same repr and the same JSON."""
    rng = random.Random(61)
    perms = list(all_permutations(4))
    cases = 0
    for A in all_subsets(4):
        reps = sorted(min_coset_reps(A, 4))
        for _ in range(4):
            word = tuple(rng.randrange(1, 4)
                         for _ in range(rng.randint(0, 7)))
            i, x, u = rng.randrange(1, 4), rng.choice(perms), rng.choice(reps)
            bs = spherical.bott_samelson_spherical(word, 4, A)
            h_el = hecke.bott_samelson_char(word, 4)
            made = [spherical.deodhar_expand(word, 4, A), bs, h_el,
                    spherical_kl_basis(u, A), kl_basis(x), phi_embed(bs),
                    act_by_gen(i, bs), mult_by_gen(bs, i, "left", "h"),
                    mult_by_gen(h_el, i, "left", "b"),
                    mult_by_gen(h_el, i, "right", "h"),
                    mult_by_gen(h_el, i, "right", "b"), inverse_h(x),
                    bar_involution(h_el)]
            for el in made:
                again = rebuilt(el)
                assert again == el and repr(again) == repr(el)
                assert again.to_json_dict() == el.to_json_dict()
                assert_clean_accumulator(el.terms)
                cases += 1
    assert cases == 8 * 4 * 13


def test_perversity_writes_no_term_map_of_the_element():
    # b_x + v^2 b_y with y not below x: the back-substitution cancels the
    # identity's coefficient v + v^3 in its running sum, a copy, so el
    # keeps every map as it was and the expansion owns maps of its own
    x, y = (2, 1, 3, 4), (1, 2, 4, 3)
    el = kl_basis(x) + kl_basis(y).scale(LaurentPoly({2: 1}))
    before = {key: dict(t) for key, t in el.terms.items()}
    rep = is_perverse_character(el)
    assert rep.expansion == {x: ONE, y: LaurentPoly({2: 1})}
    assert el.terms == before and before[(1, 2, 3, 4)] == {1: 1, 3: 1}
    assert all(rep.expansion[key].terms is not el.terms[key]
               for key in (x, y))
    assert not rep.is_perverse


def test_multipoly_product_agrees_with_the_reference():
    rng = random.Random(49)

    def rand_multipoly(nvars):
        terms = {}
        for _ in range(rng.randrange(6)):
            e = tuple(rng.randrange(3) for _ in range(nvars))
            terms[e] = rng.choice((-2, -1, 1, 2))
        return MultiPoly(nvars, terms)

    cancelled = 0
    for _ in range(600):
        nvars = rng.randrange(1, 5)
        f, g = rand_multipoly(nvars), rand_multipoly(nvars)
        got = f * g
        want = oracles.multipoly_mul(f, g)
        assert got == want and all(got.terms.values())
        cancelled += len(got.terms) < len({
            tuple(a + b for a, b in zip(e1, e2))
            for e1 in f.terms for e2 in g.terms})
    assert cancelled > 20
    x1, x2 = MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(0, 1): 1})
    diff = x1 + x2 * -1
    assert (diff * (x1 + x2)).terms == {(2, 0): 1, (0, 2): -1}
    assert (diff * MultiPoly(2)).terms == {}
