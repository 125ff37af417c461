import itertools
import random

import pytest

import oracles
from heckekit import coxeter
from heckekit.coxeter import (
    all_permutations,
    bruhat_leq,
    coset_step,
    evaluate_word,
    identity,
    inverse,
    is_min_coset_rep,
    is_reduced,
    length,
    longest_element,
    min_coset_rep,
    min_coset_reps,
    multiply,
    parabolic_elements,
    rank_table,
    rank_table_dominates,
    reduced_word,
)
from oracles import bruhat_above


def bruhat_leq_subword(x, y):
    """Test oracle: x <= y iff x is a product of a subword of a reduced word
    for y (the subword criterion, checked exhaustively)."""
    n = len(y)
    word = reduced_word(y)
    reachable = set()
    for r in range(len(word) + 1):
        for sub in itertools.combinations(word, r):
            reachable.add(evaluate_word(sub, n))
    return x in reachable


def test_evaluate_word_examples():
    assert evaluate_word((1, 2, 1), 3) == (3, 2, 1)
    assert length((3, 2, 1)) == 3
    assert is_reduced((1, 2, 1), 3)
    assert evaluate_word((1, 1), 3) == identity(3)
    assert not is_reduced((1, 1), 3)
    assert evaluate_word((), 3) == identity(3)


def test_multiply_inverse_length():
    for p in all_permutations(4):
        assert multiply(p, inverse(p)) == identity(4)
        assert length(p) == length(inverse(p))
        w = reduced_word(p)
        assert evaluate_word(w, 4) == p
        assert len(w) == length(p)


def test_length_subadditive():
    perms = list(all_permutations(4))
    for p in perms:
        for q in perms:
            assert length(multiply(p, q)) <= length(p) + length(q)


def test_bruhat_examples():
    s1 = evaluate_word((1,), 3)
    s2 = evaluate_word((2,), 3)
    s1s2 = evaluate_word((1, 2), 3)
    assert bruhat_leq(s1, s1s2)
    assert not bruhat_leq(s1, s2)
    for x in all_permutations(3):
        assert bruhat_leq(identity(3), x)


def test_bruhat_agrees_with_subword_oracle_on_s4():
    perms = list(all_permutations(4))
    for y in perms:
        le_y = {x for x in perms if bruhat_leq_subword(x, y)}
        for x in perms:
            assert bruhat_leq(x, y) == (x in le_y), (x, y)


def packed_agrees(pairs):
    """`bruhat_above`, on packed tables, and the tuple rank tables give
    the same strict Bruhat comparisons, in both directions, on every
    pair; returns how many pairs are comparable."""
    comparable = 0
    for x, y in pairs:
        rx, ry = rank_table(x), rank_table(y)
        x_le_y, y_le_x = rank_table_dominates(rx, ry), \
            rank_table_dominates(ry, rx)
        assert bruhat_above(x)(y) == (x_le_y and x != y), (x, y)
        assert bruhat_above(y)(x) == (y_le_x and x != y), (y, x)
        comparable += x_le_y or y_le_x
    return comparable


def transposed(rng, x):
    """x with the values at two random positions swapped."""
    i, j = rng.sample(range(len(x)), 2)
    y = list(x)
    y[i], y[j] = y[j], y[i]
    return tuple(y)


def test_packed_bruhat_agrees_exhaustive_s1_to_s5():
    for n in range(1, 6):
        perms = list(all_permutations(n))
        packed_agrees(itertools.combinations_with_replacement(perms, 2))


def test_packed_bruhat_takes_tuples_and_bytes_alike():
    # z = x must read False whatever the types: a bytes z never equals a
    # tuple x, so the test cannot rest on z != x
    for n in range(1, 5):
        perms = list(all_permutations(n))
        for x in perms:
            for above in (bruhat_above(x), bruhat_above(bytes(x))):
                assert [above(bytes(z)) for z in perms] == \
                    [above(z) for z in perms] == \
                    [x != z and bruhat_leq(x, z) for z in perms]


def test_packed_bruhat_agrees_sampled_s6():
    rng = random.Random(6)
    perms = list(all_permutations(6))
    packed_agrees([tuple(rng.sample(perms, 2)) for _ in range(3000)])


def test_packed_bruhat_agrees_sampled_s15_and_wide_fields():
    # half the pairs one transposition apart: comparable, and the
    # boundary where a single entry decides the comparison
    for n, count in ((15, 2000), (40, 200)):
        rng = random.Random(n)
        pairs = []
        for k in range(count):
            x = tuple(rng.sample(range(1, n + 1), n))
            y = transposed(rng, x) if k % 2 else \
                tuple(rng.sample(range(1, n + 1), n))
            pairs.append((x, y))
        assert packed_agrees(pairs) >= count // 2


def test_packed_rank_table_fields():
    n = 5
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    C, H = oracles.rank_packing(n, cells)
    p = (3, 1, 5, 2, 4)
    packed = sum(Ca[v] for Ca, v in zip(C, p))
    fields = [[packed >> (6 * ((i - 1) * (n - 1) + j - 1)) & 63
               for j in range(1, n)] for i in range(1, n)]
    assert fields == [list(row[1:n]) for row in rank_table(p)[1:n]]
    assert H == sum(32 << (6 * f) for f in range((n - 1) ** 2))


# -- the essential set: the cells that the Bruhat test packs ----------


def test_essential_set_test_agrees_on_every_pair_s1_to_s6():
    for n in range(1, 7):
        perms = list(all_permutations(n))
        tables = [rank_table(p) for p in perms]
        for x, rx in zip(perms, tables):
            above = bruhat_above(x)
            assert [above(z) for z in perms] == \
                [x != z and rank_table_dominates(rx, rz)
                 for z, rz in zip(perms, tables)], x


def test_essential_set_is_the_south_east_corners_of_the_diagram():
    for n in range(1, 6):
        for x in all_permutations(n):
            diagram = {(i, j) for i in range(1, n + 1)
                       for j in range(1, n + 1)
                       if j < x[i - 1] and i < inverse(x)[j - 1]}
            assert coxeter.essential_set(x) == sorted(
                (i, j) for i, j in diagram
                if (i + 1, j) not in diagram and (i, j + 1) not in diagram)


def test_essential_set_of_the_gl15_x_is_its_anti_diagonal():
    # x = w_B for B = {5..14}: ten cells, which the packed test reads
    # in place of all 196 entries of the rank table
    x = longest_element(range(5, 15), 15)
    assert coxeter.essential_set(x) == [(p, 19 - p) for p in range(5, 15)]
    C, H = oracles.rank_packing(15, coxeter.essential_set(x))
    assert len(C) == 14 and H == sum(32 << (6 * f) for f in range(10))


def test_identity_has_no_essential_set_so_above_is_inequality():
    for n in (1, 2, 5, 300):
        x = identity(n)
        assert coxeter.essential_set(x) == []
        above = bruhat_above(x)
        assert not above(x)
        rng = random.Random(n)
        for _ in range(20):
            z = tuple(rng.sample(range(1, n + 1), n))
            assert above(z) == (z != x)
            if n <= 255:
                assert above(bytes(z)) == (z != x) and not above(bytes(x))


def test_above_tells_z_equal_to_x_apart_past_a_byte():
    # n > 255: x and z have no bytes form, and are compared as tuples
    rng = random.Random(3)
    x = tuple(rng.sample(range(1, 301), 300))
    above, rx = bruhat_above(x), rank_table(x)
    assert not above(x)
    for k in range(8):
        z = transposed(rng, x) if k % 2 else tuple(rng.sample(x, 300))
        assert above(z) == rank_table_dominates(rx, rank_table(z))


def test_longest_element():
    assert longest_element({1, 2}, 3) == (3, 2, 1)
    assert longest_element(set(), 3) == identity(3)
    assert longest_element({1, 3}, 4) == (2, 1, 4, 3)
    # longest = unique element of W_A with every generator of A a descent
    for A in ({1}, {2, 3}, {1, 3}, {1, 2, 3}):
        wA = longest_element(A, 4)
        assert wA in set(parabolic_elements(A, 4))
        assert all(oracles.has_right_descent(wA, i) for i in A)
        assert length(wA) == max(length(u) for u in parabolic_elements(A, 4))


def test_min_coset_rep_examples():
    s2 = evaluate_word((2,), 3)
    assert min_coset_rep(s2, {2}) == identity(3)
    assert min_coset_rep(evaluate_word((1, 2), 3), {2}) == evaluate_word((1,), 3)
    assert min_coset_rep(identity(3), {1, 2}) == identity(3)


def test_parabolic_out_of_range_is_one_error():
    # min_coset_rep reads A through parabolic_blocks, like the others
    for A in ({0}, {3}, {1, 5}):
        for call in (lambda: min_coset_rep((2, 1, 3), A),
                     lambda: longest_element(A, 3),
                     lambda: list(parabolic_elements(A, 3))):
            with pytest.raises(ValueError, match=r"parabolic generator \d "
                               r"out of range for S_3"):
                call()


def test_min_coset_rep_invariants():
    for A in map(frozenset, ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3},
                             ())):
        WA = set(parabolic_elements(A, 4))
        for x in all_permutations(4):
            u = min_coset_rep(x, A)
            assert is_min_coset_rep(u, A)
            assert bruhat_leq(u, x)
            assert multiply(inverse(u), x) in WA
            # u is the unique shortest element of the coset
            coset = {multiply(x, w) for w in WA}
            assert u in coset
            assert length(u) == min(length(c) for c in coset)


def test_classify_exhaustive_trichotomy():
    """For u in W^A and s: either s*u is in W^A (U/D) or the coset is
    fixed; coset_step, the package's one left action, against s_i*u and
    the descent test of `oracles`, for every (u, i, A) in S_1..S_6."""
    for n in range(1, 7):
        subsets = [frozenset(c) for r in range(n)
                   for c in itertools.combinations(range(1, n), r)]
        for A in subsets:
            for u in min_coset_reps(A, n):
                for i in range(1, n):
                    kind, nxt = coset_step(u, i, A)
                    su = oracles.apply_gen_left(i, u)
                    # s_i u = (u^-1 s_i)^-1, through the right action
                    assert su == inverse(oracles.apply_gen_right(
                        inverse(u), i))
                    assert (kind == "D") == oracles.has_left_descent(u, i) \
                        == oracles.has_right_descent(inverse(u), i)
                    if kind == "S":
                        assert min_coset_rep(su, A) == u
                        assert nxt == u
                    else:
                        assert is_min_coset_rep(su, A)
                        assert nxt == su
                        if kind == "U":
                            assert length(su) == length(u) + 1
                        else:
                            assert length(su) == length(u) - 1


def test_left_descent():
    w0 = (3, 2, 1)
    assert oracles.has_left_descent(w0, 1) and oracles.has_left_descent(w0, 2)
    assert not oracles.has_left_descent(identity(3), 1)


def test_length_counts_inversions():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert length(p) == oracles.inversions(p), p
    rng = random.Random(31)
    base = list(range(1, 16))
    for _ in range(2000):
        p = tuple(rng.sample(base, 15))
        assert length(p) == oracles.inversions(p), p
