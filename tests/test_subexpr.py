import gc
import itertools
import math
import random
import re

import pytest

from heckekit import coxeter, subexpr
from heckekit.subexpr import EnumConstraint, defect_histogram, sweep
from oracles import (aggregate, decorate, forced_slots, holding,
                     iter_subexpressions)


def all_subsets(gens):
    for r in range(len(gens) + 1):
        yield from map(frozenset, itertools.combinations(gens, r))


def test_decorate_examples():
    d = decorate((2,), (0,), 3, {2})
    assert d.decorations == ("S",)
    assert d.defect == -1
    assert d.endpoint == (1, 2, 3)

    d = decorate((1,), (0,), 3, {2})
    assert d.decorations == ("U",)
    assert d.defect == 1
    assert d.endpoint == (1, 2, 3)

    d = decorate((1,), (1,), 3, set())
    assert d.decorations == ("U",)
    assert d.defect == 0
    assert d.endpoint == (2, 1, 3)


def test_decorate_length_mismatch():
    with pytest.raises(ValueError):
        decorate((1, 2), (0,), 3, set())


def test_defect_matches_definition():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice((3, 4))
        m = rng.randrange(7)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        bits = tuple(rng.randrange(2) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.5)
        d = decorate(word, bits, n, A)
        plus = sum(1 for dec, e in zip(d.decorations, d.bits)
                   if (dec, e) in (("U", 0), ("S", 1)))
        minus = sum(1 for dec, e in zip(d.decorations, d.bits)
                    if (dec, e) in (("D", 0), ("S", 0)))
        assert d.defect == plus - minus


def test_iter_counts():
    word = (1, 2, 1, 2)
    assert sum(1 for _ in iter_subexpressions(word, 3, set())) == 16
    leaves = list(iter_subexpressions(word, 3, set(),
                                      ((1,), (0,), (1,), (1,))))
    assert len(leaves) == 1
    assert leaves[0].bits == (1, 0, 1, 1)


def test_iter_order_is_deterministic_and_e1_fastest():
    word = (1, 2)
    runs = [
        [d.bits for d in iter_subexpressions(word, 3, {2})] for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_iter_agrees_with_decorate():
    # the enumerator steps by coxeter.coset_step, decorate compares the
    # minimal representatives of y and s_i y; every word of length <= 4
    # over S_4, for every A
    for A in all_subsets((1, 2, 3)):
        for m in range(5):
            for word in itertools.product((1, 2, 3), repeat=m):
                for rec in iter_subexpressions(word, 4, A):
                    assert rec == decorate(word, rec.bits, 4, A), (word, A)


def test_all_ones_endpoint():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice((3, 4, 5))
        word = tuple(rng.randrange(1, n) for _ in range(rng.randrange(9)))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        d = decorate(word, (1,) * len(word), n, A)
        expect = coxeter.min_coset_rep(coxeter.evaluate_word(word, n), A)
        assert d.endpoint == expect


def _aggregate(word, n, A, constraint):
    """The oracle's aggregation of the subexpressions `constraint` allows."""
    return aggregate(word, n, A, forced_slots(len(word), constraint.forced))


def test_sweep_matches_iteration():
    # no constraint: every position free, on both sides
    rng = random.Random(9)
    for _ in range(120):
        n = rng.choice((3, 4))
        m = rng.randrange(8)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.5)
        assert sweep(word, n, A) == aggregate(word, n, A)


def test_sweep_matches_iteration_with_forced_positions():
    rng = random.Random(2017)
    cases = [((), 5, frozenset({2}), ())]
    for _ in range(60):
        n = rng.choice((4, 5, 6))
        m = rng.randrange(1, 11)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        forced = frozenset(k for k in range(m) if rng.random() < 0.3)
        cases.append((word, n, A, forced))
        if len(cases) % 10 == 0:
            cases.append((word, n, A, frozenset(range(m))))
    for word, n, A, forced in cases:
        c = EnumConstraint(len(word), forced)
        assert sweep(word, n, A, c) == _aggregate(word, n, A, c), \
            (word, n, sorted(A), sorted(forced))


def test_sweep_rejects_out_of_range_generators():
    # the oracle takes its input through the same check as the fold
    for fold in (sweep, lambda *args: list(iter_subexpressions(*args))):
        with pytest.raises(ValueError, match="parabolic generator 7"):
            fold((1,), 3, {7})
        with pytest.raises(ValueError, match="parabolic generator 0"):
            fold((), 3, {0})
        with pytest.raises(ValueError, match="generator index 3"):
            fold((3,), 3, set())


def test_sweep_budget_is_checked_after_an_e1_insertion(monkeypatch):
    # letter 2 keeps s1's coset and moves it up (two cosets), then moves
    # the identity's coset up to s2: the e = 1 insertion passes the budget
    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", 2)
    with pytest.raises(ValueError, match="budget of 2 cosets"):
        sweep((2, 1), 3, set())


def test_sweep_support_budget(monkeypatch):
    word = (1, 2, 3, 1, 2, 1)
    assert len(sweep(word, 4, set())) == 24
    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", 23)
    with pytest.raises(ValueError, match="budget of 23 cosets"):
        sweep(word, 4, set())
    forced = EnumConstraint.forced_letters(word, {1, 2, 3})
    assert len(sweep(word, 4, set(), forced)) == 1


def test_sweep_empty_word():
    assert sweep((), 4, {1}) == {(1, 2, 3, 4): {0: 1}}


def test_histogram_examples():
    assert defect_histogram((2,), 3, {2}) == {-1: 1, 1: 1}
    forced = EnumConstraint(2, {0, 1})
    hist = defect_histogram((1, 2), 3, set(), forced)
    assert sum(hist.values()) == 1
    hist = defect_histogram((1, 2), 3, {2}, target=(1, 2, 3))
    # endpoint id: bits (0,0) [U0 then U0 -> +2] and (1,1)? no: s1s2 != id.
    assert sum(hist.values()) == len(
        [r for r in iter_subexpressions((1, 2), 3, {2})
         if r.endpoint == (1, 2, 3)])


def test_forced_letters_constraint():
    word = (1, 3, 2, 3, 1)
    c = EnumConstraint.forced_letters(word, {3})
    assert c.forced == {1, 3}
    assert c.free_positions() == [0, 2, 4]
    assert len(c) == 5 and c.leaf_count() == 8


def test_invalid_constraint():
    for forced in ({1}, {-1}):
        with pytest.raises(ValueError, match="out of range"):
            EnumConstraint(1, forced)
    with pytest.raises(ValueError):
        sweep((1,), 3, set(), EnumConstraint(2))
    with pytest.raises(ValueError, match="invalid allowed-bit set"):
        list(iter_subexpressions((1,), 3, set(), ((0, 2),)))


# -- the packed fold state: field offsets, field widths, the byte bound --


def test_sweep_all_one_slots_and_small_ranks():
    assert sweep((), 1, set()) == {(1,): {0: 1}}
    assert sweep((), 2, {1}) == {(1, 2): {0: 1}}
    rng = random.Random(43)
    for _ in range(60):
        n = rng.choice((2, 3, 4, 5))
        m = rng.randrange(10)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.5)
        c = EnumConstraint(m, range(m))
        assert sweep(word, n, A, c) == _aggregate(word, n, A, c)
    for k in range(6):
        for A in (set(), {1}):
            word = (1,) * k
            assert sweep(word, 2, A) == aggregate(word, 2, A)


def test_sweep_s_letters_give_binomial_counts():
    # k free S steps: defect 2j - k for the C(k, j) choices of j ones; the
    # all-zero choice reaches -k, the lowest field the offset has to cover
    for k in range(13):
        assert sweep((1,) * k, 2, {1}) == {
            (1, 2): {2 * j - k: math.comb(k, j) for j in range(k + 1)}}


def test_sweep_mixed_slots_seeded_batch():
    rng = random.Random(1707)
    for _ in range(80):
        n = rng.choice((4, 5, 6, 7))
        m = rng.randrange(1, 12)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        c = EnumConstraint(m, (k for k in range(m) if rng.random() < 0.5))
        got = sweep(word, n, A, c)
        assert got == _aggregate(word, n, A, c), (word, n, sorted(A),
                                                  sorted(c.forced))
        # deodhar_expand wraps these keys and histograms unchecked
        assert all(coxeter.is_min_coset_rep(z, A) and hist
                   for z, hist in got.items())


def test_sweep_rejects_n_above_a_byte():
    with pytest.raises(ValueError, match="n = 256"):
        sweep((1,), 256, set())
    assert sweep((), 255, set()) == {tuple(range(1, 256)): {0: 1}}


# -- the result: a read-only mapping over the packed state ---------------


def _seeded_folds(seed: int, count: int):
    """(sweep result, oracle dict) pairs on seeded S_3-S_6 words with
    random A and forced positions."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((3, 4, 5, 6))
        m = rng.randrange(11)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        c = EnumConstraint(m, (k for k in range(m) if rng.random() < 0.3))
        yield sweep(word, n, A, c), _aggregate(word, n, A, c)


def test_sweep_result_equals_the_oracle_from_either_side():
    for got, want in _seeded_folds(61, 80):
        assert got == want and want == got
        assert not (got != want or want != got)
        if want:
            other = dict(want)
            other[next(iter(want))] = {99: 1}
            assert got != other and other != got


def test_sweep_result_reads_as_the_old_dict():
    for got, want in _seeded_folds(67, 80):
        assert len(got) == len(want) and sorted(got) == sorted(want)
        assert sorted(got.items()) == sorted(want.items())
        assert sorted(map(sorted, (h.items() for h in got.values()))) == \
            sorted(map(sorted, (h.items() for h in want.values())))
        assert len(got.items()) == len(got.values()) == len(want)
        for z, hist in want.items():
            assert z in got and (z, hist) in got.items()
            assert got[z] == got.get(z) == hist
            assert list(got[z]) == sorted(hist)   # increasing defect
            assert bytes(z) not in got and got.get(bytes(z)) is None
        n = len(next(iter(want)))
        missing = tuple(range(n, 0, -1)) + (n + 1,)
        for key in (missing, (256,) * n, ("a",) * n, None):
            assert key not in got and got.get(key, "none") == "none"
        with pytest.raises(KeyError):
            got[missing]


def test_packed_total_histogram_equals_the_oracle_total():
    for got, want in _seeded_folds(71, 80):
        total: dict[int, int] = {}
        for hist in want.values():
            for d, c in hist.items():
                total[d] = total.get(d, 0) + c
        assert got.total() == dict(sorted(total.items()))
        assert list(got.total()) == sorted(total)
    assert sweep((), 3, set()).total() == {0: 1}


def test_defect_histogram_reads_the_packed_fold():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.choice((3, 4, 5))
        m = rng.randrange(9)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        c = EnumConstraint(m, (k for k in range(m) if rng.random() < 0.3))
        want = _aggregate(word, n, A, c)
        total: dict[int, int] = {}
        for hist in want.values():
            for d, k in hist.items():
                total[d] = total.get(d, 0) + k
        assert defect_histogram(word, n, A, c) == dict(sorted(total.items()))
        for z in coxeter.min_coset_reps(A, n):
            got = defect_histogram(word, n, A, c, target=z)
            assert got == want.get(z, {}) and list(got) == sorted(got)


# -- forced runs: one pass per maximal run of forced positions ----------


def _forced_run_cases():
    """Seeded (word, n, forced) cases whose forced positions make a run of
    every length 1..12 at the start of the word, at its end, inside it
    and over the whole word, some with a second run of two."""
    rng = random.Random(29)
    for k in range(96):
        run, place = k % 12 + 1, k // 12 % 4
        n = rng.choice((4, 5, 6, 7))
        free = 0 if place == 2 else rng.randint(1, 4)
        m = run + free
        start = (0, free, 0, rng.randint(0, free))[place]
        forced = set(range(start, start + run))
        # and a second run of two where the free letters leave room for
        # it, one free letter away from the first
        room = [p for p in range(m - 1)
                if not {p - 1, p, p + 1, p + 2} & forced]
        if k % 3 == 0 and room:
            forced |= {room[0], room[0] + 1}
        yield tuple(rng.randrange(1, n) for _ in range(m)), n, forced


def test_sweep_forced_runs_match_the_oracle_for_several_A():
    s_in_runs = 0
    rng = random.Random(31)
    for word, n, forced in _forced_run_cases():
        gens = range(1, n)
        # several A per word: none, all, and two random ones
        for A in (set(), set(gens),
                  *({g for g in gens if rng.random() < p} for p in (.4, .7))):
            c = EnumConstraint(len(word), forced)
            assert sweep(word, n, A, c) == _aggregate(word, n, A, c), \
                (word, n, sorted(A), sorted(forced))
            s_in_runs += sum(
                rec.decorations[j] == "S" for rec in iter_subexpressions(
                    word, n, A, forced_slots(len(word), forced))
                for j in forced)
    assert s_in_runs > 1000   # S steps inside runs shift the histogram


# -- the interval above x, with one id per distinct histogram ----------


def test_above_reads_each_endpoint_histogram_through_its_id():
    """`SweepResult.above(x)` gives the endpoints above x as sorted
    bytes, the ones that `oracles.bruhat_above` passes among the fold's
    keys, one id per endpoint, and the distinct histograms, unpacked, in
    first-seen order: histograms[ids[k]] is the fold's histogram at the
    k-th endpoint.  On both demos at their x, the `gl15-partial` prefix
    under two A, 150 seeded folds and the extreme-defect words, each at
    the identity and at a seeded endpoint."""
    from heckekit import worddata

    rng = random.Random(79)
    folds = []   # (fold, its free positions, the x to read above)
    for name in ("demo-s4-pass", "demo-s4-fail"):
        wd = worddata.load_word_data(name)
        c = wd.constraint()
        folds.append((sweep(wd.word, wd.n, wd.parabolic, c),
                      len(c.free_positions()), wd.x_element()))
    # gl15-partial holds the documented 44-letter prefix and no A: fold it
    # under the A of gl15-reconstructed and of the synthetic GL15 words
    wd = worddata.load_word_data("gl15-partial")
    prefix = wd.word_prefix
    for A in ({1, 2, 3}, {1, 2, 3, 4}):
        c = EnumConstraint.forced_letters(prefix, wd.lower)
        folds.append((sweep(prefix, wd.n, A, c), len(c.free_positions()),
                      wd.x_element()))
    for _ in range(150):
        n = rng.choice((4, 5, 6))
        m = rng.randrange(1, 11)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        c = EnumConstraint(m, (k for k in range(m) if rng.random() < 0.3))
        data = sweep(word, n, A, c)
        folds.append((data, len(c.free_positions()), rng.choice(list(data))))
    # the extreme defect -free: every free step an e = 0 on an S or D coset;
    # at A = {} s_1 is D on the coset s_1 that a forced first step reaches
    folds += [(sweep((1,) * k, 2, {1}), k, (1, 2)) for k in range(8)]
    folds += [(sweep((1,) * k, 2, set(), EnumConstraint(k, {k - 1})), k - 1,
               (2, 1)) for k in range(1, 9)]
    folds.append((sweep((1, 2, 1), 3, set(), EnumConstraint(3, {2})), 2,
                  (2, 1, 3)))
    seen = negative = lowest = 0
    for data, free, x in folds:
        for x in (x, tuple(range(1, len(x) + 1))):
            inside, ids, histograms = data.above(x)
            assert inside == list(map(bytes, _oracle_above(x, data)))
            assert len(ids) == len(inside)
            assert [histograms[i] for i in ids] == [data[tuple(z)]
                                                    for z in inside]
            assert list(dict.fromkeys(ids)) == list(range(len(histograms)))
            assert len({tuple(h.items()) for h in histograms}) == \
                len(histograms)
            seen += len(inside)
            negative += sum(min(h) < 0 for h in histograms)
            lowest += free > 0 and any(min(h) == -free for h in histograms)
    assert len(folds) >= 170
    assert seen > 1000 and negative > 100 and lowest >= 10


# -- forced runs in one translate: the block-content memo ----------------


def _forced_letter_cases(A, ns, count, seed):
    """Seeded (word, n, forced) cases in S_n, n in `ns`: 14 to 30 letters,
    at most 10 of them free, with the letters of a set B disjoint from A
    forced, so forced runs of several letters meet many cosets of
    repeated block content."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.choice(ns)
        rest = [g for g in range(1, n) if g not in A]
        B = set(rng.sample(rest, rng.randint(1, len(rest))))
        free = rng.randint(3, 10)
        word = [rng.choice(sorted(B)) for _ in range(rng.randint(14, 30))]
        for k in rng.sample(range(len(word)), free):
            word[k] = rng.randrange(1, n)
        forced = {k for k, t in enumerate(word) if t in B}
        if len(word) - len(forced) <= 10:
            cases.append((tuple(word), n, forced))
    return cases


@pytest.mark.parametrize("A", [(), (2,), (1, 3), (1, 2, 4, 5)],
                         ids=["A={}", "one block", "{1,3}", "{1,2,4,5}"])
def test_forced_runs_agree_with_the_step_by_step_fold(A):
    """The forced pass, one memo lookup and one translate per coset,
    against `oracles.fold`, which steps every letter through
    `coxeter.coset_step`: seeded words in S_6..S_9 whose forced letters
    make runs of up to 30 letters, under A = {}, one block and two."""
    from oracles import fold

    runs = 0
    for word, n, forced in _forced_letter_cases(set(A), (6, 7, 8, 9), 40,
                                                seed=len(A) + 83):
        c = EnumConstraint(len(word), forced)
        assert sweep(word, n, A, c) == fold(word, n, A, forced), \
            (word, n, sorted(forced))
        runs += sum(1 for k in forced if k + 1 in forced)
    assert runs > 200


# -- the interval test: all cosets at once, one byte column at a time ----


def _perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def _oracle_above(x, cosets):
    from oracles import bruhat_above

    above = bruhat_above(x)
    return sorted(filter(above, cosets))


def test_bulk_interval_agrees_on_every_pair_s1_to_s6():
    rng = random.Random(61)
    for n in range(1, 7):
        perms = _perms(n)
        data = holding(rng.sample(perms, len(perms)))
        for x in perms:
            want = _oracle_above(x, perms)
            assert data.above(x)[0] == list(map(bytes, want)), x


def _wide_cases(rng, n):
    """x and cosets of S_n for n past 127: block swaps (k+1..n, 1..k),
    whose one essential cell has r_x = 0, against the identity, which
    has r_z = min(k, n - k) there, random permutations, and neighbours
    of x one transposition away."""
    def transposed(p):
        i, j = rng.sample(range(n), 2)
        q = list(p)
        q[i], q[j] = q[j], q[i]
        return tuple(q)

    ident, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    xs = [tuple(range(k + 1, n + 1)) + tuple(range(1, k + 1))
          for k in (n // 2, n // 2 + 1, 1, n - 1)]
    xs += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
    xs += [transposed(transposed(ident)) for _ in range(2)]
    for x in xs:
        cosets = {ident, w0, x, transposed(x), *(
            tuple(rng.sample(range(1, n + 1), n)) for _ in range(20))}
        cosets |= {transposed(z) for z in list(cosets)}
        yield x, sorted(cosets)


@pytest.mark.parametrize("n", [128, 200, 255])
def test_bulk_interval_agrees_past_127_values(n):
    """One byte per coset and cell holds r_z - r_x + 127: |r_z - r_x| is
    at most n // 2 <= 127 for n <= 255, which the block swap x =
    (k+1..n, 1..k) against the identity reaches at k = n // 2."""
    rng = random.Random(n)
    comparable = 0
    for x, cosets in _wide_cases(rng, n):
        want = _oracle_above(x, cosets)
        got = holding(cosets).above(x)[0]
        assert got == list(map(bytes, want)), x
        comparable += len(want)
    assert comparable > 10


def test_bulk_interval_edge_inputs():
    x = (2, 1, 3)
    assert holding([]).above(x) == ([], [], [])
    assert holding([bytes(x)] * 2).above(x) == ([], [], [])
    # x = identity has no essential cell: every other coset is above it
    for n in (1, 2, 5, 255):
        ident = tuple(range(1, n + 1))
        cosets = [bytes(random.Random(n + k).sample(ident, n))
                  for k in range(20)] + [bytes(ident)]
        want = sorted(z for z in set(cosets) if z != bytes(ident))
        assert coxeter.essential_set(ident) == []
        assert holding(cosets).above(ident)[0] == want


@pytest.mark.parametrize("size", [subexpr.BRUHAT_CHUNK - 1,
                                  subexpr.BRUHAT_CHUNK,
                                  subexpr.BRUHAT_CHUNK + 1])
def test_bulk_interval_across_the_chunk_boundary(size):
    """Seeded S_8 samples of one chunk less one, one chunk and one chunk
    and one coset, with x the last coset of the first chunk or the first
    of the second."""
    from oracles import bruhat_above

    rng = random.Random(size)
    cosets = sorted(rng.sample(_perms(8), size))
    for x in (cosets[min(subexpr.BRUHAT_CHUNK, size) - 1],
              cosets[min(subexpr.BRUHAT_CHUNK, size - 1)]):
        above = bruhat_above(x)
        got = holding(rng.sample(cosets, size)).above(x)[0]
        assert got == [bytes(z) for z in cosets if above(z)], x
        assert bytes(x) not in got


@pytest.mark.parametrize("cosets, named", [
    ([(2, 1)], r"\(2, 1\) has 2 entries"),
    ([(3, 2, 1), (2, 1, 3, 4)], r"\(2, 1, 3, 4\) has 4 entries"),
    ([bytes((3, 2, 1)), b"\x02\x01", b""], r"b'\\x02\\x01' has 2 entries"),
])
def test_interval_refuses_a_coset_of_the_wrong_length(cosets, named):
    """`above` on a fold of S_3 takes each of `cosets` as x: one of 3
    entries passes, and one of another length is refused, named as it
    was given (the first such one as `named` says): the fold's keys all
    have n entries, and the rank fields of the interval test count on x
    having n too."""
    data = sweep((1, 2, 1), 3, set())
    for x in cosets:
        if len(x) == 3:
            data.above(x)
            continue
        with pytest.raises(ValueError, match=f"^x {re.escape(repr(x))} has "
                                             f"{len(x)} entries, not n = 3$"):
            data.above(x)
    with pytest.raises(ValueError, match=f"^x {named}, not n = 3$"):
        data.above(next(x for x in cosets if len(x) != 3))


def test_interval_refuses_n_above_a_byte():
    """An x of 256 entries never reaches the one-byte rank fields of the
    interval test: `sweep` refuses n = 256, so no fold's keys have more
    than 255 entries, and `above` refuses an x of another length than
    its keys by name."""
    with pytest.raises(ValueError, match="^n = 256 is above 255"):
        sweep((), 256, set())
    x = tuple(range(1, 257))
    with pytest.raises(ValueError, match=r"^x \(1, 2, 3, .*, 256\) has 256 "
                                         r"entries, not n = 255$"):
        sweep((), 255, set()).above(x)


def test_every_fold_key_is_bytes_of_n_values():
    """The invariant that lets the interval test read the keys unchecked:
    every key of a fold is `bytes` holding one value per byte, n of them,
    a permutation of 1..n.  Seeded folds in S_3..S_8, with and without
    forced letters."""
    rng = random.Random(89)
    keys = 0
    for _ in range(120):
        n = rng.randint(3, 8)
        word = tuple(rng.randrange(1, n) for _ in range(rng.randint(0, 12)))
        A = frozenset(g for g in range(1, n) if rng.random() < 0.4)
        forced = ([] if rng.random() < 0.5 else
                  [k for k in range(len(word)) if rng.random() < 0.4])
        data = sweep(word, n, A, EnumConstraint(len(word), forced))
        for z in data.packed:
            assert type(z) is bytes and sorted(z) == list(range(1, n + 1))
        keys += len(data.packed)
    assert keys > 500


def test_the_packed_fold_state_is_not_tracked_by_the_collector():
    """Why the CLI leaves the cyclic collector on: a fold's state holds
    only bytes keys and int values, so the collector does not track it
    and never walks it, however many cosets it holds.  Seeded folds with
    and without forced letters."""
    for got, _ in _seeded_folds(97, 40):
        assert not gc.is_tracked(got.packed)
