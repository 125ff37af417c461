import gc
import itertools
import math
import random
import re
from collections import Counter

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


def test_sweep_budget_is_checked_after_an_s_write(monkeypatch):
    """The last free step of (2, 1, 2) under A = {1}, with its last
    letter forced, reads two cosets: a D coset whose partner was not
    reached, which leaves two cosets, then an S coset, whose write makes
    the third.  At a budget of 2 only that S write crosses it, so an S
    branch that skipped the check would let the fold pass."""
    word, A, forced = (2, 1, 2), {1}, EnumConstraint(3, {2})
    before = sweep(word[1:], 3, A, EnumConstraint(2, {1}))
    steps = [coxeter.coset_step(u, word[0], A) for u in before]
    assert [d for d, _ in steps] == ["D", "S"]
    assert steps[0][1] not in before
    assert len(sweep(word, 3, A, forced)) == 3
    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", 2)
    with pytest.raises(ValueError, match="^subexpression fold support "
                                         "exceeds the budget of 2 cosets$"):
        sweep(word, 3, A, forced)


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


def test_above_does_not_depend_on_the_order_of_the_packed_state():
    """`above` reads the state in the order the fold wrote it, hashes
    the histograms in that order and renumbers the ids over the sorted
    interval: the same packed state in shuffled and in reversed order
    gives the same (inside, ids, histograms).  On both demos at their x
    and 120 seeded folds, each at the identity and at a seeded
    endpoint."""
    from heckekit import worddata

    rng = random.Random(101)
    folds = []
    for name in ("demo-s4-pass", "demo-s4-fail"):
        wd = worddata.load_word_data(name)
        folds.append((sweep(wd.word, wd.n, wd.parabolic, wd.constraint()),
                      wd.x_element()))
    for _ in range(120):
        n = rng.choice((4, 5, 6))
        m = rng.randrange(1, 11)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        A = frozenset(i for i in range(1, n) if rng.random() < 0.4)
        c = EnumConstraint(m, (k for k in range(m) if rng.random() < 0.3))
        data = sweep(word, n, A, c)
        folds.append((data, rng.choice(list(data))))
    several = 0
    for data, x in folds:
        items = list(data.packed.items())
        orders = [rng.sample(items, len(items)), items[::-1]]
        for x in (x, tuple(range(1, len(x) + 1))):
            want = data.above(x)
            for order in orders:
                assert holding(dict(order), data.width).above(x) == want, x
            several += len(want[2]) > 2
    assert several > 50


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


# -- free steps: the U side of each pair writes both cosets -------------


def _free_step_branches(word, n, A, forced) -> Counter:
    """The branches that the free steps of `sweep` take on the cosets
    they read, counted on `oracles.fold`'s state before each free step:
    "S" for a coset that s_i fixes, "U+" for a U coset whose partner
    s_i u was reached too, "U" and "D" for a U or D coset whose partner
    was not.  A D coset whose partner was reached writes nothing and is
    not counted."""
    from oracles import fold

    branches = Counter()
    for j, t in enumerate(word):
        if j in forced:
            continue
        state = fold(word[j + 1:], n, A, {k - j - 1 for k in forced if k > j})
        for u in state:
            d, su = coxeter.coset_step(u, t, A)
            if d == "S":
                branches["S"] += 1
            elif d == "U":
                branches["U+" if su in state else "U"] += 1
            elif su not in state:
                branches["D"] += 1
    return branches


def test_free_steps_agree_with_the_step_by_step_fold_on_every_branch():
    """The paired free step against `oracles.fold`, which merges every
    write into the dict it builds: seeded S_3-S_7 words at A = {} and
    at A != {}, each with no forced letter and with some.  Each branch
    of the step, S, U with its partner reached, U alone and D alone,
    runs many times in each of the four kinds of case where it can: no
    coset is S at A = {}, and no D coset is alone with no forced
    letter."""
    from oracles import fold

    rng = random.Random(1741)
    branches = {}
    for k in range(600):
        n = rng.randint(3, 7)
        m = rng.randint(1, 11)
        word = tuple(rng.randrange(1, n) for _ in range(m))
        some_A = k % 2 == 1
        A = frozenset(g for g in range(1, n) if rng.random() < 0.5)
        A = (A or {rng.randrange(1, n)}) if some_A else frozenset()
        forced = (frozenset() if k % 4 < 2 else
                  frozenset(p for p in range(m) if rng.random() < 0.4))
        c = EnumConstraint(m, forced)
        assert sweep(word, n, A, c) == fold(word, n, A, forced), \
            (word, n, sorted(A), sorted(forced))
        branches.setdefault((some_A, bool(forced)), Counter()).update(
            _free_step_branches(word, n, A, forced))
    assert len(branches) == 4
    for (some_A, some_forced), seen in branches.items():
        for branch in ["S"] * some_A + ["U+", "U"] + ["D"] * some_forced:
            assert seen[branch] >= 40, (some_A, some_forced, branch, seen)
        # with every letter free the cosets reached are closed downwards
        # (the subword property), so a D coset's partner is reached too
        assert some_forced or not seen["D"]


# -- the id form: the fold steps on histogram ids while they repeat -----


def _w0_word(n: int) -> tuple[int, ...]:
    """The reduced word of the longest element of S_n."""
    return tuple(i for top in range(n - 1, 0, -1) for i in range(1, top + 1))


def _synthetic_suffix(seed: int, start: int):
    """(word, n, A, forced) of synthetic GL15 seed `seed` from its letter
    `start` on, with its forced positions renumbered."""
    from compare_trees import synthetic_word
    from heckekit import worddata

    wd = worddata.parse_word_data(synthetic_word(seed))
    return (wd.word[start:], wd.n, wd.parabolic,
            {k - start for k in wd.constraint().forced if k >= start})


def _form_switch_cases():
    """(word, n, A, forced, forms) of folds large enough for the form
    check, with the pattern of forms that the checks must choose, "i"
    for ids and "n" for ints: two suffixes of a synthetic GL15 word,
    which enter the id form and stay in it (the shorter only at its
    last step), and the w0 of S_9 at A = {5, 6} with 20 seeded forced
    positions, which does too and whose forced runs on ids take S
    steps; the w0 of S_9 at A = {} with 14 seeded forced positions,
    whose repetition fades, so that it enters the id form and leaves
    it; and the w0 of S_8 at A = {} and of S_9 at A = {1, 3, 5}, which
    never repeat enough to enter it."""
    w9 = _w0_word(9)
    return [(*_synthetic_suffix(1, 14), "n+i+"),
            (*_synthetic_suffix(1, 26), "n+i"),
            (w9, 9, (5, 6), set(random.Random(0).sample(range(len(w9)), 20)),
             "n+i+"),
            (w9, 9, (), set(random.Random(21).sample(range(len(w9)), 14)),
             "n*i+n+"),
            (_w0_word(8), 8, (), set(), "n+"),
            (w9, 9, (1, 3, 5), set(), "n+")]


def test_folds_agree_with_the_oracle_in_either_form(monkeypatch):
    """Each fold of `_form_switch_cases` against `oracles.fold`, read
    through `items`, `total`, `get` and `above(x)` at a seeded endpoint
    and, for a fold that ends on ids, at its least endpoint too.  The
    checks choose the form from the state alone, in the pattern each
    case names: a fold whose histograms repeat steps on ids, and one
    whose repetition fades goes back to ints.  In the id form every kind
    of write ran: a lone U, D and S coset, a pair and a forced run whose
    S steps shift a histogram."""
    from oracles import fold

    forms, memos = [], Counter()
    choose = subexpr._choose_form

    def spy(state, ids, width):
        state, ids = choose(state, ids, width)
        forms.append("n" if ids is None else "i")
        if ids is not None:
            for name in ("ups", "downs", "fixed", "pairs"):
                memos[name] += len(getattr(ids, name))
            memos["shifted moves"] += sum(len(moved) for shift, moved
                                          in ids.moves.items() if shift)
        return state, ids

    monkeypatch.setattr(subexpr, "_choose_form", spy)
    rng = random.Random(107)
    for word, n, A, forced, pattern in _form_switch_cases():
        forms.clear()
        got = sweep(word, n, A, EnumConstraint(len(word), forced))
        want = fold(word, n, A, forced)
        assert re.fullmatch(pattern, "".join(forms)), (pattern, forms)
        assert (got.table is not None) is (forms[-1] == "i")
        assert dict(got.items()) == want
        total: Counter = Counter()
        for hist in want.values():
            total.update(hist)
        assert got.total() == dict(sorted(total.items()))
        keys = sorted(want)
        for z in rng.sample(keys, 200):
            assert got.get(z) == want[z] and list(got[z]) == sorted(want[z])
        xs = [rng.choice(keys)]
        if got.table is not None:   # nearly every coset, read through ids
            xs.append(keys[0])
        for x in xs:
            inside, ids, histograms = got.above(x)
            assert inside == list(map(bytes, _oracle_above(x, want)))
            assert [histograms[i] for i in ids] == [want[tuple(z)]
                                                    for z in inside]
    assert min(memos.values()) > 0 and set(memos) == {
        "ups", "downs", "fixed", "pairs", "shifted moves"}


def test_sweep_budget_is_checked_in_an_id_step(monkeypatch):
    """The last free step of a synthetic GL15 suffix runs on ids and
    goes from 14,637 cosets to 23,642: at a budget one below, that step
    crosses it on the id form and raises, and at that budget it
    passes."""
    word, n, A, forced = _synthetic_suffix(1, 14)
    c = EnumConstraint(len(word), forced)
    size = len(sweep(word, n, A, c))
    assert size == 23642
    raised = []
    free_step = subexpr._Ids.free_step

    def spy(self, state, *args):
        try:
            return free_step(self, state, *args)
        except ValueError:
            raised.append(len(state))
            raise

    monkeypatch.setattr(subexpr._Ids, "free_step", spy)
    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", size - 1)
    with pytest.raises(ValueError, match=f"^subexpression fold support "
                                         f"exceeds the budget of "
                                         f"{size - 1} cosets$"):
        sweep(word, n, A, c)
    assert raised == [14637]   # the last free step, on ids, raised
    monkeypatch.setattr(subexpr, "SUPPORT_BUDGET", size)
    assert len(sweep(word, n, A, c)) == size


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
    """Why a fold needs no pause of the cyclic collector: in the int
    form the state holds only bytes keys and int values, and in the id
    form its coset map holds bytes keys and int ids, so the collector
    tracks neither and never walks it, however many cosets it holds.
    The id form's table is a list, which the collector tracks, but it
    holds only ints, one per distinct histogram met, far fewer than the
    cosets.  Seeded folds with and without forced letters, which stay on
    ints, and two suffixes of a synthetic GL15 word, which end on
    ids."""
    for got, _ in _seeded_folds(97, 40):
        assert got.table is None and not gc.is_tracked(got.packed)
    for word, n, A, forced, _ in _form_switch_cases()[:2]:
        got = sweep(word, n, A, EnumConstraint(len(word), forced))
        assert not gc.is_tracked(got.packed)
        assert gc.is_tracked(got.table)
        assert all(type(h) is int for h in got.table)
        assert 16 * len(got.table) <= len(got)
