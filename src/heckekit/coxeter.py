"""
The symmetric group S_n as a Coxeter system.

Permutations are tuples of 1-based images in one-line notation, so the
permutation p sends i to p[i-1].  The simple transposition s_i swaps the
values i and i+1 (acting on the left) or the positions i and i+1 (acting
on the right).  Words are tuples of generator indices in {1..n-1}.
Parabolic subsets are collections of generator indices.  The package
applies a generator through one rule, `coset_step` (s_i on the left, on
the coset of a minimal representative in W/W_A, with A = {} for W
itself); the plain left and right actions and descent tests are slow
references in `tests/oracles.py`.

This module owns the package's input checks, one each: a letter, and a
generator of A, is an int in 1..n-1 (`check_generators`, which
`is_min_coset_rep` and `parabolic_blocks` apply to A), and a basis key
is a permutation of the ints 1..n that is a minimal coset representative
for A (`coset_keys`, which checks A once for any number of keys, and
`coset_key` for one); a float or a bool is never an entry.  The other
modules call them at their entries and never inside a step.

Bruhat order is on tuples here, by the rank-matrix criterion
(Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5): x <= y iff
the rank table of x dominates that of y entrywise.  `rank_table`,
`rank_table_dominates` and `bruhat_leq` compare tuple tables entry by
entry, and `essential_set` gives the cells of Fulton's essential set.
The certificate's interval test, which compares the fold's packed
cosets with x in bulk, lives with the fold's coset format in `subexpr`
and reads x's rank table and essential set from here.

W_A permutes the positions within each block of A (`parabolic_blocks`),
which gives w_A, W_A and the minimal coset representatives.
"""
from __future__ import annotations

from itertools import combinations, starmap
from operator import gt
from typing import Collection, Iterable, Iterator, Sequence

Permutation = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def is_permutation(seq: Sequence[int]) -> bool:
    """True iff seq holds the ints 1..len(seq), each once; a float or a
    bool equal to one of them is no int."""
    ints = all(type(v) is int for v in seq)
    return ints and sorted(seq) == list(range(1, len(seq) + 1))


def check_generators(gens: Iterable[int], n: int,
                     noun: str = "generator index") -> None:
    """Raise ValueError naming the first of `gens` that is no int in
    1..n-1, no generator of S_n, as the `noun` it is: a member that is no
    int (a float, a bool or a string) "is not an int", one outside
    1..n-1 is "out of range".  `gens` is read as given, so callers pass A
    unsorted: a member that does not compare with an int is named before
    anything sorts A."""
    for i in gens:
        if type(i) is not int:
            raise ValueError(f"{noun} {i!r} is not an int")
        if not 1 <= i <= n - 1:
            raise ValueError(f"{noun} {i} out of range for S_{n}")


def coset_key(x: Iterable[int], n: int, parabolic: Collection[int],
              name: str | None = None) -> Permutation:
    """x as a tuple, if it is a permutation of 1..n that is a minimal coset
    representative for A = parabolic (every permutation is, at A = {}):
    `coset_keys` on the one key x.

    >>> coset_key([2, 1, 3], 3, {2})
    (2, 1, 3)
    """
    return next(coset_keys((x,), n, parabolic, name))


def coset_keys(xs: Iterable[Iterable[int]], n: int,
               parabolic: Collection[int],
               name: str | None = None) -> Iterator[Permutation]:
    """The keys `xs` as tuples, checked as they are read.  A = parabolic
    passes `check_generators` once, at the first read, whatever the
    number of keys (none too), and then each key must be a permutation
    of 1..n with no right descent in A, a minimal coset representative;
    else ValueError names `name`, by default the key."""
    check_generators(parabolic, n, "parabolic generator")
    for x in map(tuple, xs):
        if len(x) != n:
            why = f"has {len(x)} entries, not n = {n}"
        elif not is_permutation(x):
            why = f"is not a permutation of 1..{n}"
        elif any(x[i - 1] > x[i] for i in parabolic):
            why = (f"is not a minimal coset representative "
                   f"for A = {sorted(parabolic)}")
        else:
            yield x
            continue
        raise ValueError(f"{x if name is None else name} {why}")


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def multiply(p: Permutation, q: Permutation) -> Permutation:
    """Composition (p*q)(i) = p(q(i))."""
    return tuple(p[v - 1] for v in q)


def length(p: Permutation) -> int:
    """Coxeter length = number of inversions.

    >>> length((3, 2, 1))
    3
    """
    return sum(starmap(gt, combinations(p, 2)))


def evaluate_word(word: Sequence[int], n: int) -> Permutation:
    """The product s_{i_1} ... s_{i_m}, multiplied out left to right.

    >>> evaluate_word((1, 2, 1), 3)
    (3, 2, 1)
    """
    check_generators(word, n)
    p = list(range(1, n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def is_reduced(word: Sequence[int], n: int) -> bool:
    return length(evaluate_word(word, n)) == len(word)


def reduced_word(p: Permutation) -> Word:
    """A reduced word for p (lexicographically smallest descent stripped last).

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    """
    word: list[int] = []
    q = list(p)
    n = len(q)
    while True:
        for i in range(n - 1):
            if q[i] > q[i + 1]:
                q[i], q[i + 1] = q[i + 1], q[i]
                word.append(i + 1)
                break
        else:
            break
    return tuple(reversed(word))


def all_permutations(n: int) -> Iterator[Permutation]:
    import itertools

    return itertools.permutations(range(1, n + 1))


# -- Bruhat order ------------------------------------------------------


def rank_table(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """r[i][j] = #{a <= i : p(a) <= j} for i, j in 1..n (0-padded row/col)."""
    n = len(p)
    row = [0] * (n + 1)
    rows = [tuple(row)]
    for v in p:
        # row i is row i-1 plus one in the columns j >= p(i)
        for j in range(v, n + 1):
            row[j] += 1
        rows.append(tuple(row))
    return tuple(rows)


def rank_table_dominates(rx, ry) -> bool:
    """True iff rx >= ry entrywise, i.e. x <= y in Bruhat order."""
    n = len(rx) - 1
    for i in range(1, n):
        rxi, ryi = rx[i], ry[i]
        for j in range(1, n):
            if rxi[j] < ryi[j]:
                return False
    return True


def bruhat_leq(x: Permutation, y: Permutation) -> bool:
    """Bruhat order on S_n via rank-matrix dominance.

    >>> bruhat_leq((1, 2, 3), (3, 2, 1))
    True
    >>> bruhat_leq((2, 1, 3), (1, 3, 2))
    False
    """
    if len(x) != len(y):
        raise ValueError("permutations of different symmetric groups")
    return rank_table_dominates(rank_table(x), rank_table(y))


def essential_set(x: Permutation) -> list[tuple[int, int]]:
    """Fulton's essential set of x, in row-major order: the south-east
    corners (i, j) of the diagram {(i, j) : j < x(i), i < x^-1(j)}, those
    cells of it whose south and east neighbours lie outside it.  Every
    cell has i, j <= n - 1.

    >>> essential_set((1, 3, 2)), essential_set((3, 1, 2))
    ([(2, 2)], [(1, 2)])
    """
    n = len(x)
    xinv = inverse(x)

    def diagram(i: int, j: int) -> bool:
        return j < x[i - 1] and i < xinv[j - 1]

    return [(i, j) for i in range(1, n) for j in range(1, n)
            if diagram(i, j) and not diagram(i + 1, j)
            and not diagram(i, j + 1)]


# -- parabolic subgroups ----------------------------------------------


def parabolic_blocks(parabolic: Iterable[int], n: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive generators, as (first, last) index pairs."""
    gens = set(parabolic)
    check_generators(gens, n, "parabolic generator")
    gens = sorted(gens)
    blocks = []
    k = 0
    while k < len(gens):
        start = gens[k]
        while k + 1 < len(gens) and gens[k + 1] == gens[k] + 1:
            k += 1
        blocks.append((start, gens[k]))
        k += 1
    return blocks


def longest_element(parabolic: Iterable[int], n: int) -> Permutation:
    """The longest element w_A of the standard parabolic subgroup W_A.

    Reverses each maximal consecutive block of positions.

    >>> longest_element({1, 3}, 4)
    (2, 1, 4, 3)
    """
    out = list(range(1, n + 1))
    for first, last in parabolic_blocks(parabolic, n):
        out[first - 1:last + 1] = reversed(out[first - 1:last + 1])
    return tuple(out)


def parabolic_elements(parabolic: Iterable[int], n: int) -> Iterator[Permutation]:
    """All elements of W_A (products over the blocks)."""
    import itertools

    blocks = parabolic_blocks(parabolic, n)
    span = []
    for first, last in blocks:
        positions = list(range(first - 1, last + 1))
        span.append((positions, list(itertools.permutations(positions))))
    base = list(range(1, n + 1))
    combos = itertools.product(*[perms for _, perms in span]) if span else [()]
    for combo in combos:
        out = list(base)
        for (positions, _), arrangement in zip(span, combo):
            for pos, src in zip(positions, arrangement):
                out[pos] = base[src]
        yield tuple(out)


def min_coset_rep(p: Permutation, parabolic: Iterable[int]) -> Permutation:
    """The shortest element of the coset p*W_A.

    W_A permutes the positions of each block of A, so the result sorts
    the entries of each block and has no right descent in A.

    >>> min_coset_rep((2, 3, 1), {2})
    (2, 1, 3)
    """
    out = list(p)
    for first, last in parabolic_blocks(parabolic, len(p)):
        out[first - 1:last + 1] = sorted(out[first - 1:last + 1])
    return tuple(out)


def is_min_coset_rep(p: Permutation, parabolic: Iterable[int]) -> bool:
    """True iff p has no right descent in A = parabolic; ValueError for a
    generator of A outside 1..len(p)-1."""
    A = tuple(parabolic)
    check_generators(A, len(p), "parabolic generator")
    return all(p[i - 1] < p[i] for i in A)


def min_coset_reps(parabolic: Iterable[int], n: int) -> Iterator[Permutation]:
    A = frozenset(parabolic)
    for p in all_permutations(n):
        if is_min_coset_rep(p, A):
            yield p


# -- the U/D/S step classifier ----------------------------------------


def coset_step(u: Permutation, i: int, parabolic) -> tuple[str, Permutation]:
    """Classify left multiplication by s_i on the coset of u in W/W_A.

    u must be a minimal coset representative.  Returns ("U", s_i*u) if the
    coset goes up, ("D", s_i*u) if it goes down, ("S", u) if it is fixed.
    The classification is O(1) given the positions a, b of the values
    i, i+1: s_i lowers u exactly when a > b, and the coset is fixed
    exactly when b = a + 1 and the transposition swapping those positions
    lies in A (then s_i*u = u*r with r in A).  Otherwise s_i*u is u with
    the values at a and b swapped.  At A = {} no coset is fixed.

    >>> coset_step((1, 3, 2), 2, ()), coset_step((1, 2, 3), 2, {2})
    (('D', (1, 2, 3)), ('S', (1, 2, 3)))
    """
    a = u.index(i)
    b = u.index(i + 1)
    if b == a + 1 and b in parabolic:
        return "S", u
    out = list(u)
    out[a], out[b] = i + 1, i
    return ("D" if a > b else "U"), tuple(out)
