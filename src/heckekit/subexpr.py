"""
Decorated subexpressions of a word, some of whose positions are forced to
1, and their aggregation by endpoint coset and defect.

A subexpression of a word (s_{i_1}, ..., s_{i_m}) is a bit sequence
e_1 ... e_m.  Suffix products y_0 = id, y_j = s_{i_{m+1-j}}^{e_{m+1-j}} y_{j-1}
determine a decoration at every position: position j is decorated U, D or S
according to whether s_{i_j} raises, lowers or fixes the coset of y_{m-j}
in W/W_A.  The parabolic defect of the subexpression is

    #{j : (d_j, e_j) = (U, 0) or (S, 1)} - #{j : (d_j, e_j) = (D, 0) or (S, 0)}.

An `EnumConstraint` forces e = 1 at a set of positions (the certificate
forces the letters of B) and leaves the others free.  `sweep` computes
endpoint -> defect -> count as a right-to-left fold over word positions
whose state maps minimal coset representatives to defect histograms.
Each step is the b_s action on the spherical module, cut down to e = 1 at
a forced position, so the cost follows the number of cosets reached
rather than the 2^(free positions) subexpressions.  `interval_endpoints`
picks out of a fold's result the cosets of the certificate's interval
x < z <= w.

The fold state is packed.  A coset is a `bytes` key holding one value per
byte, so `sweep` takes n <= MAX_N = 255, and s_i u is `u.translate(T_i)`
for a swap table built once per call.  A histogram is one int: the count of
defect d sits in field d + offset, and each field is free + 1 bits wide,
where free is the number of free positions.  The counts of one step add
up to at most 2^free, so no field carries into the next.  The offset is
free as well: only a free position allows e = 0, the one choice that
lowers the defect, so no defect falls below -free.  A defect shift of
+-1 is a shift by one field, and merging two histograms is one addition.

The slow references the fold is tested against, a depth-first walk over
every subexpression and a decoration straight from the definitions, live
with the tests in `tests/oracles.py`.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from . import coxeter
from .coxeter import Permutation

SweepResult = dict[Permutation, dict[int, int]]

# Most cosets one fold step may reach, in `certify` and in every
# Bott-Samelson character (`bs`, `pair`, `perverse-check`, in H or in M).
# The synthetic GL15 certificate words peak near 155,000 cosets.  On the
# benchmark's seed-7 word (n = 15, 153,421 cosets) tracemalloc measured
# about 220 bytes per packed coset and another 450 per unpacked one while
# both live: about 0.7 GB at the budget for GL15-shaped words.  Memory per
# coset grows with the free positions: `bs --n 11` on the 55-letter w0
# word peaked at 1,131 MB RSS when it hit the budget.  A `certify` run at
# 753,485 cosets (GL15-shaped word) peaked at 1.36 GB RSS.
SUPPORT_BUDGET = 1_000_000

# Largest n the fold takes: a coset keeps each of its values in one byte.
MAX_N = 255


class EnumConstraint:
    """The 0-based positions of a word of `length` letters whose bit is
    forced to e = 1; every other position is free to take 0 or 1."""

    __slots__ = ("length", "forced")

    def __init__(self, length: int, forced: Iterable[int] = ()):
        self.length = length
        self.forced = frozenset(forced)
        if not all(0 <= k < length for k in self.forced):
            raise ValueError(f"forced positions {sorted(self.forced)} out "
                             f"of range for a word of {length} letters")

    @classmethod
    def forced_letters(cls, word: Sequence[int], letters) -> "EnumConstraint":
        """Force e_i = 1 at every position whose letter lies in `letters`."""
        letters = frozenset(letters)
        return cls(len(word), (k for k, t in enumerate(word) if t in letters))

    def __len__(self) -> int:
        return self.length

    def free_positions(self) -> list[int]:
        """0-based positions with both bits allowed."""
        return [k for k in range(self.length) if k not in self.forced]

    def leaf_count(self) -> int:
        return 1 << (self.length - len(self.forced))


def sweep(word: Sequence[int], n: int, parabolic,
          constraint: EnumConstraint | None = None) -> SweepResult:
    """Aggregate endpoint -> defect -> count over all allowed subexpressions.

    A right-to-left fold over word positions.  The state maps each coset
    reached by the suffix subexpressions (as its minimal representative)
    to their defect histogram.  Letter s_i sends a U or D coset u to s_i u
    with shift 0 when e = 1 and keeps it with shift +1 (U) or -1 (D) when
    e = 0; an S coset stays with shift +1 (e = 1) or -1 (e = 0).  A forced
    position takes only the e = 1 half; with no constraint, none is
    forced.  This is the b_s action on the spherical module, so the work
    grows with the number of cosets reached rather than with the number
    of leaves.  A step that reaches more than SUPPORT_BUDGET cosets raises
    ValueError.

    The state is packed as the module docstring describes, and unpacked
    into tuples and dicts once, at the end.  The step is the rule of
    `coxeter.coset_step` written out on packed cosets, since this is the
    hot loop; the test oracles step by `coxeter.coset_step` itself.
    """
    if n > MAX_N:
        raise ValueError(f"n = {n} is above {MAX_N}: the fold keeps each "
                         f"coset as one byte per value")
    m = len(word)
    if constraint is None:
        constraint = EnumConstraint(m)
    if len(constraint) != m:
        raise ValueError("constraint length != word length")
    A = frozenset(parabolic)
    for noun, gens in (("generator index", word),
                       ("parabolic generator", sorted(A))):
        for i in gens:
            if not 1 <= i <= n - 1:
                raise ValueError(f"{noun} {i} out of range for S_{n}")
    forced = constraint.forced
    budget = SUPPORT_BUDGET
    free = m - len(forced)
    width = free + 1
    swaps = {i: bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i)))
             for i in set(word)}
    state = {bytes(range(1, n + 1)): 1 << free * width}
    for j in range(m - 1, -1, -1):
        i = word[j]
        keep = j not in forced   # e = 0 allowed
        swap = swaps[i]
        out: dict[bytes, int] = {}
        get = out.get
        for u, h in state.items():
            a = u.index(i)
            b = u.index(i + 1)
            s = b == a + 1 and b in A   # S: s_i u = u s_b with s_b in W_A
            if s:
                v, hv = u, h << width
            else:
                v, hv = u.translate(swap), h
            out[v] = get(v, 0) + hv
            if keep:   # +1 for U, -1 for D and S
                out[u] = get(u, 0) + (
                    h << width if a < b and not s else h >> width)
            if len(out) > budget:
                raise ValueError(f"subexpression fold support exceeds the "
                                 f"budget of {budget} cosets")
        state = out
    return _unpack(state, width)


def _unpack(state: dict[bytes, int], width: int) -> SweepResult:
    """The packed fold state as tuple cosets and {defect: count} dicts;
    the offset of defect 0 is width - 1 fields, the free count."""
    mask = (1 << width) - 1
    out: SweepResult = {}
    for u, h in state.items():
        hist = {}
        low = ((h & -h).bit_length() - 1) // width   # lowest nonzero field
        h >>= low * width
        d = low - (width - 1)
        while h:
            c = h & mask
            if c:
                hist[d] = c
            h >>= width
            d += 1
        out[tuple(u)] = hist
    return out


def interval_endpoints(data: SweepResult, n: int, parabolic,
                       x: Permutation) -> list[Permutation]:
    """The endpoints z of a `sweep` result with x < z, sorted: the cosets
    of the certificate's interval x < z <= w, where w is the minimal
    coset representative of the element of the swept word, which must
    be reduced.

    Only x < z is compared, with `coxeter.bruhat_above`: every endpoint
    z is a subexpression product, which lies below the word's element in
    Bruhat order when the word is reduced (the subword property), and
    taking the minimal coset representative preserves the order
    (Bjorner-Brenti, Thm 2.2.2 and Prop 2.5.1), so z <= w.  A word that
    is not reduced can have endpoints above w, which this test would
    count as inside: check reducedness first, as the `word-reduced`
    check of `worddata.validate_word_data` does.
    """
    x = tuple(x)
    if len(x) != n or not coxeter.is_permutation(x):
        raise ValueError(f"x = {x} is not a permutation of 1..{n}")
    if not coxeter.is_min_coset_rep(x, parabolic):
        raise ValueError(f"{x} is not a minimal coset representative")
    above = coxeter.bruhat_above(x)
    return [z for z in sorted(data) if above(z)]


def defect_histogram(word: Sequence[int], n: int, parabolic,
                     constraint: EnumConstraint | None = None,
                     target: Permutation | None = None) -> dict[int, int]:
    """Exact counts of subexpressions by parabolic defect, over every
    subexpression with e = 1 at the positions `constraint` forces (with
    no constraint, over all 2^m of them).

    With `target` set, only subexpressions whose endpoint coset has that
    minimal representative are counted.

    >>> defect_histogram((2,), 3, {2})
    {-1: 1, 1: 1}
    """
    data = sweep(word, n, parabolic, constraint)
    if target is not None:
        hist = data.get(tuple(target), {})
        return dict(sorted(hist.items()))
    return total_histogram(data.values())


def total_histogram(hists: Iterable[dict[int, int]]) -> dict[int, int]:
    """Counts by defect summed over histograms, in increasing defect
    order."""
    out: dict[int, int] = {}
    for hist in hists:
        for d, c in hist.items():
            out[d] = out.get(d, 0) + c
    return dict(sorted(out.items()))
