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
rather than the 2^(free positions) subexpressions.  A forced step maps
cosets one to one (s_i permutes W/W_A), so the fold takes a maximal run
of forced positions in one pass: each coset moves along the whole run
and lands in the new state once, with no merge.  Whether a step of the
run fixes a coset (an S step) depends only on the values at the
positions that A's blocks cover, {g - 1, g} (0-based) for g in A, and a
step that moves the coset only swaps two values, so it maps that block
content to a block content.  So the content a coset enters the run
with fixes the run's S steps, the composite of its other swaps (one
translate table) and the defect shift.  The run is walked letter by
letter once per block content, and every other coset with that content
moves by one lookup and one translate.  At A = {} no step is S, and
every coset moves through one table.

The fold state is packed, and this module alone knows how.  A coset is a
`bytes` key holding one value per byte, so `sweep` takes n <= MAX_N =
255, and s_i u is `u.translate(T_i)` for a swap table built once per
call.  A histogram is one int: the count of defect d sits in field
d + offset, and each field is free + 1 bits wide, where free is the
number of free positions.  The counts of one step add
up to at most 2^free, so no field carries into the next.  The offset is
free as well: only a free position allows e = 0, the one choice that
lowers the defect, so no defect falls below -free.  A defect shift of
+-1 is a shift by one field, and merging two histograms is one addition.
`sweep` returns this state as it is, in a `SweepResult`: a read-only
mapping that hands out tuple cosets and {defect: count} dicts on demand.
`SweepResult.above` picks the interval's cosets out of the bytes keys,
gives each distinct packed histogram among them a small id and unpacks
each distinct one once: `worddata.decide` applies the failure rule to
those coefficients, and `certify` renders them, with the text of each
chunk of cosets from `coset_texts`.  Other modules hand these cosets on
and read them as sequences of ints; none builds or takes one apart.

The interval test behind `above` decides the lower half x < z of the
certificate's interval for all keys z at once (the upper half z <= w
holds for every endpoint of a reduced word's expansion, as the kernel's
docstring shows), and reads only the rank entries at the essential set
of x (`coxeter.essential_set`): Fulton (Flags, Schubert polynomials,
degeneracy loci, and determinantal formulas, Duke Math. J. 65 (1992),
Section 3) shows that the rank conditions r_z[i][j] <= r_x[i][j] at
those cells imply them at every cell, and the essential set of the
certificate's x = w_B has 10 cells where the full S_15 table has 196.
The keys are sorted and tested BRUHAT_CHUNK at a time, bit-sliced: a
chunk of N keys of n bytes is joined into one byte string, position a
of every key is the column blob[a::n], and `translate` maps a column to
one byte per key, 1 where the value is at most j.  Added up over the
positions a < i, these columns give one int per essential column j
whose byte k is r_z[i][j] for the k-th key z; no byte carries, as
r_z[i][j] < n.  At an essential cell (i, j), that int plus 127 -
r_x[i][j] in every byte holds r_z[i][j] - r_x[i][j] + 127 in byte k,
which reaches the guard bit 128 exactly when r_z[i][j] > r_x[i][j].  It
stays in 0..254, so no byte borrows or carries: at any cell both ranks
lie between max(0, i + j - n) and min(i, j), which differ by at most
n // 2 <= 127, since every key has n <= MAX_N entries.  OR-ing the guard
bits over the cells flags every z with x </= z, `itertools.compress`
keeps the others in sorted order, and z = x, which the entries at the
essential set cannot tell from a z above x, is found by bisection and
dropped.  A chunk bounds the ints and the joined string to N * n bytes
each, whatever the number of keys.

The slow references the fold is tested against, a depth-first walk over
every subexpression, a decoration straight from the definitions and a
fold one letter at a time on unpacked histograms, live with the tests in
`tests/oracles.py`.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import (ItemsView, Iterable, Iterator, Mapping,
                             Sequence)
from itertools import compress, count, groupby
from operator import itemgetter

from . import coxeter
from .coxeter import Permutation

#: the largest n whose cosets keep one value per byte: `sweep` takes no
#: larger n, so no key of a fold, and no x that `SweepResult.above`
#: accepts, has more entries
MAX_N = 255

# Most cosets one fold step may reach, in `certify` and in every
# Bott-Samelson character (`bs`, `pair`, `perverse-check`, in H or in M).
# A forced run keeps the number of cosets, so only a free step can pass
# it.
# The synthetic GL15 certificate words peak near 155,000 cosets.  On the
# benchmark's seed-7 word (n = 15, 153,421 cosets) tracemalloc measured
# 220 bytes per coset of the returned packed state, and a peak of 348 per
# final coset while a step (or a forced run) holds its state before and
# after: about 0.4 GB at the budget for GL15-shaped words.  A forced
# run's memo adds one entry per block content it meets, each with its own
# 256-byte table: at most 312 entries (142 KB by getsizeof) on that word
# and 477 (217 KB) on `gl15-reconstructed`, whose 753,485 cosets took
# 241 bytes each packed, 377 at the peak, and whose `certify` run peaked
# at 321 MB RSS.  The interval test then holds two lists of the cosets
# and one chunk, 14.1 MB (13.5 MiB) at its peak there by tracemalloc.
# `SweepResult.above`'s ids add one pointer per interval coset, a list
# of 6.7 MB beside the interval's own 6.7 MB, so they stay below that
# peak.
# Memory per coset grows with the free positions: `bs --n 11` on the
# 55-letter w0 word, which has no forced run, peaked at 1,131 MB RSS when
# it hit the budget.
SUPPORT_BUDGET = 1_000_000

# the translate table that moves no value
_IDENTITY = bytes(range(256))

#: most keys the interval test packs into one set of big ints, which
#: bounds its memory whatever the number of keys
BRUHAT_CHUNK = 1 << 14

# the guard bit of a key's byte in the interval test
_GUARD = 0x80

# byte -> its hundreds, tens and ones digit in ASCII, a leading zero as
# byte 0, for `coset_texts`
_DIGITS = (bytes(48 + v // 100 if v >= 100 else 0 for v in range(256)),
           bytes(48 + v // 10 % 10 if v >= 10 else 0 for v in range(256)),
           bytes(48 + v % 10 for v in range(256)))


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
    of leaves.  A maximal run of forced positions is one pass over the
    state: its e = 1 steps are one to one, so each coset moves through
    the run's composite table for its block content and is written
    once.  A free step that reaches more than SUPPORT_BUDGET cosets
    raises ValueError.

    The state is packed as the module docstring describes, and returned
    packed, as a `SweepResult`, which unpacks a histogram when it is
    read.  The step is the rule of `coxeter.coset_step` written out on
    packed cosets, since this is the hot loop; the test oracles step by
    `coxeter.coset_step` itself.
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
    coxeter.check_generators(word, n)
    coxeter.check_generators(A, n, "parabolic generator")
    forced = constraint.forced
    budget = SUPPORT_BUDGET
    free = m - len(forced)
    width = free + 1
    letters = {i: (bytes((i, i + 1)),
                   bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i))))
               for i in set(word)}
    # s_i fixes the coset of u (an S step) when the values i, i + 1 sit
    # side by side at 0-based positions a, a + 1 with s_(a+1) in A, that
    # is when u.find(bytes((i, i + 1))) is one of `starts`
    starts = frozenset(g - 1 for g in A)
    # the values at the positions that A's blocks cover decide every S
    # test of a forced run, and its swaps move them among themselves
    covered = sorted({p for g in A for p in (g - 1, g)})
    content = itemgetter(*covered) if covered else lambda u: None
    state = {bytes(range(1, n + 1)): 1 << free * width}
    for is_forced, run in groupby(range(m - 1, -1, -1), forced.__contains__):
        if is_forced:
            # e = 1 throughout, and each coset moves along the run one to
            # one; its block content fixes the run's composite swap table
            # and shift, found by walking the run once per content
            steps = [letters[word[j]] for j in run]
            out: dict[bytes, int] = {}
            memo = {}   # block content -> (table, shift)
            for u, h in state.items():
                key = content(u)
                hit = memo.get(key)
                if hit is None:
                    v, table, shift = u, _IDENTITY, 0
                    for pair, swap in steps:
                        if v.find(pair) in starts:
                            shift += width
                        else:
                            v = v.translate(swap)
                            table = table.translate(swap)
                    hit = memo[key] = table, shift
                table, shift = hit
                out[u.translate(table)] = h << shift
            state = out
            continue
        for j in run:
            pair, swap = letters[word[j]]
            out = {}
            get = out.get
            for u, h in state.items():
                if u.find(pair) in starts:   # S: +1 for e = 1, -1 for e = 0
                    out[u] = get(u, 0) + (h << width) + (h >> width)
                else:   # s_i u > u in the bytes order iff the step is U
                    v = u.translate(swap)
                    out[v] = get(v, 0) + h
                    out[u] = get(u, 0) + (
                        h << width if v > u else h >> width)
                if len(out) > budget:
                    raise ValueError(f"subexpression fold support exceeds "
                                     f"the budget of {budget} cosets")
            state = out
    return SweepResult(state, width)


def _key(z) -> bytes | None:
    """The packed key of a tuple coset, or None for any other key."""
    if isinstance(z, tuple):
        try:
            return bytes(z)
        except (TypeError, ValueError):   # not a coset of n <= MAX_N
            pass
    return None


class SweepResult(Mapping):
    """The packed state of a finished fold, read as endpoint -> defect ->
    count: `packed` maps each endpoint coset, as bytes, to its packed
    histogram, whose fields are `width` bits wide.  Keys are handed out
    as tuple cosets and values as {defect: count} dicts in increasing
    defect order, unpacked on demand, so a result compares equal to the
    dict of its items.  `above` reads the endpoints above a coset in
    bulk and unpacks each distinct histogram among them once; no other
    module reads `packed` or `width`."""

    __slots__ = ("packed", "width")

    def __init__(self, packed: dict[bytes, int], width: int):
        self.packed = packed
        self.width = width

    def above(self, x: Permutation) -> tuple[list[bytes], list[int],
                                             list[dict[int, int]]]:
        """The endpoints z with x < z in Bruhat order, as sorted bytes
        (`_bruhat_above` on the packed keys); one histogram id per
        endpoint, aligned with them; and the distinct histograms of
        those endpoints as {defect: count} dicts, in first-seen order,
        which the ids index.  An x whose length is not the keys' n
        raises ValueError naming x.  Each packed histogram is hashed
        once, as it gets its id, and each distinct one is unpacked
        once."""
        inside = _bruhat_above(x, self.packed)
        ids = defaultdict(count().__next__)
        hist_ids = list(map(ids.__getitem__,
                            map(self.packed.__getitem__, inside)))
        return inside, hist_ids, list(_unpack(ids, self.width))

    def total(self) -> dict[int, int]:
        """Counts by defect over every endpoint: one unpack of the sum of
        the packed histograms.  The sum carries into no field, since a
        field counts at most the 2^free leaves and 2^free < 2^width."""
        return next(_unpack((sum(self.packed.values()),), self.width))

    def __getitem__(self, z: Permutation) -> dict[int, int]:
        h = self.packed.get(_key(z))
        if h is None:
            raise KeyError(z)
        return next(_unpack((h,), self.width))

    def __iter__(self) -> Iterator[Permutation]:
        return map(tuple, self.packed)

    def __len__(self) -> int:
        return len(self.packed)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"SweepResult({dict(self.items())!r})"


class _Items(ItemsView):
    """The items of a `SweepResult`, unpacked in one pass over its packed
    state with no key lookup per item: every Bott-Samelson character reads
    all of them."""

    __slots__ = ()

    def __iter__(self):
        data = self._mapping
        return zip(map(tuple, data.packed),
                   _unpack(data.packed.values(), data.width))


def _unpack(hs: Iterable[int], width: int) -> Iterator[dict[int, int]]:
    """Each packed histogram of `hs` as {defect: count}, in increasing
    defect order; the offset of defect 0 is width - 1 fields, the free
    count."""
    mask = (1 << width) - 1
    for h in hs:
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
        yield hist


def _bruhat_above(x: Permutation, cosets: Iterable[bytes]) -> list[bytes]:
    """The cosets z among `cosets`, a fold's keys, with x < z in Bruhat
    order, sorted.  Every key has the same n entries, at most MAX_N,
    since `sweep` made it; an x of another length raises ValueError
    naming x.

    x <= z iff r_z[i][j] <= r_x[i][j] at every cell of the essential set
    of x (Fulton 1992), and the cells are tested on BRUHAT_CHUNK keys at
    once, one byte each, as the module docstring describes; z = x, which
    passes, is then found by bisection and dropped.

    On the endpoints of a fold over a reduced word, whose element has
    minimal coset representative w, the result is the certificate's
    whole interval x < z <= w: every endpoint z is a subexpression
    product, which lies below the word's element in Bruhat order when
    the word is reduced (the subword property), and taking the minimal
    coset representative preserves the order (Bjorner-Brenti, Thm 2.2.2
    and Prop 2.5.1), so z <= w.  A word that is not reduced can have
    endpoints above w, which this test would count as inside: check
    reducedness first, as the `word-reduced` check of
    `worddata.validate_word_data` does.

    >>> _bruhat_above((2, 1, 3), [bytes((3, 2, 1)), bytes((1, 3, 2))])
    [b'\\x03\\x02\\x01']
    """
    keys = sorted(cosets)
    if keys and len(keys[0]) != len(x):
        raise ValueError(f"x {x!r} has {len(x)} entries, "
                         f"not n = {len(keys[0])}")
    x = tuple(x)
    n = len(x)
    rx = coxeter.rank_table(x)
    cells: dict[int, list] = {}   # row i -> [(j, _GUARD - 1 - r_x[i][j])]
    last: dict[int, int] = {}     # column j -> its last row
    for i, j in coxeter.essential_set(x):
        cells.setdefault(i, []).append((j, _GUARD - 1 - rx[i][j]))
        last[j] = i
    below = {j: bytes(v <= j for v in range(256)) for j in last}
    reads = [[(j, below[j]) for j in last if last[j] > a]
             for a in range(max(cells, default=0))]
    from_bytes = int.from_bytes
    out = []
    for k in range(0, len(keys), BRUHAT_CHUNK):
        chunk = keys[k:k + BRUHAT_CHUNK]
        blob = b"".join(chunk)
        ones = from_bytes(b"\1" * len(chunk), "little")
        guard = ones * _GUARD
        # column j -> r_z[a + 1][j] of every key, one byte each
        counts = dict.fromkeys(last, 0)
        flags = 0
        for a, read in enumerate(reads):
            column = blob[a::n]
            for j, table in read:
                counts[j] += from_bytes(column.translate(table), "little")
            for j, offset in cells.get(a + 1, ()):
                flags |= (counts[j] + offset * ones) & guard
        out += compress(chunk, (flags ^ guard).to_bytes(len(chunk), "little"))
    same = bytes(x)
    del out[bisect_left(out, same):bisect_right(out, same)]
    return out


def coset_texts(cosets: list[bytes], n: int, sep: str) -> list[str]:
    """`sep.join(map(str, z))` for each coset z of `cosets`, a fold's
    keys of n values each, from C-level passes over the joined cosets:
    each value takes four bytes of one buffer, its hundreds, tens and
    ones digits (`_DIGITS`) and then "," (";" after a coset's last
    value); the leading zeros are deleted, and the text is cut at the
    ";"s."""
    blob = b"".join(cosets)
    out = bytearray(4 * len(blob))
    for k, table in enumerate(_DIGITS):
        out[k::4] = blob.translate(table)
    out[3::4] = b"," * len(blob)
    out[4 * n - 1::4 * n] = b";" * len(cosets)
    text = out.translate(None, b"\0").decode("ascii")
    return text.replace(",", sep).split(";")[:-1]


def defect_histogram(word: Sequence[int], n: int, parabolic,
                     constraint: EnumConstraint | None = None,
                     target: Permutation | None = None) -> dict[int, int]:
    """Exact counts of subexpressions by parabolic defect, in increasing
    defect order, over every subexpression with e = 1 at the positions
    `constraint` forces (with no constraint, over all 2^m of them).

    With `target` set, only subexpressions whose endpoint coset has that
    minimal representative are counted; a target that is no minimal
    coset representative for A raises ValueError.

    >>> defect_histogram((2,), 3, {2})
    {-1: 1, 1: 1}
    """
    data = sweep(word, n, parabolic, constraint)
    if target is not None:
        return data.get(coxeter.coset_key(target, n, parabolic), {})
    return data.total()
