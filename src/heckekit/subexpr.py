"""
Decorated subexpressions of a word, with per-position constraints, and
their aggregation by endpoint coset and defect.

A subexpression of a word (s_{i_1}, ..., s_{i_m}) is a bit sequence
e_1 ... e_m.  Suffix products y_0 = id, y_j = s_{i_{m+1-j}}^{e_{m+1-j}} y_{j-1}
determine a decoration at every position: position j is decorated U, D or S
according to whether s_{i_j} raises, lowers or fixes the coset of y_{m-j}
in W/W_A.  The parabolic defect of the subexpression is

    #{j : (d_j, e_j) = (U, 0) or (S, 1)} - #{j : (d_j, e_j) = (D, 0) or (S, 0)}.

`sweep` computes endpoint -> defect -> count as a right-to-left fold over
word positions whose state maps minimal coset representatives to defect
histograms.  Each step is the b_s action on the spherical module, cut down
to the allowed bits, so the cost follows the number of cosets reached
rather than the 2^(free positions) subexpressions.

The fold state is packed.  A coset is a `bytes` key holding one value per
byte, so `sweep` takes n <= 255, and s_i u is `u.translate(T_i)` for a
swap table built once per call.  A histogram is one int: the count of
defect d sits in field d + offset, and each field is free + 1 bits wide,
where free is the number of positions allowing both bits.  The counts of
one step add up to at most 2^free, so no field carries into the next.
The offset is the number of positions allowing e = 0; no defect falls
below minus that number.  A defect shift of +-1 is a shift by one field,
and merging two histograms is one addition.

`iter_subexpressions` (a depth-first walk yielding one record per
subexpression) and `decorate` (one subexpression, straight from the
definitions) are the slow references the fold is tested against.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import coxeter
from .coxeter import Permutation, Word

SweepResult = dict[Permutation, dict[int, int]]

# Most cosets one fold step may reach.  The synthetic GL15 certificate
# words peak near 155,000 cosets.  Measured with tracemalloc on the
# benchmark's seed-7 word (n = 15, 153,421 cosets), the packed state takes
# about 220 bytes per coset and the unpacked result another 450 while both
# live, so the budget keeps the fold's own state under about 0.7 GB.
# `deodhar_expand` and the `certify` report come on top of that: a single
# `certify` run at 753,485 cosets (GL15-shaped word) peaked at 1.36 GB RSS.
SUPPORT_BUDGET = 1_000_000


class DecoratedSubexpression:
    __slots__ = ("bits", "decorations", "endpoint", "defect")

    def __init__(self, bits: tuple[int, ...], decorations: tuple[str, ...],
                 endpoint: Permutation, defect: int):
        self.bits = bits
        self.decorations = decorations
        self.endpoint = endpoint  # minimal rep of the product coset
        self.defect = defect

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecoratedSubexpression):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)


class EnumConstraint:
    """Per-position allowed bit sets: each slot is (0,), (1,) or (0, 1)."""

    __slots__ = ("slots",)

    def __init__(self, slots: Sequence[Sequence[int]]):
        cleaned = []
        for s in slots:
            t = tuple(sorted(set(s)))
            if t not in ((0,), (1,), (0, 1)):
                raise ValueError(f"invalid allowed-bit set {s!r}")
            cleaned.append(t)
        self.slots = tuple(cleaned)

    @classmethod
    def free(cls, m: int) -> "EnumConstraint":
        return cls(((0, 1),) * m)

    @classmethod
    def forced_letters(cls, word: Sequence[int], letters) -> "EnumConstraint":
        """Force e_i = 1 at every position whose letter lies in `letters`."""
        letters = frozenset(letters)
        return cls(tuple((1,) if t in letters else (0, 1) for t in word))

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, k: int) -> tuple[int, ...]:
        return self.slots[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, EnumConstraint) and self.slots == other.slots

    def free_positions(self) -> list[int]:
        """0-based positions with both bits allowed."""
        return [k for k, s in enumerate(self.slots) if len(s) == 2]

    def leaf_count(self) -> int:
        return 1 << len(self.free_positions())


def decorate(word: Sequence[int], bits: Sequence[int], n: int,
             parabolic) -> DecoratedSubexpression:
    """Decorate one subexpression, straight from the definitions.

    Keeps the full suffix products y_j (not just their cosets) and
    classifies each step through min_coset_rep, so it is an independent
    cross-check of the incremental coset-state rule used by the enumerator.
    """
    m = len(word)
    if len(bits) != m:
        raise ValueError(f"bit sequence length {len(bits)} != word length {m}")
    A = frozenset(parabolic)
    y = coxeter.identity(n)
    decorations = ["?"] * m
    defect = 0
    for j in range(m, 0, -1):  # y before this step is y_{m-j}
        i = word[j - 1]
        e = bits[j - 1]
        d = coxeter.classify_step(i, y, A)
        decorations[j - 1] = d
        if (d, e) in (("U", 0), ("S", 1)):
            defect += 1
        elif (d, e) in (("D", 0), ("S", 0)):
            defect -= 1
        if e:
            y = coxeter.apply_gen_left(i, y)
    endpoint = coxeter.min_coset_rep(y, A)
    return DecoratedSubexpression(tuple(bits), tuple(decorations), endpoint,
                                  defect)


def iter_subexpressions(word: Sequence[int], n: int, parabolic,
                        constraint: EnumConstraint | None = None,
                        ) -> Iterator[DecoratedSubexpression]:
    """Visit every allowed subexpression exactly once, depth first.

    Positions are processed from m down to 1 with branch 0 before branch 1,
    so e_1 varies fastest in the emitted sequence.  The coset state is a
    minimal coset representative updated in place along the DFS path.
    """
    m = len(word)
    if constraint is None:
        constraint = EnumConstraint.free(m)
    if len(constraint) != m:
        raise ValueError("constraint length != word length")
    A = frozenset(parabolic)
    u = list(range(1, n + 1))
    bits = [0] * m
    decorations = ["?"] * m
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for S_{n}")

    def walk(k: int, defect: int) -> Iterator[DecoratedSubexpression]:
        if k == m:
            yield DecoratedSubexpression(tuple(bits), tuple(decorations),
                                         tuple(u), defect)
            return
        j = m - 1 - k  # word position (0-based) handled at depth k
        i = word[j]
        a = u.index(i)
        b = u.index(i + 1)
        if a > b:
            d, swap = "D", True
        elif b == a + 1 and (a + 1) in A:
            d, swap = "S", False
        else:
            d, swap = "U", True
        decorations[j] = d
        for e in constraint[j]:
            bits[j] = e
            if e == 0:
                delta = 1 if d == "U" else -1
                yield from walk(k + 1, defect + delta)
            else:
                delta = 1 if d == "S" else 0
                if swap:
                    u[a], u[b] = u[b], u[a]
                yield from walk(k + 1, defect + delta)
                if swap:
                    u[a], u[b] = u[b], u[a]
        decorations[j] = "?"

    yield from walk(0, 0)


def sweep(word: Sequence[int], n: int, parabolic,
          constraint: EnumConstraint | None = None) -> SweepResult:
    """Aggregate endpoint -> defect -> count over all allowed subexpressions.

    A right-to-left fold over word positions.  The state maps each coset
    reached by the suffix subexpressions (as its minimal representative)
    to their defect histogram.  Letter s_i sends a U or D coset u to s_i u
    with shift 0 when e = 1 and keeps it with shift +1 (U) or -1 (D) when
    e = 0; an S coset stays with shift +1 (e = 1) or -1 (e = 0).  This is
    the b_s action on the spherical module, so the work grows with the
    number of cosets reached rather than with the number of leaves.  A
    step that reaches more than SUPPORT_BUDGET cosets raises ValueError.

    The state is packed as the module docstring describes, and unpacked
    into tuples and dicts once, at the end.
    """
    m = len(word)
    if constraint is None:
        constraint = EnumConstraint.free(m)
    if len(constraint) != m:
        raise ValueError("constraint length != word length")
    if n > 255:
        raise ValueError(f"n = {n} is above 255: the fold keeps each coset "
                         f"as one byte per value")
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for S_{n}")
    A = frozenset(parabolic)
    for i in sorted(A):
        if not 1 <= i <= n - 1:
            raise ValueError(
                f"parabolic generator {i} out of range for S_{n}")
    budget = SUPPORT_BUDGET
    width = len(constraint.free_positions()) + 1
    offset = sum(1 for slot in constraint.slots if 0 in slot)
    swaps = {i: bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i)))
             for i in set(word)}
    state = {bytes(range(1, n + 1)): 1 << offset * width}
    for j in range(m - 1, -1, -1):
        i = word[j]
        keep = 0 in constraint[j]   # e = 0 allowed
        move = 1 in constraint[j]   # e = 1 allowed
        swap = swaps[i]
        out: dict[bytes, int] = {}
        get = out.get
        for u, h in state.items():
            a = u.index(i)
            b = u.index(i + 1)
            s = b == a + 1 and b in A   # S: s_i u = u s_b with s_b in W_A
            if move:
                if s:
                    v, hv = u, h << width
                else:
                    v, hv = u.translate(swap), h
                out[v] = get(v, 0) + hv
                if len(out) > budget:
                    raise _over_budget(budget)
            if keep:   # +1 for U, -1 for D and S
                out[u] = get(u, 0) + (
                    h << width if a < b and not s else h >> width)
                if len(out) > budget:
                    raise _over_budget(budget)
        state = out
    return _unpack(state, width, offset)


def _over_budget(budget: int) -> ValueError:
    return ValueError(f"subexpression fold support exceeds the budget of "
                      f"{budget} cosets")


def _unpack(state: dict[bytes, int], width: int, offset: int) -> SweepResult:
    """The packed fold state as tuple cosets and {defect: count} dicts."""
    mask = (1 << width) - 1
    out: SweepResult = {}
    for u, h in state.items():
        hist = {}
        low = ((h & -h).bit_length() - 1) // width   # lowest nonzero field
        h >>= low * width
        d = low - offset
        while h:
            c = h & mask
            if c:
                hist[d] = c
            h >>= width
            d += 1
        out[tuple(u)] = hist
    return out


def defect_histogram(word: Sequence[int], n: int, parabolic,
                     constraint: EnumConstraint | None = None,
                     target: Permutation | None = None) -> dict[int, int]:
    """Exact counts of subexpressions by parabolic defect.

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
