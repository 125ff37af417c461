"""Seeded synthetic GL15-shaped word data.

SYNTHETIC: these words are NOT the paper's GL15 word, whose 78-letter
transcription does not exist in plain text.  They share everything that is
documented about it, so `certify` does the same amount of work:

- the documented 44-letter prefix (runs 1..14, 2..13, 4..12, 3..11);
- 78 letters, 12 of index <= 3 and eleven s_4 letters;
- B = {5..14} (the 55 forced letters) and A = {1, 2, 3, 4}, the largest
  subset of {1..4} allowed (fewest cosets, so the least memory);
- the B-letters, read in order, form the reduced word
  5..14, 5..13, ..., 5..6, 5 for w_B, so x = w_B is reached by the
  all-free-bits-zero subexpression and the interval [x, w] is not empty.

The 34 letters after the prefix interleave the rest of that w_B word
(5..10, 5..9, ..., 5) with six letters from {1, 2, 3} and seven s_4
letters, drawn from the seed and kept reduced letter by letter.
"""
from __future__ import annotations

import random

N = 15
B = tuple(range(5, 15))
PREFIX = (tuple(range(1, 15)) + tuple(range(2, 14)) + tuple(range(4, 13))
          + tuple(range(3, 12)))
# the rest of the reduced word 5..14, 5..13, ..., 5 for w_B
B_TAIL = tuple(t for top in range(10, 4, -1) for t in range(5, top + 1))
LENGTH = 78
LOW_LETTERS = 12
S4_LETTERS = 11

LABEL = "synthetic GL15-shaped word (not the paper's word)"


def _tail_counts() -> tuple[int, int]:
    low = LOW_LETTERS - sum(1 for t in PREFIX if t <= 3)
    s4 = S4_LETTERS - sum(1 for t in PREFIX if t == 4)
    return low, s4


def _extend(rng: random.Random, perm: list[int]) -> list[int] | None:
    """Append the 34 tail letters, keeping the word reduced, or give up."""
    low, s4 = _tail_counts()
    btail = list(B_TAIL)
    tail: list[int] = []
    while btail or low or s4:
        options = []
        if btail:
            options.append("B")
        if low:
            options.extend(("L",) * low)
        if s4:
            options.extend(("4",) * s4)
        rng.shuffle(options)
        for kind in options:
            if kind == "B":
                cands = [btail[0]]
            elif kind == "L":
                cands = [1, 2, 3]
                rng.shuffle(cands)
            else:
                cands = [4]
            # w * s_i is longer than w iff w(i) < w(i+1)
            i = next((i for i in cands if perm[i - 1] < perm[i]), None)
            if i is not None:
                break
        else:
            return None
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        tail.append(i)
        if kind == "B":
            btail.pop(0)
        elif kind == "L":
            low -= 1
        else:
            s4 -= 1
    return tail


def _permutation(word) -> list[int]:
    perm = list(range(1, N + 1))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def candidates(seed: int):
    """Word-data JSON (the `heckekit validate-word` format) for successive
    draws from one seed; only words whose element has no right descent in
    A = {1, 2, 3, 4} are kept, so that it is a minimal coset
    representative."""
    rng = random.Random(seed)
    while True:
        perm = _permutation(PREFIX)
        tail = _extend(rng, perm)
        if tail is None:
            continue
        if any(perm[i - 1] > perm[i] for i in range(1, 5)):
            continue
        yield {
            "_comment": [LABEL + f", seed {seed}"],
            "n": N,
            "word": list(PREFIX) + tail,
            "A": [1, 2, 3, 4],
            "B": list(B),
            "forced": "letters-in-B",
            "degree": -1,
            "word_prefix": list(PREFIX),
            "census": {
                "length": LENGTH,
                "free_positions": LOW_LETTERS + S4_LETTERS,
                "letters_index_le_3": LOW_LETTERS,
                "letters_index_4": S4_LETTERS,
            },
        }
