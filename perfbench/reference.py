"""Reference computations that share no code with heckekit.

`constrained_fold` is the certificate's Deodhar expansion computed as a
right-to-left fold of the b_s action on the spherical module: each letter
maps m_u to

    U: m_{su} + v m_u,    D: m_{su} + v^-1 m_u,    S: (v + v^-1) m_u,

and at a forced position only the e = 1 half (m_{su}, m_{su}, v m_u) is
kept.  Cosets are minimal representatives stored as bytes, so s_i u is a
byte translation.  `bruhat_between` filters cosets by rank-matrix dominance
with NumPy, and `demazure_vector` evaluates erasure vectors by a closed
form for divided differences of monomials.
"""
from __future__ import annotations

import re

import numpy as np

# erase-one-operator vector of paper-GL15 as recorded in the README
README_VECTOR = [-2, -2, 0, -2, -2, 0, -2, -2, 0, -2, 0, 0]


def _swap_table(i: int) -> bytes:
    table = bytearray(range(256))
    table[i], table[i + 1] = i + 1, i
    return bytes(table)


def constrained_fold(word, n: int, A, forced) -> dict[bytes, dict[int, int]]:
    """coset -> {defect: count} over all allowed subexpressions.

    `forced` is a set of 0-based positions whose bit is fixed to 1.
    """
    A = frozenset(A)
    state: dict[bytes, dict[int, int]] = {bytes(range(1, n + 1)): {0: 1}}
    for pos in range(len(word) - 1, -1, -1):
        i = word[pos]
        table = _swap_table(i)
        only_one = pos in forced
        out: dict[bytes, dict[int, int]] = {}

        def add(key, hist, shift):
            slot = out.get(key)
            if slot is None:
                out[key] = slot = {}
            for d, c in hist.items():
                d += shift
                slot[d] = slot.get(d, 0) + c

        for u, hist in state.items():
            a, b = u.index(i), u.index(i + 1)
            if a > b:        # D
                add(u.translate(table), hist, 0)
                if not only_one:
                    add(u, hist, -1)
            elif b == a + 1 and b in A:   # S: positions a+1, a+2 swap in A
                add(u, hist, +1)
                if not only_one:
                    add(u, hist, -1)
            else:            # U
                add(u.translate(table), hist, 0)
                if not only_one:
                    add(u, hist, +1)
        state = out
    return state


def rank_tables(perms: np.ndarray) -> np.ndarray:
    """r[k, i, j] = #{a <= i : p_k(a) <= j} for i, j in 1..n-1."""
    n = perms.shape[1]
    le = perms[:, :, None] <= np.arange(1, n + 1)[None, None, :]
    return np.cumsum(le, axis=1, dtype=np.int8)[:, :-1, :-1]


def bruhat_between(cosets: list[bytes], x: bytes, w: bytes,
                   chunk: int = 50_000) -> list[bool]:
    """For each z: x < z <= w in Bruhat order (rank-matrix dominance)."""
    n = len(x)
    rx = rank_tables(np.frombuffer(x, dtype=np.uint8)[None, :])[0]
    rw = rank_tables(np.frombuffer(w, dtype=np.uint8)[None, :])[0]
    out: list[bool] = []
    for start in range(0, len(cosets), chunk):
        part = cosets[start:start + chunk]
        arr = np.frombuffer(b"".join(part), dtype=np.uint8).reshape(-1, n)
        rz = rank_tables(arr)
        above_x = (rx[None] >= rz).all(axis=(1, 2))
        below_w = (rz >= rw[None]).all(axis=(1, 2))
        out.extend((above_x & below_w).tolist())
    return [ok and z != x for ok, z in zip(out, cosets)]


def _pmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _divided_difference(f: dict, i: int) -> dict:
    """(f - s_i f) / (x_{i+1} - x_i), monomial by monomial.

    For x_i^a x_{i+1}^b with d = |a - b| and l = min(a, b) the quotient is
    sign * (x_i x_{i+1})^l * sum_{k<d} x_i^(d-1-k) x_{i+1}^k, with sign -1
    when a > b: a closed form, not a division.
    """
    out: dict = {}
    for e, c in f.items():
        a, b = e[i - 1], e[i]
        if a == b:
            continue
        sign = -1 if a > b else 1
        lo, d = min(a, b), abs(a - b)
        for k in range(d):
            q = list(e)
            q[i - 1], q[i] = lo + d - 1 - k, lo + k
            q = tuple(q)
            out[q] = out.get(q, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _parse_demazure(text: str):
    """Prefix text (`Di`, `ai^k`, `xi`, integers, `poly * ( ... )`) to a
    chain of ("D", i, child) | ("M", poly, child) | ("C", poly) nodes."""
    tokens = re.findall(r"D\d+|[ax]\d+(?:\^\d+)?|-?\d+|[()*]", text)
    nvars = max([int(t[1:].partition("^")[0]) + (t[0] != "x")
                 for t in tokens if t[0] in "Dax"] or [1])

    def mono(idx: int, coeff: int = 1) -> dict:
        e = [0] * nvars
        if idx:
            e[idx - 1] = 1
        return {tuple(e): coeff}

    def factor(tok: str) -> dict:
        if tok[0] not in "ax":
            return mono(0, int(tok))
        base, _, power = tok.partition("^")
        k = int(base[1:])
        val = mono(k) if base[0] == "x" else {**mono(k + 1), **mono(k, -1)}
        out = mono(0)
        for _ in range(int(power or 1)):
            out = _pmul(out, val)
        return out

    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok[0] == "D":
            return ("D", int(tok[1:]), node())
        if tok == "(":
            inner = node()
            if tokens[pos] != ")":
                raise ValueError("missing closing parenthesis")
            pos += 1
            return inner
        poly = factor(tok)
        while (pos + 1 < len(tokens) and tokens[pos] == "*"
               and tokens[pos + 1][0] not in "D("):
            poly = _pmul(poly, factor(tokens[pos + 1]))
            pos += 2
        if pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            return ("M", poly, node())
        return ("C", poly)

    return node(), nvars


def demazure_eval(text: str, erase: int | None = None) -> dict:
    """{exponent vector: coefficient} of the expression's value, with the
    `erase`-th operator (prefix order, 1-based) acting as the identity."""
    tree, _ = _parse_demazure(text)
    ops = []
    t = tree
    while t[0] != "C":
        if t[0] == "D":
            ops.append(t)
        t = t[2]
    erased = ops[erase - 1] if erase else None

    def evaluate(t) -> dict:
        if t[0] == "C":
            return t[1]
        if t[0] == "M":
            return _pmul(t[1], evaluate(t[2]))
        val = evaluate(t[2])
        return val if t is erased else _divided_difference(val, t[1])

    return evaluate(tree)


def demazure_vector(text: str) -> list[int]:
    """Erase-one-operator vector; ArithmeticError if a value is not a
    constant."""
    entries = []
    for k in range(1, text.count("D") + 1):
        val = demazure_eval(text, k)
        if any(sum(e) for e in val):
            raise ArithmeticError("erasure value is not a constant")
        entries.append(sum(val.values()))
    return entries
