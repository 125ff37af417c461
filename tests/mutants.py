"""A recorded mutation run for the certificate path.

Run from the root of a checkout as

    python tests/mutants.py [INDEX ...]

Each entry of MUTANTS is (module, exact snippet, replacement, reason):
the snippet occurs exactly once in `src/heckekit/<module>.py`
(`tests/test_mutants.py` checks this, so a change that moves mutated code
has to move its entry too), and the reason says what the mutant breaks,
or, for an equivalent mutant, why no test can kill it.  For each entry
the script copies `src/` to a temporary directory, applies the
replacement, and runs SUBSET against the copy in one pytest subprocess
with -x; a failing run kills the mutant.  The unmutated copy runs first
and must pass.  Mutants run one at a time.  Indices on the command line
pick entries by their position in MUTANTS, from 0.  The result is JSON
on stdout: per mutant, killed or survived and the seconds taken, and the
kill count.  pytest does not collect this file as a test module.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the fast tests that cover the certificate path
SUBSET = ["tests/test_cli.py", "tests/test_subexpr.py",
          "tests/test_worddata.py", "tests/test_demazure.py", "-k",
          "certify or decide or test_subexpr.py or test_worddata.py "
          "or test_demazure.py"]

MUTANTS = [
    ("subexpr", "if u.find(pair) in starts:   # S",
     "if u.find(pair) - 1 in starts:   # S",
     "a free step reads the S test one position off"),
    ("subexpr", "out[u] = get(u, 0) + (h << width) + (h >> width)",
     "out[u] = get(u, 0) + (h << width) + h",
     "an S step at e = 0 keeps the defect instead of lowering it"),
    ("subexpr", "h << width if v > u else h >> width",
     "h << width if v < u else h >> width",
     "a U step and a D step at e = 0 trade their shifts"),
    ("subexpr", "out[v] = get(v, 0) + h",
     "out[v] = get(v, 0) + (h << width)",
     "a U or D step at e = 1 raises the defect"),
    ("subexpr", "shift += width", "shift += 0",
     "an S step in a forced run does not raise the defect"),
    ("subexpr", "starts = frozenset(g - 1 for g in A)",
     "starts = frozenset(g for g in A)",
     "both S tests read the wrong side of each generator of A"),
    ("subexpr", "return (1 << (self.width - 1) * self.width) - 1",
     "return (1 << (self.width - 2) * self.width) - 1",
     "the negative mask misses the field of defect -1"),
    ("coxeter", "    keys.sort()\n", "",
     "the interval's cosets come in fold order, not sorted"),
    ("coxeter", "(j, _GUARD - 1 - rx[i][j])", "(j, _GUARD - rx[i][j])",
     "the offset is one too high, so a z with r_z = r_x at an essential "
     "cell reads as not above x"),
    ("coxeter",
     "    del out[bisect_left(out, same):bisect_right(out, same)]\n", "",
     "x itself counts as a coset of the interval"),
    ("demazure", "    under.reverse()\n", "",
     "the erasures are paired with the operators in reverse order"),
    ("demazure", "rank_over_p=int(any(e % p for e in entries))",
     "rank_over_p=int(any(e % 2 for e in entries))",
     "the F_p rank is taken mod 2 whatever p is"),
    ("demazure", "a, b, c = b, a, -c", "a, b, c = b, a, c",
     "del_i keeps the sign of a monomial with more x_i than x_{i+1}"),
    ("demazure", "(1 << hi) - (1 << lo))", "(1 << hi))",
     "the keys of del_i step up in x_{i+1} without giving up an x_i"),
    ("demazure", "mask = self._mask = (1 << width) - 1",
     "mask = self._mask = (1 << width + 1) - 1",
     "the field mask reads one bit of the next variable's exponent"),
    ("demazure", "start = (m & clear) + ((b - 1) << lo) + (a << hi)",
     "start = (m & clear) + (b << lo) + (a << hi)",
     "the progression of del_i starts at x_i^b, one degree too high"),
    ("worddata", "reduced = coxeter.is_reduced(wd.word, wd.n)",
     "reduced = True",
     "a word that is not reduced passes validation"),
    ("worddata", "if not rep.complete:   # with a word",
     "if False:   # with a word",
     "word data that fails validation is decided"),
    ("worddata",
     "self.rank_ok = form.rank_over_Q == 1 and form.rank_over_p == 0",
     "self.rank_ok = form.rank_over_Q == 1",
     "the rank test ignores the rank over F_p"),
    ("worddata",
     "self.rank_ok = form.rank_over_Q == 1 and form.rank_over_p == 0",
     "self.rank_ok = form.rank_over_Q <= 1 and form.rank_over_p == 0",
     "a zero erasure row passes the rank test"),
    ("worddata",
     "self.rank_ok = form.rank_over_Q == 1 and form.rank_over_p == 0",
     "self.rank_ok = form.rank_over_Q >= 1 and form.rank_over_p == 0",
     "equivalent: the erasures form one row, whose rank over Q is 0 or 1"),
    ("worddata", "fails = out.fails = data.negative_mask.__and__",
     "fails = out.fails = data.negative_mask.__lt__",
     "the failure rule compares a histogram with the mask instead of "
     "masking it"),
    ("worddata", 'return self.rank_ok and self.status == "ok"',
     'return self.rank_ok or self.status == "ok"',
     "the verdict needs only one of the two conditions"),
    ("worddata", "map(fails, map(", "map(bool, map(",
     "every coset of the interval counts as a failure"),
    ("worddata", 'out.status = "failed" if out.failures else "ok"',
     'out.status = "ok"',
     "an interval with failures has the status ok"),
    ("subexpr", "covered = sorted({p for g in A for p in (g - 1, g)})",
     "covered = sorted({p for g in A for p in (g - 1, g)})[1:]",
     "a forced run's memo key misses a block position, so cosets that "
     "differ there share a composite table"),
    ("subexpr", "table = table.translate(swap)",
     "table = swap.translate(table)",
     "a forced run composes its swaps in reverse order"),
    ("coxeter", "_GUARD = 0x80", "_GUARD = 0x40",
     "7-bit fields, whose offset differences wrap once n reaches 128"),
    ("coxeter", "(flags ^ guard).to_bytes", "flags.to_bytes",
     "the interval keeps the cosets that fail the rank test"),
]


def source(module: str, root: Path = ROOT) -> str:
    return (root / "src" / "heckekit" / f"{module}.py").read_text()


def _run(src: Path) -> tuple[bool, float]:
    """Whether SUBSET passes against the package under `src`, and the
    seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *SUBSET], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0, round(time.perf_counter() - t0, 1)


def main(picks: list[str]) -> int:
    chosen = [int(k) for k in picks] or range(len(MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        passed, seconds = _run(src)
        if not passed:
            print(json.dumps({"error": "the unmutated source fails SUBSET",
                              "seconds": seconds}))
            return 1
        results = []
        for k in chosen:
            module, snippet, replacement, reason = MUTANTS[k]
            path = src / "heckekit" / f"{module}.py"
            original = path.read_text()
            assert original.count(snippet) == 1, (k, snippet)
            path.write_text(original.replace(snippet, replacement))
            try:
                survived, seconds = _run(src)
            finally:
                path.write_text(original)
            results.append({"mutant": k, "module": module, "reason": reason,
                            "result": "survived" if survived else "killed",
                            "seconds": seconds})
    killed = sum(r["result"] == "killed" for r in results)
    print(json.dumps({"mutants": results, "killed": killed,
                      "total": len(results)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
