"""A recorded mutation run for the certificate path and the module
actions.

Run from the root of a checkout as

    python tests/mutants.py [INDEX ...]

Each entry of MUTANTS is (module, exact snippet, replacement, reason):
the snippet occurs exactly once in `src/heckekit/<module>.py`
(`tests/test_mutants.py` checks this, so a change that moves mutated code
has to move its entry too), and the reason says what the mutant breaks,
or, for an equivalent mutant, why no test can kill it.  For each entry
the script copies `src/` to a temporary directory, applies the
replacement, and runs the mutated module's subset of SUBSETS against the
copy in one pytest subprocess with -x: the module actions of `hecke` and
`spherical` against their own tests and the step-row test of
`test_term_sums`, every other module against the certificate path's.  A
failing run kills the mutant, and so does one that outlasts
TIMEOUT_FACTOR times its subset's unmutated run (plus TIMEOUT_SLACK
seconds): a mutant that breaks a recursion's termination ends there,
reported as "timeout".  The unmutated copy runs each subset first and
must pass.  Mutants run one at a time.  Indices on the command line pick
entries by their position in MUTANTS, from 0.  The result is JSON on
stdout: per mutant, its subset, killed, survived or timeout and the
seconds taken, and the kill count (timeouts count as killed).  pytest
does not collect this file as a test module.
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

#: the fast tests that cover the certificate path, and those of the
#: module actions
SUBSETS = {
    "certify": ["tests/test_cli.py", "tests/test_subexpr.py",
                "tests/test_worddata.py", "tests/test_demazure.py", "-k",
                "certify or decide or test_subexpr.py or test_worddata.py "
                "or test_demazure.py"],
    "modules": ["tests/test_hecke.py", "tests/test_spherical.py",
                "tests/test_term_sums.py::"
                "test_the_h_s_rows_are_the_b_s_row_minus_their_constant"],
}

#: the modules whose mutants run the "modules" subset
MODULE_ACTIONS = {"hecke", "spherical"}

TIMEOUT_FACTOR, TIMEOUT_SLACK = 3, 30

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
    ("subexpr", "ids = defaultdict(count().__next__)",
     "ids = defaultdict(count(1).__next__)",
     "the histogram ids start at 1, so each endpoint of the interval "
     "reads the next distinct histogram"),
    ("subexpr", "keys = sorted(cosets)", "keys = list(cosets)",
     "the interval's cosets come in fold order, not sorted"),
    ("subexpr", "(j, _GUARD - 1 - rx[i][j])", "(j, _GUARD - rx[i][j])",
     "the offset is one too high, so a z with r_z = r_x at an essential "
     "cell reads as not above x"),
    ("subexpr",
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
    ("worddata", "min(h) < 0", "max(h) < 0",
     "the failure rule reads the highest defect of a histogram instead "
     "of the lowest"),
    ("worddata", 'return self.rank_ok and self.status == "ok"',
     'return self.rank_ok or self.status == "ok"',
     "the verdict needs only one of the two conditions"),
    ("worddata", "[min(h) < 0 for h in out.histograms]",
     "[bool(h) for h in out.histograms]",
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
    ("subexpr", "_GUARD = 0x80", "_GUARD = 0x40",
     "7-bit fields, whose offset differences wrap once n reaches 128"),
    ("subexpr", "(flags ^ guard).to_bytes", "flags.to_bytes",
     "the interval keeps the cosets that fail the rank test"),
    ("hecke", '_B_S = {"U": {1: 1}, "D": {-1: 1}, "S": {1: 1, -1: 1}}',
     '_B_S = {"U": {1: 1}, "D": {-1: 1}, "S": {1: 1}}',
     "b_s leaves v, not v + v^-1, on a coset that s fixes"),
    ("hecke", '_B_S = {"U": {1: 1}, "D": {-1: 1}, "S": {1: 1, -1: 1}}',
     '_B_S = {"U": {-1: 1}, "D": {1: 1}, "S": {1: 1, -1: 1}}',
     "b_s trades its rows for a step up and a step down"),
    ("hecke", '_H_S = {"U": None, "D": {-1: 1, 1: -1}, "S": {-1: 1}}',
     '_H_S = {"U": None, "D": {-1: -1, 1: 1}, "S": {-1: 1}}',
     "h_s leaves v - v^-1, not v^-1 - v, on a step down"),
    ("hecke", '_H_S_INV = {"U": {1: 1, -1: -1}, "D": None, "S": {1: 1}}',
     '_H_S_INV = {"U": {1: 1, -1: -1}, "D": None, "S": {-1: 1}}',
     "h_s^-1 leaves v^-1, not v, on a coset that s fixes, which only "
     "the row test on spherical modules reaches: `inverse_h` reads the "
     "row in H alone, where s fixes no coset"),
    ("hecke", '_H_S_INV = {"U": {1: 1, -1: -1}, "D": None, "S": {1: 1}}',
     '_H_S_INV = {"U": {1: -1, -1: 1}, "D": None, "S": {1: 1}}',
     "h_s^-1 leaves v^-1 - v, not v - v^-1, on a step up"),
    ("spherical", "* v_power(-top)", "* v_power(top)",
     "the spherical form is shifted by v^len(w_A), not v^-len(w_A)"),
    ("worddata",
     "ok = forced_count == coxeter.length(wB) and product == wB",
     "ok = product == wB",
     "the forced-count check no longer counts the letters of B"),
    ("worddata",
     "ok = forced_count == coxeter.length(wB) and product == wB",
     "ok = forced_count == coxeter.length(wB)",
     "letters of B that multiply to less than w_B pass the forced-count "
     "check"),
    ("demazure", '"value_degrees": [0] if entry else [],',
     '"value_degrees": [0],',
     "a zero erasure renders degree 0 in the degree audit"),
    ("demazure", "_add_product(out, 0, val, step)",
     "_add_product(out, 0, val, {0: 1})",
     "a factor step multiplies by 1, dropping the factor"),
    ("subexpr", "list(_unpack(ids, self.width))",
     "list(_unpack(ids, self.width))[::-1]",
     "the distinct histograms are listed in reverse, so a coset's id "
     "names another coset's histogram"),
    ("cli", '"ok": not bad', '"ok": bad',
     "each entry of the interval renders the opposite of its failure "
     "flag"),
    ("subexpr", "out[4 * n - 1::4 * n]", "out[4 * n + 3::4 * n]",
     "the end marker of each coset sits one value late"),
    ("subexpr",
     "bytes(48 + v // 100 if v >= 100 else 0 for v in range(256))",
     "bytes(256)",
     "a value of three digits loses its hundreds digit"),
    ("cli", ")[:-len(comma)]", ")[:-len(comma) - 1]",
     "each chunk of entries loses the last character of its last entry"),
    ("worddata", "min(h) < 0", "min(h) <= 0",
     "a histogram whose lowest defect is 0 fails too, so a coefficient "
     "in Z[v] with a constant term counts as a failure"),
    ("worddata", "compress(count(), map(", "compress(count(1), map(",
     "each failure's position is one late, so it names the coset after "
     "the failing one"),
    ("subexpr", "if keys and len(keys[0]) != len(x):", "if False:",
     "an x of another length than the fold's keys reaches the interval "
     "test, and is read as if it had n entries"),
]


def source(module: str, root: Path = ROOT) -> str:
    return (root / "src" / "heckekit" / f"{module}.py").read_text()


def subset_of(module: str) -> str:
    return "modules" if module in MODULE_ACTIONS else "certify"


def _run(src: Path, subset: str, timeout: float | None = None
         ) -> tuple[str, float]:
    """"passed", "failed" or "timeout": SUBSETS[subset] against the
    package under `src`, and the seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *SUBSETS[subset]], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
        outcome = "passed" if proc.returncode == 0 else "failed"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    return outcome, round(time.perf_counter() - t0, 1)


def main(picks: list[str]) -> int:
    chosen = [int(k) for k in picks] or range(len(MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        limits = {}
        for subset in sorted({subset_of(MUTANTS[k][0]) for k in chosen}):
            outcome, seconds = _run(src, subset)
            if outcome != "passed":
                print(json.dumps({"error": "the unmutated source fails "
                                  f"the {subset} subset",
                                  "seconds": seconds}))
                return 1
            limits[subset] = TIMEOUT_FACTOR * seconds + TIMEOUT_SLACK
        results = []
        for k in chosen:
            module, snippet, replacement, reason = MUTANTS[k]
            subset = subset_of(module)
            path = src / "heckekit" / f"{module}.py"
            original = path.read_text()
            assert original.count(snippet) == 1, (k, snippet)
            path.write_text(original.replace(snippet, replacement))
            try:
                outcome, seconds = _run(src, subset, limits[subset])
            finally:
                path.write_text(original)
            result = {"passed": "survived", "failed": "killed"}.get(
                outcome, outcome)
            results.append({"mutant": k, "module": module, "subset": subset,
                            "reason": reason, "result": result,
                            "seconds": seconds})
    killed = sum(r["result"] != "survived" for r in results)
    print(json.dumps({"mutants": results, "killed": killed,
                      "total": len(results)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
