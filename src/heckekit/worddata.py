"""
Word-data files for the certificate pipeline.

A word-data file is JSON with fields

    n        rank of the symmetric group S_n
    word     the expression as a list of 1-based generator indices,
             or null while a transcription is pending
    A        parabolic subset for the spherical module (list, or null)
    B        parabolic subset defining x = w_B (list); the positions of
             its letters are forced to 1 in the expansion
    forced   optional, and only "letters-in-B", the one forcing rule
    degree   the degree of the intersection form (the certificate uses -1)

plus optional "word_prefix" and "census" blocks used by the validator.
The GL15 word is defined by a string diagram with no plain-text source;
the shipped `gl15-partial` file records the documented prefix and census
facts (length 78, 23 free positions, 12 letters of index <= 3, eleven
s_4 letters) so that a hand transcription can be machine-checked before
it is trusted.  `gl15-reconstructed` is a complete word rebuilt from the
prefix, the census and the Demazure display, not a transcription.

`decide` decides the certificate on a Demazure expression and word data:
the rank test on the erasure row, the validation gate, the fold, the
interval test and the failure rule, each written once there.  It
returns a `Decision` record, which `cli.cmd_certify` only renders.
`demazure` is imported inside it, so `validate-word` does not load it.
"""
from __future__ import annotations

import json
import time
from importlib import resources
from itertools import compress, count
from pathlib import Path

from . import coxeter, subexpr
from .subexpr import EnumConstraint

#: census entries that `validate_word_data` compares with the word
CENSUS_FIELDS = ("length", "free_positions", "letters_index_le_3",
                 "letters_index_4")

BUILTIN_WORDS = {
    "gl15-partial": "gl15_word_partial.json",
    "gl15-reconstructed": "gl15_word_reconstructed.json",
    "demo-s4-fail": "demo_s4_interval_fail.json",
    "demo-s4-pass": "demo_s4_interval_pass.json",
}


class WordData:
    __slots__ = ("n", "word", "parabolic", "lower", "degree",
                 "word_prefix", "census", "source")

    def __init__(self, n: int, word: tuple[int, ...] | None,
                 parabolic: frozenset | None, lower: frozenset, degree: int,
                 word_prefix: tuple[int, ...] = (),
                 census: dict | None = None, source: str = "<memory>"):
        self.n = n
        self.word = word
        self.parabolic = parabolic    # the subset A
        self.lower = lower            # the subset B, with x = w_B
        self.degree = degree
        self.word_prefix = word_prefix
        self.census = census
        self.source = source

    def constraint(self) -> EnumConstraint:
        if self.word is None:
            raise ValueError("word data has no word")
        return EnumConstraint.forced_letters(self.word, self.lower)

    def x_element(self) -> coxeter.Permutation:
        return coxeter.longest_element(self.lower, self.n)


def load_word_data(path_or_name: str | Path) -> WordData:
    """Read and check word data; a file that does not decode, or is not
    JSON, is a ValueError that names the source, as a bad field is."""
    name = str(path_or_name)
    if name in BUILTIN_WORDS:
        path = resources.files("heckekit").joinpath("data",
                                                    BUILTIN_WORDS[name])
    else:
        path = Path(name)
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:   # UnicodeDecodeError, json.JSONDecodeError
        raise ValueError(f"word data {name}: {exc}") from None
    return parse_word_data(raw, name)


def _int(value, name: str) -> int:
    # bool is a subclass of int, but `true` is not a JSON integer
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _ints(value, name: str, lo: int | None = None,
          hi: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, each in lo..hi when bounds are given."""
    if not isinstance(value, list):
        raise ValueError(f'"{name}" must be a list of integers, got {value!r}')
    for k, v in enumerate(value):
        _int(v, f"{name}[{k}]")
        if lo is not None and not lo <= v <= hi:
            raise ValueError(f"{name}[{k}] = {v} is not in {lo}..{hi}")
    return tuple(value)


def parse_word_data(raw: dict, source: str = "<memory>") -> WordData:
    """Check and convert decoded JSON.  Integer fields must be JSON
    integers (not booleans, floats or strings) and list fields lists;
    every error names the field, e.g. `"n"`, `word[3]` or `"forced"`."""
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {raw!r}")
        if "n" not in raw:
            raise ValueError('missing field "n"')
        n = _int(raw["n"], '"n"')
        if n < 1:
            raise ValueError(f'"n" must be at least 1, got {n}')
        if n > subexpr.MAX_N:
            raise ValueError(f'"n" must be at most {subexpr.MAX_N}, got {n}')
        word = raw.get("word")
        if word is not None:
            word = _ints(word, "word", 1, n - 1)
        parabolic = raw.get("A")
        if parabolic is not None:
            parabolic = frozenset(_ints(parabolic, "A", 1, n - 1))
        lower = frozenset(_ints(raw.get("B", []), "B", 1, n - 1))
        if raw.get("forced", "letters-in-B") != "letters-in-B":
            raise ValueError(f'"forced" must be "letters-in-B", '
                             f'got {raw["forced"]!r}')
        degree = _int(raw.get("degree", -1), '"degree"')
        word_prefix = _ints(raw.get("word_prefix", []), "word_prefix")
        census = raw.get("census")
        if census is not None:
            if not isinstance(census, dict):
                raise ValueError(f'"census" must be an object, got {census!r}')
            for key in CENSUS_FIELDS:
                if key in census:
                    _int(census[key], f"census.{key}")
    except ValueError as exc:
        raise ValueError(f"word data {source}: {exc}") from None
    return WordData(
        n=n,
        word=word,
        parabolic=parabolic,
        lower=lower,
        degree=degree,
        word_prefix=word_prefix,
        census=census,
        source=source,
    )


class ValidationCheck:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        self.name = name
        self.ok = ok
        self.detail = detail


class ValidationReport:
    """The checks that `validate_word_data` ran, and what they computed:
    the word's constraint, x = w_B and the word's element w (None until
    a check computes it).  w is its own minimal coset representative
    when the report is complete."""

    __slots__ = ("checks", "complete", "constraint", "x", "w")

    def __init__(self):
        self.checks: list[ValidationCheck] = []
        self.complete = False
        self.constraint = self.x = self.w = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(ValidationCheck(name, bool(ok), detail))

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "complete": self.complete,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
        }


def _prefix_check(word: tuple[int, ...], prefix: tuple[int, ...]
                  ) -> tuple[bool, str]:
    """Whether `word` starts with `prefix`, and a detail that names the
    first position (1-based) where it does not."""
    for k, (a, b) in enumerate(zip(word, prefix), 1):
        if a != b:
            return False, (f"prefix mismatch at position {k}: "
                           f"word has {a}, prefix has {b}")
    if len(word) < len(prefix):
        return False, (f"word has {len(word)} letters, fewer than the "
                       f"{len(prefix)} of the prefix")
    return True, "word starts with the documented prefix"


def validate_word_data(wd: WordData) -> ValidationReport:
    """Run the census checklist so a transcription can be trusted.

    Structural checks always run; word-dependent checks run once a word
    is present, and parabolic checks once A is present.
    """
    rep = ValidationReport()
    census = wd.census or {}

    if wd.parabolic is not None and wd.parabolic & wd.lower:
        rep.add("A-B-disjoint", False,
                f"A and B overlap: {sorted(wd.parabolic & wd.lower)}")
    elif wd.parabolic is not None:
        rep.add("A-B-disjoint", True, "")

    if wd.word is None:
        rep.add("word-present", False, "word is null (transcription pending)")
        rep.complete = False
        return rep
    rep.add("word-present", True, f"{len(wd.word)} letters")

    if "length" in census:
        want = census["length"]
        rep.add("census-length", len(wd.word) == want,
                f"expected {want}, found {len(wd.word)}")
    if wd.word_prefix:
        rep.add("documented-prefix", *_prefix_check(wd.word, wd.word_prefix))
    if "letters_index_le_3" in census:
        low = sum(1 for t in wd.word if t <= 3)
        want = census["letters_index_le_3"]
        rep.add("census-low-letters", low == want,
                f"expected {want} letters of index <= 3, found {low}")
    if "letters_index_4" in census:
        s4 = sum(1 for t in wd.word if t == 4)
        want = census["letters_index_4"]
        rep.add("census-s4-letters", s4 == want,
                f"expected {want} letters s_4, found {s4}")
    rep.constraint = wd.constraint()
    free = len(rep.constraint.free_positions())
    if "free_positions" in census:
        want = census["free_positions"]
        rep.add("census-free-positions", free == want,
                f"expected {want} unforced positions, found {free}")

    reduced = coxeter.is_reduced(wd.word, wd.n)
    rep.add("word-reduced", reduced,
            "the word is a reduced expression"
            if reduced else "word is not reduced")

    # a count alone passes B-letters that multiply to less than w_B
    wB = rep.x = wd.x_element()
    forced_count = len(wd.word) - free
    detail = f"forced positions {forced_count}, len(w_B) {coxeter.length(wB)}"
    product = coxeter.evaluate_word(
        [t for t in wd.word if t in wd.lower], wd.n)
    ok = forced_count == coxeter.length(wB) and product == wB
    if not ok:
        detail += (f"; the letters of B multiply to {list(product)}, "
                   f"w_B is {list(wB)}")
    rep.add("forced-count-is-length-of-wB", ok, detail)

    if wd.parabolic is not None:
        ok = coxeter.is_min_coset_rep(wB, wd.parabolic)
        rep.add("x-is-minimal-rep", ok,
                "w_B is a minimal coset representative for A"
                if ok else "w_B is not minimal in its A-coset")
        rep.w = coxeter.evaluate_word(wd.word, wd.n)
        ok = coxeter.is_min_coset_rep(rep.w, wd.parabolic)
        rep.add("w-is-minimal-rep", ok,
                "the word's element is a minimal coset representative"
                if ok else "the word's element is not minimal in its A-coset")
        rep.complete = rep.ok
    else:
        rep.add("parabolic-present", False, "A is null")
        rep.complete = False
    return rep


class Decision:
    """What `decide` found: the form report and its rank test
    (`rank_ok`), the validation report (which holds x, w and the word's
    constraint), the fold (`sweep`), the interval's cosets x < z, sorted,
    in the fold's own form (`inside`, from `SweepResult.above`; only
    `subexpr` builds one or takes one apart), their distinct histograms
    as {defect: count} dicts in first-seen order (`histograms`), one id
    per coset of `inside` that indexes `histograms` (`ids`, aligned with
    `inside`), one failure flag per distinct histogram (`failing`: true
    iff its coefficient has a negative power of v), the positions in
    `inside` of the cosets that fail, in order (`failures`), the interval
    `status`, the verdict and the stage seconds.  What a run did not
    reach is None, or empty."""

    __slots__ = ("form", "rank_ok", "validation", "sweep", "inside",
                 "histograms", "ids", "failing", "failures", "status",
                 "seconds")

    def __init__(self, form, seconds: dict[str, float]):
        self.form, self.seconds = form, seconds
        self.rank_ok = form.rank_over_Q == 1 and form.rank_over_p == 0
        self.validation = self.sweep = None
        self.inside, self.histograms, self.ids = [], [], []
        self.failing, self.failures = [], []
        self.status = "skipped: no word data"

    @property
    def verdict(self) -> bool:
        return self.rank_ok and self.status == "ok"


def decide(chain, p: int, wd: WordData | None = None) -> Decision:
    """Decide the certificate on the Demazure expression `chain` and the
    word data `wd`.  Its erasure row must have rank 1 over Q and rank 0
    over F_p; and every coset z with x < z <= w in the constrained
    Deodhar expansion of the word must carry a coefficient in Z[v].  The
    verdict is true iff both hold.  Without word data, or without a
    word, the interval is skipped and the verdict is false; word data
    that has a word but fails validation raises ValueError naming the
    failed checks.  `cli.cmd_certify` renders the result."""
    from . import demazure   # `validate-word` loads no demazure

    t0 = time.perf_counter()
    out = Decision(demazure.intersection_vector(chain, p), {
        "intersection_form_seconds": round(time.perf_counter() - t0, 6)})
    if wd is None:
        return out
    rep = out.validation = validate_word_data(wd)
    if wd.word is None:
        out.status = "skipped: word data incomplete"
        return out
    if not rep.complete:   # with a word, complete iff every check passed
        raise ValueError(f"word data {wd.source} fails validation: "
                         + "; ".join(f"{c.name}: {c.detail}"
                                     for c in rep.checks if not c.ok))
    t1 = time.perf_counter()
    data = out.sweep = subexpr.sweep(wd.word, wd.n, wd.parabolic,
                                     rep.constraint)
    t2 = time.perf_counter()
    # validation proved the word reduced, so that every endpoint z has
    # z <= w, and x = w_B a minimal coset representative: the interval
    # is the endpoints above x (see `subexpr._bruhat_mask`)
    out.inside, out.ids, out.histograms = data.above(rep.x)
    out.seconds["enumeration_seconds"] = round(t2 - t1, 6)
    out.seconds["interval_seconds"] = round(time.perf_counter() - t2, 6)
    # the coefficient of defect histogram h is sum h[d] v^d: it has a
    # negative power of v iff its lowest defect is negative
    failing = out.failing = [min(h) < 0 for h in out.histograms]
    out.failures = list(compress(count(), map(failing.__getitem__, out.ids)))
    out.status = "failed" if out.failures else "ok"
    return out
