"""
Command-line interface.

All structured output is JSON on stdout with sorted keys, so repeated
runs are byte-identical apart from the "timings" section of certificate
reports.  --threads (on `deodhar`, `defect-stats` and `certify`) is
accepted for compatibility and has no effect; `certify` echoes it in
"timings".  `certify` renders the record that `worddata.decide`
returns, and adds no rule of its own: the rank test, the failure rule
and the verdict are all decided there.  Diagnostics go to stderr.  Each
command imports the computational modules it runs once its own
arguments have been checked, so a rejected input or a small command
loads little beyond argparse.  Exit codes:

    0  success / certificate verified
    1  certificate hypothesis fails (or validation checklist fails)
    2  malformed input or bad arguments (a ValueError or OSError)
    3  internal consistency violation (the degree audit failed)
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import demazure, subexpr, worddata

#: criterion 7 of the acceptance suite reads its `certify --threads` here
THREADS_ENV = "HECKEKIT_THREADS"

#: sorted(worddata.BUILTIN_WORDS), for the help text; the parser is built
#: before any computational module is imported
BUILTIN_WORD_NAMES = ("demo-s4-fail", "demo-s4-pass", "gl15-partial",
                      "gl15-reconstructed")


def _integer(text: str) -> int:
    """An integer in ASCII digits; int() alone also takes '1_0' and '٣'."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"must be an integer in ASCII digits, got {text!r}")
    return int(text)


def _at_least_one(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: the largest --n: the subexpression fold keeps a coset as one byte per
#: value (subexpr.MAX_N), and a Demazure expression has at most
#: demazure.MAX_VARIABLES variables
MAX_N = 255


def _rank(text: str) -> int:
    value = _at_least_one(text)
    if value > MAX_N:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_N}, got {value}")
    return value


#: --p is checked by trial division, which stays fast below this bound
MAX_PRIME = 2 ** 32


def _prime(text: str) -> int:
    value = _integer(text)
    if not 2 <= value < MAX_PRIME or any(
            value % d == 0 for d in range(2, math.isqrt(value) + 1)):
        raise argparse.ArgumentTypeError(
            f"must be a prime below 2^32, got {value}")
    return value


#: the marker of a streamed list in `emit`'s payload, where it cuts the text
_HOLE = "\0"


def _dumps(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit(payload, pretty: bool = False, stream=None) -> None:
    """Print `payload` as JSON with sorted keys, indented or compact.
    `stream` takes the line break and indentation of a list's items (""
    when compact) and yields chunks of that list, each one or more of its
    items' JSON texts joined by "," and that break; emit writes the list
    where `payload` holds _HOLE, one chunk at a time, as json.dumps would
    write it."""
    text = _dumps(payload, pretty)
    if stream is not None:
        head, _, text = text.partition(json.dumps(_HOLE))
        pad = ""
        if pretty:   # the items sit one level deeper than the list's line
            line = head[head.rfind("\n") + 1:]
            pad = "\n" + " " * (len(line) - len(line.lstrip()) + 2)
        sys.stdout.write(head)
        lead = "["
        for chunk in stream(pad):
            sys.stdout.write(lead + pad + chunk)
            lead = ","
        sys.stdout.write(pad[:-2] + "]" if lead == "," else "[]")
    print(text)


def parse_word(text: str, n: int, flag: str = "--word",
               noun: str = "generator") -> tuple[int, ...]:
    """Accept 's1 s2 s1', '1 2 1' or '1,2,1'; every letter must be one of
    the generators 1..n-1 of S_n, else the error names `flag`."""
    tokens = text.replace(",", " ").split()
    out = []
    for t in tokens:
        if not re.fullmatch(r"s?[0-9]+", t):
            raise ValueError(f"{flag} {text!r}: {t!r} is not a {noun} "
                             f"such as 2 or s2")
        g = int(t.lstrip("s"))
        # not coxeter.check_generators: a rejected letter loads only cli
        if not 1 <= g <= n - 1:
            raise ValueError(
                f"{flag} {text!r}: {noun} {g} out of range for S_{n}")
        out.append(g)
    return tuple(out)


def parse_perm(text: str, n: int, flag: str,
               parabolic: frozenset = frozenset()) -> tuple[int, ...]:
    """A permutation of 1..n in one-line notation that is the minimal
    representative of its coset modulo W_A, for A = `parabolic`."""
    from . import coxeter

    tokens = text.replace(",", " ").split()
    if not all(re.fullmatch(r"[0-9]+", t) for t in tokens):
        raise ValueError(f"{flag} {text!r} is not a list of integers")
    return coxeter.coset_key(map(int, tokens), n, parabolic,
                             f"{flag} {text!r}")


def parse_parabolic(text: str | None, n: int) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(parse_word(text, n, "--parabolic", "parabolic generator"))


def load_expression(source: str) -> tuple[demazure.Chain, str]:
    """--expr: a builtin name, the path of a regular file, or inline text
    (any other existing path, such as a directory, is an error).  A file
    that does not decode or parse is an error naming the flag, as inline
    text that does not parse is."""
    from . import demazure

    if source in demazure.BUILTIN_EXPRESSIONS:
        return demazure.builtin_expr(source), source
    # os.path.isfile and os.path.exists are False, not an error, for text
    # too long to be a file name
    is_file = os.path.isfile(source)
    if not is_file and (os.path.exists(source)
                        or ("D" not in source and "(" not in source)):
        raise ValueError(f"--expr {source!r} is not a builtin, file, or "
                         f"inline prefix expression")
    try:
        if is_file:
            path = Path(source)
            return demazure.parse_expr(path.read_text()), str(path)
        return demazure.parse_expr(source), "<inline>"
    except ValueError as exc:
        raise ValueError(f"--expr {source!r}: {exc}") from None


def load_word(source: str) -> worddata.WordData:
    """--word: a builtin name or the path of a regular file."""
    from . import worddata

    if source not in worddata.BUILTIN_WORDS and not os.path.isfile(source):
        raise ValueError(f"--word {source!r} is not a builtin name or a "
                         f"regular file")
    return worddata.load_word_data(source)


def _hist_json(hist: dict[int, int]) -> dict[str, int]:
    return {str(d): c for d, c in sorted(hist.items())}


# -- subcommand implementations -----------------------------------------


def cmd_kl(args) -> int:
    """`kl`, or `skl` in the spherical module for A = --parabolic."""
    from . import coxeter

    A = parse_parabolic(getattr(args, "parabolic", None), args.n)
    if args.element is not None:
        x = coxeter.min_coset_rep(coxeter.evaluate_word(
            parse_word(args.element, args.n, "--element"), args.n), A)
    else:
        x = parse_perm(args.perm, args.n, "--perm", A)
    if args.command == "kl":
        from . import hecke

        el = hecke.kl_basis(x)
    else:
        from . import spherical

        el = spherical.spherical_kl_basis(x, A)
    emit({"element": list(x), args.command: el.to_json_dict(),
          "display": repr(el)}, args.pretty)
    return 0


def _character(args, word):
    """The Bott-Samelson character of `word` in H, or in the spherical
    module M for A = --parabolic when that flag is given, with the
    module's name and its perversity check."""
    if args.parabolic is None:
        from . import hecke

        return (hecke.bott_samelson_char(word, args.n), "hecke",
                hecke.is_perverse_character)
    A = parse_parabolic(args.parabolic, args.n)
    from . import spherical

    return (spherical.deodhar_expand(word, args.n, A), "spherical",
            spherical.is_perverse_spherical)


def cmd_bs(args) -> int:
    el, module, _ = _character(args, parse_word(args.word, args.n))
    emit({"module": module, "bs": el.to_json_dict(), "display": repr(el)},
         args.pretty)
    return 0


def cmd_pair(args) -> int:
    """(b_{w1}, b_{w2}) = [id] b_{rev(w1) w2}: the identity coefficient of
    one character.  The form is b_s-adjoint, so moving the letters of w1
    across, first letter first, gives (1, b_{rev(w1)} b_{w2}); and
    (1, h) = [h_id] h in H, while (m_id, m_z) is 1 at z = id and 0
    otherwise in M.  `hecke.pairing` and `spherical.spherical_pairing`
    are the references."""
    w1 = parse_word(args.word, args.n)
    w2 = parse_word(args.word2, args.n, "--word2")
    el, module, _ = _character(args, w1[::-1] + w2)
    from . import coxeter

    value = el.coefficient(coxeter.identity(args.n))
    emit({"module": module, "pairing": value.to_json_dict(),
          "display": str(value)}, args.pretty)
    return 0


def _constraint_from_args(args, word) -> subexpr.EnumConstraint:
    """Force the letters of --forced-letters; an absent flag forces none."""
    letters = parse_word(args.forced_letters or "", args.n,
                         "--forced-letters")
    from . import subexpr

    return subexpr.EnumConstraint.forced_letters(word, letters)


def cmd_deodhar(args) -> int:
    word = parse_word(args.word, args.n)
    A = parse_parabolic(args.parabolic, args.n)
    constraint = _constraint_from_args(args, word)
    from . import spherical

    el = spherical.deodhar_expand(word, args.n, A, constraint)
    emit({"expansion": el.to_json_dict(),
          "subexpressions": constraint.leaf_count(),
          "display": repr(el)}, args.pretty)
    return 0


def cmd_defect_stats(args) -> int:
    word = parse_word(args.word, args.n)
    A = parse_parabolic(args.parabolic, args.n)
    constraint = _constraint_from_args(args, word)
    target = None
    if args.endpoint is not None:
        target = parse_perm(args.endpoint, args.n, "--endpoint", A)
    from . import subexpr

    hist = subexpr.defect_histogram(word, args.n, A, constraint, target)
    emit(_hist_json(hist), args.pretty)
    return 0


def cmd_demazure_eval(args) -> int:
    from . import demazure

    expr, name = load_expression(args.expr)
    ops = demazure.op_count(expr)
    if args.erase is not None and not 1 <= args.erase <= ops:
        raise ValueError(f"--erase {args.erase} out of range 1..{ops}")
    val = demazure.eval_expr(expr, erase=args.erase)
    emit({"expression": name, "erase": args.erase,
          "value": val.to_json_dict(), "display": repr(val)}, args.pretty)
    return 0


def cmd_intersection_form(args) -> int:
    from . import demazure

    expr, name = load_expression(args.expr)
    report = demazure.intersection_vector(expr, args.p)
    payload = report.to_json_dict()
    payload["expression"] = name
    emit(payload, args.pretty)
    return 0


def cmd_perverse_check(args) -> int:
    el, _, perversity = _character(args, parse_word(args.word, args.n))
    rep = perversity(el)
    from . import hecke

    emit({"perverse": rep.is_perverse,
          "expansion": hecke.coeffs_json(rep.expansion)}, args.pretty)
    return 0


def cmd_validate_word(args) -> int:
    from . import worddata

    wd = load_word(args.word)
    report = worddata.validate_word_data(wd)
    payload = report.to_json_dict()
    payload["source"] = wd.source
    emit(payload, args.pretty)
    return 0 if (report.ok and report.complete) else 1


#: the interval cosets that `certify` renders at once
CERTIFY_CHUNK = 4096


def cmd_certify(args) -> int:
    """Render `worddata.decide`: the payload, one coefficient per
    distinct histogram of the record (indexed by histogram id), one
    entry template per distinct histogram, and the interval's entries
    streamed to `emit` in chunks of CERTIFY_CHUNK cosets.  A chunk is
    built by C-level passes alone: one `subexpr.coset_texts` call, which
    reads the cosets in the fold's own form, gives their texts, and the
    templates are looked up through the record's ids and joined with
    them.  Each failure's coset, as a list of ints, and its coefficient
    are read by its position in the interval."""
    from . import demazure, subexpr, worddata

    t0 = time.perf_counter()
    expr, expr_name = load_expression(args.expr)
    wd = None if args.word is None else load_word(args.word)
    d = worddata.decide(expr, args.p, wd)
    data, inside, rep = d.sweep, d.inside, d.validation
    payload = {
        "expression": {"name": expr_name,
                       "operators": demazure.op_count(expr)},
        "p": args.p,
        "intersection_form": d.form.to_json_dict(),
        "rank_conditions": {"rank_Q": d.form.rank_over_Q,
                            "rank_p": d.form.rank_over_p, "ok": d.rank_ok},
        "word": None if wd is None else {
            "source": wd.source, "validation": rep.to_json_dict()},
        "histogram": None if data is None else _hist_json(data.total()),
        "histogram_at_x":
            None if data is None else _hist_json(data.get(rep.x, {})),
        "interval": {"status": d.status},
        "verdict": d.verdict,
    }
    entries = None
    if data is not None:
        payload["word"].update(
            n=wd.n, length=len(wd.word), A=sorted(wd.parabolic),
            B=sorted(wd.lower), degree=wd.degree, x=list(rep.x),
            w=list(rep.w),
            free_positions=len(rep.constraint.free_positions()),
            subexpressions=rep.constraint.leaf_count())
        coefficients = [{str(e): str(k) for e, k in h.items()}
                        for h in d.histograms]

        def entries(pad):
            """The entries' JSON texts, for `emit`, one joined text per
            chunk; the text around a coset is built once per distinct
            histogram, and carries the separator of the next entry,
            which the chunk's last entry then gives up."""
            # a coset's values sit two levels deeper than its entry
            sep, comma = "," + (pad and pad + "    "), "," + pad
            templates = [_dumps({"coefficient": c, "coset": [_HOLE],
                                 "ok": not bad}, args.pretty)
                         .replace("\n", pad).split(json.dumps(_HOLE))
                         for c, bad in zip(coefficients, d.failing)]
            befores = [before for before, _ in templates].__getitem__
            afters = [after + comma for _, after in templates].__getitem__
            for start in range(0, len(inside), CERTIFY_CHUNK):
                ids = d.ids[start:start + CERTIFY_CHUNK]
                texts = subexpr.coset_texts(
                    inside[start:start + CERTIFY_CHUNK], wd.n, sep)
                yield "".join(itertools.chain.from_iterable(zip(
                    map(befores, ids), texts, map(afters, ids)))
                    )[:-len(comma)]

        payload["interval"].update(
            passed=d.status == "ok", cosets_in_interval=len(inside),
            cosets_outside=len(data) - len(inside), entries=_HOLE,
            failures=[{"coset": list(inside[k]),
                       "coefficient": coefficients[d.ids[k]]}
                      for k in d.failures])
    payload["timings"] = {**d.seconds, "threads": args.threads,
                          "total_seconds": round(time.perf_counter() - t0, 6)}
    emit(payload, args.pretty, entries)
    return 0 if d.verdict else 1


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckekit",
        description="Exact Hecke-algebra workbench and non-perversity "
                    "certificate checker.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=True, threads=False):
        if n:
            p.add_argument("--n", type=_rank, required=True,
                           help="rank of the symmetric group S_n")
        if threads:
            p.add_argument("--threads", type=_at_least_one, default=1,
                           help="accepted; no effect")
        p.add_argument("--pretty", action="store_true",
                       help="indented JSON output")

    p = sub.add_parser("kl", help="Kazhdan-Lusztig basis element")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--element", help="a word for the element, e.g. 's1 s2 s1'")
    g.add_argument("--perm", help="one-line notation, e.g. '3,2,1'")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("skl", help="spherical Kazhdan-Lusztig basis element")
    common(p)
    p.add_argument("--parabolic", required=True,
                   help="the subset A, e.g. '2' or 's1 s2'")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--element", help="a word; its minimal coset rep is used")
    g.add_argument("--perm", help="one-line notation (must be a minimal rep)")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("bs", help="Bott-Samelson character in H or M")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--parabolic",
                   help="if given, compute in the spherical module")
    p.set_defaults(func=cmd_bs)

    p = sub.add_parser("pair", help="pairing of two Bott-Samelson characters")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--word2", required=True)
    p.add_argument("--parabolic",
                   help="if given, use the spherical pairing")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("deodhar", help="Deodhar expansion of a word")
    common(p, threads=True)
    p.add_argument("--parabolic", default="")
    p.add_argument("--word", required=True)
    p.add_argument("--forced-letters",
                   help="letters whose positions are forced to 1")
    p.set_defaults(func=cmd_deodhar)

    p = sub.add_parser("defect-stats", help="defect histogram of a word")
    common(p, threads=True)
    p.add_argument("--parabolic", default="")
    p.add_argument("--word", required=True)
    p.add_argument("--forced-letters",
                   help="letters whose positions are forced to 1")
    p.add_argument("--endpoint",
                   help="count only this endpoint (one-line notation)")
    p.set_defaults(func=cmd_defect_stats)

    p = sub.add_parser("demazure-eval",
                       help="evaluate a nested Demazure expression")
    common(p, n=False)
    p.add_argument("--expr", required=True,
                   help="builtin name, file path, or inline prefix text")
    p.add_argument("--erase", type=_integer,
                   help="treat this operator (prefix order, 1-based) as id")
    p.set_defaults(func=cmd_demazure_eval)

    p = sub.add_parser("intersection-form",
                       help="erasure vector and its ranks")
    common(p, n=False)
    p.add_argument("--expr", default="paper-GL15")
    p.add_argument("--p", type=_prime, default=2,
                   help="a prime below 2^32 for the F_p rank")
    p.set_defaults(func=cmd_intersection_form)

    p = sub.add_parser("perverse-check",
                       help="is a Bott-Samelson character perverse?")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--parabolic")
    p.set_defaults(func=cmd_perverse_check)

    p = sub.add_parser("validate-word",
                       help="check a word-data file against its census; "
                            "the letters of B count as forced to 1")
    common(p, n=False)
    p.add_argument("--word", required=True,
                   help="path or builtin name "
                        f"({', '.join(BUILTIN_WORD_NAMES)})")
    p.set_defaults(func=cmd_validate_word)

    p = sub.add_parser("certify", help="run the non-perversity certificate")
    common(p, n=False, threads=True)
    p.add_argument("--word",
                   help="word-data file (path or builtin name), read with "
                        "the letters of B forced to 1; without it the "
                        "interval section is skipped")
    p.add_argument("--expr", default="paper-GL15")
    p.add_argument("--p", type=_prime, default=2,
                   help="a prime below 2^32 for the F_p rank")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command runs once and builds large acyclic data, which reference
    # counting frees all the same.  The collector does not track a fold's
    # packed state (bytes keys, int values), but it tracks the
    # Kazhdan-Lusztig cache of nested term maps and would walk it again
    # and again: `kl` on the w0 of S_8 took 2.48 s of CPU paused against
    # 2.72 s with the collector on (medians of 10 alternating pairs,
    # 2 vCPU, Python 3.11.7).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ArithmeticError as exc:
        # Only a laurent.ConsistencyViolation maps to exit 3; any other
        # arithmetic error is a bug and propagates.  The class is looked
        # up here, not at import, so that main loads no module that the
        # command did not.
        from .laurent import ConsistencyViolation

        if not isinstance(exc, ConsistencyViolation):
            raise
        print(f"heckekit: internal consistency violation: {exc}",
              file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # bad input only (json.JSONDecodeError is a ValueError); any other
        # exception is a bug and propagates with its traceback
        print(f"heckekit: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
