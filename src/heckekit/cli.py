"""
Command-line interface.

All structured output is JSON on stdout with sorted keys, so repeated
runs are byte-identical apart from the "timings" section of certificate
reports.  --threads is accepted for compatibility and has no effect.
Diagnostics go to stderr.  Each command imports the computational
modules it runs once its own arguments have been checked, so a rejected
input or a small command loads little beyond argparse.  Exit codes:

    0  success / certificate verified
    1  certificate hypothesis fails (or validation checklist fails)
    2  malformed input or bad arguments
    3  internal consistency violation (inexact division, degree audit,
       pullback mismatch)
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import demazure, subexpr

THREADS_ENV = "HECKEKIT_THREADS"

#: sorted(worddata.BUILTIN_WORDS), for the help text; the parser is built
#: before any computational module is imported
BUILTIN_WORD_NAMES = ("demo-s4-fail", "demo-s4-pass", "gl15-partial")


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


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


#: --p is checked by trial division, which stays fast below this bound
MAX_PRIME = 2 ** 32


def _prime(text: str) -> int:
    value = _integer(text)
    if not 2 <= value < MAX_PRIME or any(
            value % d == 0 for d in range(2, math.isqrt(value) + 1)):
        raise argparse.ArgumentTypeError(
            f"must be a prime below 2^32, got {value}")
    return value


def emit(payload, pretty: bool = False) -> None:
    if pretty:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


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
        if not 1 <= g <= n - 1:
            raise ValueError(
                f"{flag} {text!r}: {noun} {g} out of range for S_{n}")
        out.append(g)
    return tuple(out)


def parse_perm(text: str, n: int, flag: str) -> tuple[int, ...]:
    from . import coxeter

    tokens = text.replace(",", " ").split()
    if not all(re.fullmatch(r"[0-9]+", t) for t in tokens):
        raise ValueError(
            f"{flag} {text!r} is not a list of integers")
    p = tuple(map(int, tokens))
    if not coxeter.is_permutation(p):
        raise ValueError(
            f"{flag} {text!r} is not a permutation in one-line notation")
    if len(p) != n:
        raise ValueError(f"{flag} {text!r} has {len(p)} entries, not n = {n}")
    return p


def parse_parabolic(text: str | None, n: int) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(parse_word(text, n, "--parabolic", "parabolic generator"))


def load_expression(source: str) -> tuple[demazure.Chain, str]:
    from . import demazure

    if source in demazure.BUILTIN_EXPRESSIONS:
        return demazure.builtin_expr(source), source
    path = Path(source)
    try:
        is_path = path.exists()
    except OSError:   # e.g. inline text longer than a file name may be
        is_path = False
    if is_path:
        return demazure.parse_expr(path.read_text()), str(path)
    if "D" in source or "(" in source:
        return demazure.parse_expr(source), "<inline>"
    raise ValueError(f"unknown expression {source!r} (not a builtin, file, "
                     f"or inline prefix expression)")


def _hist_json(hist: dict[int, int]) -> dict[str, int]:
    return {str(d): c for d, c in sorted(hist.items())}


# -- subcommand implementations -----------------------------------------


def cmd_kl(args) -> int:
    from . import coxeter

    if args.element:
        x = coxeter.evaluate_word(
            parse_word(args.element, args.n, "--element"), args.n)
    else:
        x = parse_perm(args.perm, args.n, "--perm")
    from . import hecke

    el = hecke.kl_basis(x)
    emit({"element": list(x), "kl": el.to_json_dict(),
          "display": repr(el)}, args.pretty)
    return 0


def cmd_skl(args) -> int:
    from . import coxeter

    A = parse_parabolic(args.parabolic, args.n)
    if args.element:
        x = coxeter.min_coset_rep(coxeter.evaluate_word(
            parse_word(args.element, args.n, "--element"), args.n), A)
    else:
        x = parse_perm(args.perm, args.n, "--perm")
    from . import spherical

    el = spherical.spherical_kl_basis(x, A)
    emit({"element": list(x), "skl": el.to_json_dict(),
          "display": repr(el)}, args.pretty)
    return 0


def cmd_bs(args) -> int:
    word = parse_word(args.word, args.n)
    if args.parabolic is None:
        from . import hecke

        el = hecke.bott_samelson_char(word, args.n)
        payload = {"module": "hecke", "bs": el.to_json_dict()}
    else:
        A = parse_parabolic(args.parabolic, args.n)
        from . import spherical

        el = spherical.bott_samelson_spherical(word, args.n, A)
        payload = {"module": "spherical", "bs": el.to_json_dict()}
    payload["display"] = repr(el)
    emit(payload, args.pretty)
    return 0


def cmd_pair(args) -> int:
    w1 = parse_word(args.word, args.n)
    w2 = parse_word(args.word2, args.n, "--word2")
    if args.parabolic is None:
        from . import hecke

        a = hecke.bott_samelson_char(w1, args.n)
        b = hecke.bott_samelson_char(w2, args.n)
        value = hecke.pairing(a, b)
        module = "hecke"
    else:
        A = parse_parabolic(args.parabolic, args.n)
        from . import spherical

        a = spherical.bott_samelson_spherical(w1, args.n, A)
        b = spherical.bott_samelson_spherical(w2, args.n, A)
        value = spherical.spherical_pairing(a, b)
        module = "spherical"
    emit({"module": module, "pairing": value.to_json_dict(),
          "display": str(value)}, args.pretty)
    return 0


def _constraint_from_args(args, word) -> subexpr.EnumConstraint | None:
    if getattr(args, "forced_letters", None):
        letters = parse_word(args.forced_letters, args.n, "--forced-letters")
        from . import subexpr

        return subexpr.EnumConstraint.forced_letters(word, letters)
    return None


def cmd_deodhar(args) -> int:
    word = parse_word(args.word, args.n)
    A = parse_parabolic(args.parabolic, args.n)
    constraint = _constraint_from_args(args, word)
    from . import spherical, subexpr

    el = spherical.deodhar_expand(word, args.n, A, constraint)
    leaves = (constraint or subexpr.EnumConstraint.free(len(word))).leaf_count()
    emit({"expansion": el.to_json_dict(), "subexpressions": leaves,
          "display": repr(el)}, args.pretty)
    return 0


def cmd_defect_stats(args) -> int:
    word = parse_word(args.word, args.n)
    A = parse_parabolic(args.parabolic, args.n)
    constraint = _constraint_from_args(args, word)
    target = None
    if args.endpoint:
        target = parse_perm(args.endpoint, args.n, "--endpoint")
        if any(target[i - 1] > target[i] for i in A):
            raise ValueError(f"--endpoint {args.endpoint!r} is not a minimal "
                             f"coset representative for A = {sorted(A)}")
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
    word = parse_word(args.word, args.n)
    if args.parabolic is None:
        from . import hecke

        rep = hecke.is_perverse_character(
            hecke.bott_samelson_char(word, args.n))
    else:
        A = parse_parabolic(args.parabolic, args.n)
        from . import hecke, spherical

        rep = spherical.is_perverse_spherical(
            spherical.bott_samelson_spherical(word, args.n, A))
    emit({"perverse": rep.is_perverse,
          "expansion": hecke.coeffs_json(rep.expansion)}, args.pretty)
    return 0


def cmd_validate_word(args) -> int:
    from . import worddata

    wd = worddata.load_word_data(args.word)
    report = worddata.validate_word_data(wd)
    payload = report.to_json_dict()
    payload["source"] = wd.source
    emit(payload, args.pretty)
    return 0 if (report.ok and report.complete) else 1


def cmd_certify(args) -> int:
    from . import demazure

    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    expr, expr_name = load_expression(args.expr)
    form = demazure.intersection_vector(expr, args.p)
    timings["intersection_form_seconds"] = round(time.perf_counter() - t0, 6)
    rank_ok = form.rank_over_Q == 1 and form.rank_over_p == 0

    payload = {
        "expression": {"name": expr_name,
                       "operators": demazure.op_count(expr)},
        "p": args.p,
        "intersection_form": form.to_json_dict(),
        "rank_conditions": {
            "rank_Q": form.rank_over_Q,
            "rank_p": form.rank_over_p,
            "ok": rank_ok,
        },
    }

    interval_ok = False
    payload["word"] = payload["histogram"] = payload["histogram_at_x"] = None
    if args.word is None:
        payload["interval"] = {"status": "skipped: no word data"}
    else:
        from . import spherical, subexpr, worddata

        wd = worddata.load_word_data(args.word)
        report = worddata.validate_word_data(wd)
        if wd.word is None:
            payload["word"] = {"source": wd.source,
                               "validation": report.to_json_dict()}
            payload["interval"] = {
                "status": "skipped: word data incomplete"}
        elif not report.ok or not report.complete:
            raise ValueError(
                f"word data {wd.source} fails validation: "
                + "; ".join(f"{c.name}: {c.detail}"
                            for c in report.checks if not c.ok))
        else:
            x = wd.x_element()   # validation checked x-is-minimal-rep
            w = wd.w_element()
            constraint = wd.constraint()
            t1 = time.perf_counter()
            expansion = spherical.deodhar_expand(
                wd.word, wd.n, wd.parabolic, constraint)
            timings["enumeration_seconds"] = round(
                time.perf_counter() - t1, 6)
            t2 = time.perf_counter()
            interval = spherical.interval_condition_check(expansion, x, w)
            timings["interval_seconds"] = round(time.perf_counter() - t2, 6)
            interval_ok = interval.passed
            payload["word"] = {
                "source": wd.source,
                "n": wd.n,
                "length": len(wd.word),
                "A": sorted(wd.parabolic),
                "B": sorted(wd.lower),
                "degree": wd.degree,
                "x": list(x),
                "w": list(w),
                "free_positions": len(constraint.free_positions()),
                "subexpressions": constraint.leaf_count(),
                "validation": report.to_json_dict(),
            }
            payload["histogram"] = _hist_json(subexpr.total_histogram(
                c.terms for c in expansion.coeffs.values()))
            payload["histogram_at_x"] = _hist_json(
                expansion.coefficient(x).terms)
            entries = [{"coset": list(e.coset),
                        "coefficient": e.coefficient.to_json_dict(),
                        "ok": e.ok}
                       for e in interval.entries]
            payload["interval"] = {
                "status": "ok" if interval.passed else "failed",
                "passed": interval.passed,
                "cosets_in_interval": len(interval.entries),
                "cosets_outside": interval.outside,
                "entries": entries,
                "failures": [{"coset": e["coset"],
                              "coefficient": e["coefficient"]}
                             for e in entries if not e["ok"]],
            }

    verdict = rank_ok and interval_ok
    payload["verdict"] = verdict
    timings["total_seconds"] = round(time.perf_counter() - t0, 6)
    timings["threads"] = args.threads
    payload["timings"] = timings
    emit(payload, args.pretty)
    return 0 if verdict else 1


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckekit",
        description="Exact Hecke-algebra workbench and non-perversity "
                    "certificate checker.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=True):
        if n:
            p.add_argument("--n", type=_at_least_one, required=True,
                           help="rank of the symmetric group S_n")
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
    p.set_defaults(func=cmd_skl)

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
    common(p)
    p.add_argument("--parabolic", default="")
    p.add_argument("--word", required=True)
    p.add_argument("--forced-letters",
                   help="letters whose positions are forced to 1")
    p.add_argument("--threads", type=_at_least_one,
                   default=_default_threads(), help="accepted; no effect")
    p.set_defaults(func=cmd_deodhar)

    p = sub.add_parser("defect-stats", help="defect histogram of a word")
    common(p)
    p.add_argument("--parabolic", default="")
    p.add_argument("--word", required=True)
    p.add_argument("--forced-letters")
    p.add_argument("--endpoint",
                   help="count only this endpoint (one-line notation)")
    p.add_argument("--threads", type=_at_least_one,
                   default=_default_threads(), help="accepted; no effect")
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
                       help="check a word-data file against its census")
    common(p, n=False)
    p.add_argument("--word", required=True,
                   help="path or builtin name "
                        f"({', '.join(BUILTIN_WORD_NAMES)})")
    p.set_defaults(func=cmd_validate_word)

    p = sub.add_parser("certify", help="run the non-perversity certificate")
    common(p, n=False)
    p.add_argument("--word",
                   help="word-data file (path or builtin name); without it "
                        "the interval section is skipped")
    p.add_argument("--expr", default="paper-GL15")
    p.add_argument("--p", type=_prime, default=2,
                   help="a prime below 2^32 for the F_p rank")
    p.add_argument("--threads", type=_at_least_one,
                   default=_default_threads(), help="accepted; no effect")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command runs once and builds large acyclic data (certify holds
    # ~150,000 endpoint histograms), which the cyclic collector would walk
    # again and again; reference counting frees it all the same.
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
    except (ValueError, TypeError, IndexError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"heckekit: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
