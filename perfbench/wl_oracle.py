"""Workload oracle-s5: a seeded batch of S_4/S_5 oracle operations.

The batch runs in one fresh process (`python perfbench/wl_oracle.py
--worker ...`), one operation after another.  Its four kinds mirror the
acceptance oracles whose hot paths take most of the test suite's time:

    deodhar-vs-bs  deodhar_expand == bott_samelson_spherical, words of
                   length 8-13 (criterion 3)
    pair-adjoint   b_s-adjointness of spherical_pairing (criterion 5)
    kl-perverse    is_perverse_character and is_perverse_spherical on
                   Bott-Samelson elements (criterion 4)
    gl15-variant   intersection_vector on a one- or two-token edit of
                   paper-GL15 (criteria 1 and 2)

This is where `laurent`, `hecke`, `spherical` and `demazure` do their
work; no sweep here exceeds 2^13 leaves.  PER_ROUND gives each kind a
similar share of the time.  Each operation is timed alone; its result is
checked after the batch, against the paired computation or, for
gl15-variant, against the independent evaluator in `reference`.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time

import calibrate
import harness
import reference
from heckekit import demazure, hecke, spherical

KINDS = ("deodhar-vs-bs", "pair-adjoint", "kl-perverse", "gl15-variant")
PER_ROUND = {"deodhar-vs-bs": 4, "pair-adjoint": 4, "kl-perverse": 15,
             "gl15-variant": 2}
ROUNDS_PER_SECOND = 11.0
MIN_OPS = 100


def rounds_for(seconds: int) -> int:
    per_round = sum(PER_ROUND.values())
    return max(math.ceil(MIN_OPS / per_round),
               round(seconds * ROUNDS_PER_SECOND))


# -- inputs ------------------------------------------------------------------


def _subset(rng, gens, limit=None):
    out = [g for g in gens if rng.random() < 0.5]
    if limit is not None and len(out) > limit:
        out = rng.sample(out, limit)
    return tuple(sorted(out))


def _word(rng, n, lo, hi):
    return tuple(rng.randrange(1, n) for _ in range(rng.randint(lo, hi)))


def gl15_variant(rng) -> str:
    """paper-GL15 with one D-index or root-index edit, or with two index
    edits, or with one root exponent moved to another root.  Every such
    edit keeps the expression homogeneous of the right degree."""
    tokens = demazure.PAPER_GL15_TEXT.split()
    ops = [k for k, t in enumerate(tokens) if t.startswith("D")]
    roots = [k for k, t in enumerate(tokens) if t.startswith("a")]

    def index_edit():
        k = rng.choice(ops + roots)
        tok = tokens[k]
        head, _, power = tok[1:].partition("^")
        top = 4 if tok[0] == "D" else 3
        new = rng.choice([i for i in range(1, top + 1) if i != int(head)])
        tokens[k] = f"{tok[0]}{new}" + (f"^{power}" if power else "")

    kind = rng.randrange(3)
    if kind == 0:
        index_edit()
    elif kind == 1:
        index_edit()
        index_edit()
    else:
        def exponent(k):
            return int(tokens[k].partition("^")[2] or 1)

        donor = rng.choice([k for k in roots if exponent(k) > 0])
        taker = rng.choice([k for k in roots if k != donor])
        for k, step in ((donor, -1), (taker, 1)):
            base = tokens[k].partition("^")[0]
            tokens[k] = f"{base}^{exponent(k) + step}"
    return " ".join(tokens)


def make_batch(seed: int, seconds: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    batch = []
    for _ in range(rounds_for(seconds)):
        for kind in KINDS:
            for _ in range(PER_ROUND[kind]):
                n = rng.choice((4, 5))
                gens = range(1, n)
                if kind == "deodhar-vs-bs":
                    args = (n, _word(rng, n, 8, 13), _subset(rng, gens))
                elif kind == "pair-adjoint":
                    # |W_A| <= 6 in S_5 keeps each pairing in milliseconds
                    A = _subset(rng, gens, None if n == 4 else 1)
                    args = (n, A, _word(rng, n, 1, 3), _word(rng, n, 1, 3),
                            rng.randrange(1, n))
                elif kind == "kl-perverse":
                    args = (n, _word(rng, n, 3, 8), _subset(rng, gens))
                else:
                    args = (gl15_variant(rng),)
                batch.append((kind, args))
    rng.shuffle(batch)
    return batch


# -- operations and their checks ---------------------------------------------


def run_op(kind: str, args: tuple):
    if kind == "deodhar-vs-bs":
        n, word, A = args
        return (spherical.deodhar_expand(word, n, A)
                == spherical.bott_samelson_spherical(word, n, A))
    if kind == "pair-adjoint":
        n, A, w1, w2, i = args
        a = spherical.bott_samelson_spherical(w1, n, A)
        b = spherical.bott_samelson_spherical(w2, n, A)
        return (spherical.spherical_pairing(spherical.act_by_gen(i, a), b),
                spherical.spherical_pairing(a, spherical.act_by_gen(i, b)))
    if kind == "kl-perverse":
        n, word, A = args
        h_el = hecke.bott_samelson_char(word, n)
        s_el = spherical.bott_samelson_spherical(word, n, A)
        return (h_el, hecke.is_perverse_character(h_el),
                s_el, spherical.is_perverse_spherical(s_el))
    (text,) = args
    return demazure.intersection_vector(demazure.parse_expr(text), 2)


def _expansion_ok(el, report, basis) -> bool:
    """sum c_x basis(x) == el, every c_x bar-invariant with nonnegative
    integer coefficients (KL positivity), and the verdict says whether
    every c_x is a constant."""
    total = None
    for x, c in report.expansion.items():
        if c != c.bar() or any(v < 0 for v in c.terms.values()):
            return False
        term = basis(x).scale(c)
        total = term if total is None else total + term
    if total is None or total != el:
        return False
    constant = all(set(c.terms) <= {0} for c in report.expansion.values())
    return report.is_perverse == constant


def check_op(kind: str, args: tuple, result, refs: dict) -> bool:
    if kind == "deodhar-vs-bs":
        return result is True
    if kind == "pair-adjoint":
        return result[0] == result[1]
    if kind == "kl-perverse":
        h_el, h_rep, s_el, s_rep = result
        A = args[2]
        return (_expansion_ok(h_el, h_rep, hecke.kl_basis)
                and _expansion_ok(
                    s_el, s_rep, lambda x: spherical.spherical_kl_basis(x, A)))
    want = refs[args[0]]
    return (result.entries == want and result.p == 2
            and result.rank_over_Q == int(any(want))
            and result.rank_over_p == int(any(v % 2 for v in want)))


def worker(seed: int, seconds: int, trace: bool) -> dict:
    batch = make_batch(seed, seconds)
    refs = {args[0]: reference.demazure_vector(args[0])
            for kind, args in batch if kind == "gl15-variant"}
    calibrate.pin_to_one_cpu()
    sampler = calibrate.Sampler().start()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.standard_hooks(tracer))
    results = []
    spans = []
    clock = time.perf_counter
    t_start = clock()
    for kind, args in batch:
        t0 = clock()
        try:
            result = run_op(kind, args)
        except Exception as exc:   # an operation that raises has failed
            result = exc
        spans.append((t0, clock()))
        results.append(result)
    t_end = clock()
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()

    failed = 0
    problems = []
    for (kind, args), result in zip(batch, results):
        ok = (not isinstance(result, Exception)
              and check_op(kind, args, result, refs))
        if not ok:
            failed += 1
            problems.append(f"{kind} {args!r}: {result!r}"[:300])
    out = {"wall_s": sampler.scaled_total(t_start, t_end),
           "raw_wall_s": t_end - t_start,
           "latencies": [(kind, (t1 - t0) * 1000.0 * sampler.factor(t0, t1))
                         for (kind, _), (t0, t1) in zip(batch, spans)],
           "attempted": len(batch), "failed": failed, "problems": problems}
    if tracer is not None:
        out["trace"] = tracer.to_json()
    return out


# -- client side -------------------------------------------------------------


def _worker_run(seed: int, seconds: int, trace: bool, tag: str):
    out = harness.WORK / f"oracle-{seed}-{tag}.json"
    argv = [sys.executable, __file__, "--worker", "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out)]
    if trace:
        argv.append("--trace")
    child = harness.run_child(argv, harness.WORK / f"oracle-{tag}.stdout")
    if child.code != 0 or not out.exists():
        raise RuntimeError(f"oracle worker exited with {child.code}")
    return child, json.loads(out.read_text())


def run(seed: int, seconds: int, trace: bool) -> dict:
    if not trace:
        setup = harness.setup_samples()
    child, data = _worker_run(seed, seconds, False, "plain")
    result = {"attempted": data["attempted"], "failed": data["failed"],
              "problems": data["problems"]}
    ms = [v for _, v in data["latencies"]]
    share = {}
    for kind, v in data["latencies"]:
        share[kind] = share.get(kind, 0.0) + v / 1000.0
    result["info"] = {"kind_seconds": share, "raw_wall_s": data["raw_wall_s"]}
    if not trace:
        setup_s = statistics.median(setup + harness.setup_samples())
        result["metrics"] = {
            "setup_s": (setup_s, "s"), "wall_s": (data["wall_s"], "s"),
            "op_p50_ms": (harness.percentile(ms, 50), "ms"),
            "op_p90_ms": (harness.percentile(ms, 90), "ms"),
            "peak_rss_mb": (child.rss_mb, "MB")}
        result["samples"] = {"op_ms": ms}
        return result

    import tracing

    _, traced = _worker_run(seed, seconds, True, "traced")
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    result["problems"] += traced["problems"]
    tracer = tracing.Tracer.merge_json([traced["trace"]])
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / data["wall_s"],
                                       "ratio")
    result["metrics"] = metrics
    result["problems"] += tracing.self_time_problems(tracer,
                                                     traced["raw_wall_s"])
    result["info"]["traced_wall_s"] = traced["wall_s"]
    return result


def _main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--worker", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    data = worker(args.seed, args.seconds, args.trace)
    with open(args.out, "w") as f:
        json.dump(data, f)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
