"""Workload cli-short: many short `python -m heckekit.cli` processes.

Every subcommand, both demo certificates and inputs the CLI rejects with
exit 2, each as its own process, one after another.  Process start, import,
argparse and JSON output dominate; the computational layers are nearly
idle, so this workload shows growth in import time or in input
validation.  Expected values come from the README and the data-file
comments, from `reference` (Bott-Samelson and Deodhar expansions, defect
histograms, Demazure values) or from textbook facts (b_{w0} and products
of distinct generators); the two sides of a pairing adjointness must agree.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import statistics
import time

import calibrate
import harness
import reference

ROUNDS_PER_SECOND = 0.3
FACTOR_SPAN = 15
MIN_OPS = 100
# rejected inputs: each exits 2 with nothing on stdout
BAD_INPUTS = [
    ["deodhar", "--n", "3", "--parabolic", "7", "--word", "1"],
    ["pair", "--n", "3", "--word", "1", "--word2", "2", "--parabolic", "9"],
    ["bs", "--n", "4", "--word", "5"],
    ["kl", "--n", "3", "--perm", "1,1,2"],
    ["kl", "--n", "3"],
    ["demazure-eval", "--expr", "paper-GL15", "--erase", "13"],
    ["validate-word", "--word", "no_such_word_file.json"],
    ["intersection-form", "--expr", "D1 ( ( a1"],
]


# -- small independent helpers ----------------------------------------------


def _product(word, n):
    """s_{i_1} ... s_{i_k} in one-line notation (right action on positions)."""
    p = list(range(1, n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _inversions(p):
    return sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def _key(perm) -> str:
    return ",".join(map(str, perm))


def _w0_word(rng, n):
    """A random reduced word of the longest element of S_n."""
    p = list(range(n, 0, -1))
    word = []
    while True:
        descents = [i for i in range(1, n) if p[i - 1] > p[i]]
        if not descents:
            return tuple(reversed(word))
        i = rng.choice(descents)
        p[i - 1], p[i] = p[i], p[i - 1]
        word.append(i)


def _fold_json(word, n, A, forced_letters=()):
    forced = {k for k, t in enumerate(word) if t in set(forced_letters)}
    fold = reference.constrained_fold(word, n, A, forced)
    return {_key(z): {str(d): str(c) for d, c in sorted(h.items())}
            for z, h in sorted(fold.items())}, fold


def _words(word) -> str:
    return " ".join(map(str, word))


# -- cases: (list of argv, check(list of (code, payload)) -> bool) ----------


def _ok(code, payload, want_code=0):
    return code == want_code and payload is not None


def make_cases(rng) -> list:
    cases = []
    add = cases.append

    n = rng.choice((3, 4))
    word = _w0_word(rng, n)
    top = n * (n - 1) // 2      # b_{w0} = sum_y v^(l(w0) - l(y)) h_y
    want = {_key(y): {str(top - _inversions(y)): "1"}
            for y in itertools.permutations(range(1, n + 1))}
    add(([["kl", "--n", str(n), "--element", _words(word)]],
         lambda r, want=want: _ok(*r[0]) and r[0][1]["kl"] == want))

    add(([["skl", "--n", "3", "--parabolic", "2", "--element", "s1"]],
         lambda r: _ok(*r[0]) and r[0][1]["skl"]["coeffs"]
         == {"1,2,3": {"1": "1"}, "2,1,3": {"0": "1"}}))

    n = rng.choice((4, 5))
    letters = rng.sample(range(1, n), rng.randint(2, n - 1))
    want = {}
    for mask in range(1 << len(letters)):
        chosen = [t for k, t in enumerate(letters) if mask >> k & 1]
        want[_key(_product(chosen, n))] = {
            str(len(letters) - len(chosen)): "1"}
    add(([["bs", "--n", str(n), "--word", _words(letters)]],
         lambda r, want=want: _ok(*r[0]) and r[0][1]["bs"] == want))

    n = rng.choice((4, 5))
    word = tuple(rng.randrange(1, n) for _ in range(rng.randint(3, 7)))
    A = [g for g in range(1, n) if rng.random() < 0.5]
    want, _ = _fold_json(word, n, A)
    parabolic = _words(A)
    add(([["bs", "--n", str(n), "--word", _words(word),
           "--parabolic", parabolic]],
         lambda r, want=want: _ok(*r[0])
         and r[0][1]["bs"]["coeffs"] == want))
    add(([["deodhar", "--n", str(n), "--parabolic", parabolic,
           "--word", _words(word)]],
         lambda r, want=want, m=len(word): _ok(*r[0])
         and r[0][1]["expansion"]["coeffs"] == want
         and r[0][1]["subexpressions"] == 2 ** m))
    forced = [rng.choice(word)]
    want_forced, fold = _fold_json(word, n, A, forced)
    add(([["deodhar", "--n", str(n), "--parabolic", parabolic,
           "--word", _words(word), "--forced-letters", _words(forced)]],
         lambda r, want=want_forced: _ok(*r[0])
         and r[0][1]["expansion"]["coeffs"] == want))
    total = {}
    for hist in fold.values():
        for d, c in hist.items():
            total[d] = total.get(d, 0) + c
    add(([["defect-stats", "--n", str(n), "--parabolic", parabolic,
           "--word", _words(word), "--forced-letters", _words(forced)]],
         lambda r, want={str(d): c for d, c in sorted(total.items())}:
         _ok(*r[0]) and r[0][1] == want))
    z = rng.choice(sorted(fold))
    add(([["defect-stats", "--n", str(n), "--parabolic", parabolic,
           "--word", _words(word), "--forced-letters", _words(forced),
           "--endpoint", _key(z)]],
         lambda r, want={str(d): c for d, c in sorted(fold[z].items())}:
         _ok(*r[0]) and r[0][1] == want))
    add(([["defect-stats", "--n", "3", "--parabolic", "2", "--word", "s2"]],
         lambda r: _ok(*r[0]) and r[0][1] == {"-1": 1, "1": 1}))

    add(([["pair", "--n", "3", "--word", "s2", "--word2", "s2",
           "--parabolic", "2"]],
         lambda r: _ok(*r[0])
         and r[0][1]["pairing"] == {"-2": "1", "0": "2", "2": "1"}))
    n = 4
    A = _words([g for g in range(1, n) if rng.random() < 0.5])
    w1 = [rng.randrange(1, n) for _ in range(rng.randint(1, 3))]
    w2 = [rng.randrange(1, n) for _ in range(rng.randint(1, 3))]
    i = rng.randrange(1, n)
    sides = [["pair", "--n", str(n), "--word", _words(a),
              "--word2", _words(b)] + (["--parabolic", A] if A else [])
             for a, b in (([i] + w1, w2), (w1, [i] + w2))]
    add((sides, lambda r: _ok(*r[0]) and _ok(*r[1])
         and r[0][1]["pairing"] == r[1][1]["pairing"]))

    text = f"D{rng.randint(1, 4)} ( a{rng.randint(1, 4)}^{rng.randint(1, 3)} )"
    want = {_key(e): str(c)
            for e, c in sorted(reference.demazure_eval(text).items())}
    add(([["demazure-eval", "--expr", text]],
         lambda r, want=want: _ok(*r[0])
         and r[0][1]["value"]["terms"] == want))
    k = rng.randint(1, 12)
    entry = reference.README_VECTOR[k - 1]
    want = {"0,0,0,0,0": str(entry)} if entry else {}
    add(([["demazure-eval", "--expr", "paper-GL15", "--erase", str(k)]],
         lambda r, want=want: _ok(*r[0])
         and r[0][1]["value"]["terms"] == want))

    p = rng.choice((2, 3))
    add(([["intersection-form", "--expr", "paper-GL15", "--p", str(p)]],
         lambda r, p=p: _ok(*r[0])
         and r[0][1]["entries"] == reference.README_VECTOR
         and r[0][1]["rank_over_Q"] == 1
         and r[0][1]["rank_over_p"] == (0 if p == 2 else 1)))

    n = rng.choice((3, 4))
    letters = rng.sample(range(1, n), rng.randint(2, n - 1))
    add(([["perverse-check", "--n", str(n), "--word", _words(letters)]],
         lambda r, want={_key(_product(letters, n)): {"0": "1"}}:
         _ok(*r[0]) and r[0][1] == {"perverse": True, "expansion": want}))
    word = [letters[0]] + letters
    add(([["perverse-check", "--n", str(n), "--word", _words(word)]],
         lambda r: _ok(*r[0]) and r[0][1]["perverse"] is False))

    for name, code in (("demo-s4-pass", 0), ("demo-s4-fail", 0),
                       ("gl15-partial", 1)):
        add(([["validate-word", "--word", name]],
             lambda r, code=code: _ok(r[0][0], r[0][1], code)
             and r[0][1]["complete"] is (code == 0)))
    add(([["certify", "--word", "demo-s4-pass", "--threads", "1"]],
         lambda r: _ok(*r[0]) and r[0][1]["verdict"] is True
         and r[0][1]["interval"]["status"] == "ok"))
    add(([["certify", "--word", "demo-s4-fail", "--threads", "1"]],
         lambda r: _ok(r[0][0], r[0][1], 1) and r[0][1]["verdict"] is False
         and r[0][1]["interval"]["failures"]
         == [{"coset": [2, 1, 3, 4],
              "coefficient": {"-1": "1", "1": "2", "3": "1"}}]))
    add(([["certify"]],
         lambda r: _ok(r[0][0], r[0][1], 1)
         and r[0][1]["interval"] == {"status": "skipped: no word data"}
         and r[0][1]["rank_conditions"]["ok"] is True))

    for argv in BAD_INPUTS:
        add(([argv], lambda r: r[0][0] == 2 and r[0][1] is None))
    return cases


def make_batch(seed: int, seconds: int):
    """(cases, ops): ops are (case index, side, argv) in run order."""
    rng = random.Random(seed)
    per_round = len(make_cases(random.Random(0)))
    rounds = max(math.ceil(MIN_OPS / per_round),
                 round(seconds * ROUNDS_PER_SECOND))
    cases = [case for _ in range(rounds) for case in make_cases(rng)]
    ops = [(c, k, argv) for c, (argvs, _) in enumerate(cases)
           for k, argv in enumerate(argvs)]
    rng.shuffle(ops)
    return cases, ops


def _payload(text: str):
    text = text.strip()
    return json.loads(text) if text else None


def run_batch(seed: int, seconds: int, trace: bool) -> dict:
    cases, ops = make_batch(seed, seconds)
    outputs: dict[tuple[int, int], tuple] = {}
    raw_latencies, rss, traces = [], [], []
    in_wall = 0.0
    out = harness.WORK / "cli.out"
    ticks = calibrate.Ticks()
    t_start = time.perf_counter()
    for c, k, argv in ops:
        ticks.tick()
        if trace:
            child, stats = harness.run_cli(argv, out, trace=True)
            traces.append(stats["trace"])
            in_wall += stats["wall_s"]
        else:
            child = harness.run_child(harness.cli_argv(*argv), out)
        raw_latencies.append(child.wall_s * 1000.0)
        rss.append(child.rss_mb)
        try:
            payload = _payload(child.stdout())
        except ValueError:
            payload = "unreadable"
        outputs[(c, k)] = (child.code, payload)
    raw_wall = time.perf_counter() - t_start
    latencies = [ms * f for ms, f in zip(raw_latencies,
                                         ticks.factors(FACTOR_SPAN))]
    failed = 0
    problems = []
    for c, (argvs, check) in enumerate(cases):
        results = [outputs[(c, k)] for k in range(len(argvs))]
        try:
            ok = check(results)
        except (KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            failed += len(argvs)
            problems.append(f"{argvs}: {str(results)[:300]}")
    # time-weighted speed factor of the processes
    factor = sum(latencies) / sum(raw_latencies)
    return {"wall_s": raw_wall * factor,
            "raw_wall_s": raw_wall, "latencies": latencies,
            "raw_latencies": raw_latencies, "rss": rss,
            "attempted": len(ops), "failed": failed, "problems": problems,
            "traces": traces, "in_process_wall_s": in_wall}


def run(seed: int, seconds: int, trace: bool) -> dict:
    if not trace:
        setup = harness.setup_samples()
    data = run_batch(seed, seconds, False)
    result = {"attempted": data["attempted"], "failed": data["failed"],
              "problems": data["problems"]}
    if not trace:
        ms = data["latencies"]
        setup_s = statistics.median(setup + harness.setup_samples())
        result["metrics"] = {
            "setup_s": (setup_s, "s"), "wall_s": (data["wall_s"], "s"),
            "op_p50_ms": (harness.percentile(ms, 50), "ms"),
            "op_p90_ms": (harness.percentile(ms, 90), "ms"),
            "peak_rss_mb": (max(data["rss"]), "MB")}
        result["samples"] = {"op_ms": ms, "raw_op_ms": data["raw_latencies"],
                             "rss_mb": data["rss"]}
        result["info"] = {"raw_wall_s": data["raw_wall_s"]}
        return result

    import tracing

    traced = run_batch(seed, seconds, True)
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    result["problems"] += traced["problems"]
    tracer = tracing.Tracer.merge_json(traced["traces"])
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / data["wall_s"],
                                       "ratio")
    result["metrics"] = metrics
    result["problems"] += tracing.self_time_problems(
        tracer, traced["in_process_wall_s"])
    result["info"] = {"traced_in_process_wall_s": traced["in_process_wall_s"]}
    return result
