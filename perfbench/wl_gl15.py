"""Workload gl15-synth-certify: one `certify` process on a synthetic word.

This is the paper's headline run at full size (78 letters, 2^23 leaves):
`subexpr` enumerates, `spherical`/`coxeter` check the interval and `cli`
writes megabytes of JSON.  The input size is part of the workload: draws
from the seed are kept only when the constrained expansion has
ENDPOINT_BAND cosets (the size of the most common draw), so that runs on
different seeds do comparable work.
"""
from __future__ import annotations

import json
import statistics

import harness
import reference
import synth
from heckekit import coxeter, worddata

ENDPOINT_BAND = (145_000, 165_000)


def choose_word(seed: int):
    """First census-valid draw in the endpoint band: (word data, fold)."""
    for raw in synth.candidates(seed):
        report = worddata.validate_word_data(worddata.parse_word_data(raw))
        if not (report.ok and report.complete):
            raise RuntimeError(f"synthetic word fails validation: "
                               f"{report.to_json_dict()}")
        forced = {k for k, t in enumerate(raw["word"]) if t in synth.B}
        fold = reference.constrained_fold(raw["word"], synth.N, raw["A"],
                                          forced)
        if ENDPOINT_BAND[0] <= len(fold) <= ENDPOINT_BAND[1]:
            return raw, fold


def _hist_json(hist: dict[int, int]) -> dict[str, int]:
    return {str(d): c for d, c in sorted(hist.items())}


def check_output(payload: dict, code: int, raw: dict, fold) -> list[str]:
    """Every difference between a certify report and the reference fold."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {str(got)[:200]}, "
                            f"want {str(want)[:200]}")

    n = synth.N
    x = bytes(coxeter.longest_element(synth.B, n))
    word_el = list(range(1, n + 1))
    for i in raw["word"]:
        word_el[i - 1], word_el[i] = word_el[i], word_el[i - 1]
    w = bytes(coxeter.min_coset_rep(tuple(word_el), raw["A"]))

    total: dict[int, int] = {}
    for hist in fold.values():
        for d, c in hist.items():
            total[d] = total.get(d, 0) + c
    expect("histogram sum", sum(total.values()), 2 ** 23)
    expect("histogram", payload.get("histogram"), _hist_json(total))
    expect("histogram_at_x", payload.get("histogram_at_x"),
           _hist_json(fold.get(x, {})))
    form = payload.get("intersection_form", {})
    expect("intersection vector", form.get("entries"),
           reference.README_VECTOR)
    expect("ranks", (form.get("rank_over_Q"), form.get("rank_over_p")),
           (1, 0))
    word = payload.get("word") or {}
    expect("x", word.get("x"), list(x))
    expect("w", word.get("w"), list(w))
    expect("subexpressions", word.get("subexpressions"), 2 ** 23)

    cosets = sorted(fold)
    inside = reference.bruhat_between(cosets, x, w)
    want_entries = []
    for z, ok_z in zip(cosets, inside):
        if ok_z:
            hist = fold[z]
            want_entries.append({
                "coset": list(z),
                "coefficient": {str(e): str(c)
                                for e, c in sorted(hist.items())},
                "ok": min(hist) >= 0})
    interval = payload.get("interval", {})
    got_entries = interval.get("entries", [])
    expect("cosets_in_interval", interval.get("cosets_in_interval"),
           len(want_entries))
    expect("cosets_outside", interval.get("cosets_outside"),
           len(cosets) - len(want_entries))
    mismatches = sum(1 for a, b in zip(got_entries, want_entries) if a != b)
    mismatches += abs(len(got_entries) - len(want_entries))
    expect("interval entry mismatches", mismatches, 0)
    want_failures = [{"coset": e["coset"], "coefficient": e["coefficient"]}
                     for e in want_entries if not e["ok"]]
    expect("failures", interval.get("failures"), want_failures)
    passed = not want_failures
    expect("interval passed", interval.get("passed"), passed)
    expect("verdict", payload.get("verdict"), passed)
    expect("exit code", code, 0 if passed else 1)
    if not want_entries:
        problems.append("empty interval: the certificate would be vacuous")
    return problems


def run(seed: int, seconds: int, trace: bool) -> dict:
    raw, fold = choose_word(seed)
    work = harness.WORK / f"gl15-{seed}"
    word_file = work / "synthetic_word.json"
    word_file.parent.mkdir(parents=True, exist_ok=True)
    word_file.write_text(json.dumps(raw))
    result = {"attempted": 0, "failed": 0, "problems": [],
              "info": {"endpoints": len(fold), "A": raw["A"],
                       "word": raw["word"]}}

    def measured(traced: bool):
        """One certify process: (speed-scaled wall seconds, child, stats)."""
        out = work / ("traced.out" if traced else "certify.out")
        child, stats = harness.run_cli(
            ["certify", "--word", str(word_file), "--threads", "1"], out,
            traced)
        try:
            problems = check_output(json.loads(child.stdout()), child.code,
                                    raw, fold)
        except ValueError as exc:
            problems = [f"unreadable output: {exc}"]
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["problems"].extend(problems)
        out.unlink()
        return child.wall_s * stats["factor"], child, stats

    if not trace:
        setup = harness.setup_samples()
        wall, child, stats = measured(False)
        setup_s = statistics.median(setup + harness.setup_samples())
        result["metrics"] = {
            "setup_s": (setup_s, "s"), "wall_s": (wall, "s"),
            "op_p50_ms": (wall * 1000.0, "ms"),
            "op_p90_ms": (wall * 1000.0, "ms"),
            "peak_rss_mb": (child.rss_mb, "MB")}
        result["samples"] = {"op_ms": [wall * 1000.0]}
        result["info"].update(raw_wall_s=child.wall_s,
                              speed_factor=stats["factor"])
        return result

    import tracing

    plain_wall, _, _ = measured(False)
    traced_wall, _, stats = measured(True)
    tracer = tracing.Tracer.merge_json([stats["trace"]])
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    result["metrics"] = metrics
    result["problems"] += tracing.self_time_problems(tracer, stats["wall_s"])
    result["info"]["traced_in_process_wall_s"] = stats["wall_s"]
    return result
