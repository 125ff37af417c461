"""Tests of the benchmark's own parts: generator, references, tracing."""
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import reference
import synth
import tracing
import wl_cli
import wl_oracle
from heckekit import cli, coxeter, demazure, subexpr, worddata

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_synthetic_words_are_census_valid(seed):
    for raw in itertools.islice(synth.candidates(seed), 3):
        wd = worddata.parse_word_data(raw)
        report = worddata.validate_word_data(wd)
        assert report.ok and report.complete, report.to_json_dict()
        assert "synthetic" in raw["_comment"][0]
        assert raw["A"] == [1, 2, 3, 4] and raw["B"] == list(range(5, 15))
        word = raw["word"]
        assert len(word) == 78 and tuple(word[:44]) == synth.PREFIX
        assert sum(t <= 3 for t in word) == 12
        assert sum(t == 4 for t in word) == 11
        # the B-letters alone spell a reduced word for w_B
        b_letters = [t for t in word if t >= 5]
        assert coxeter.is_reduced(b_letters, 15)
        assert coxeter.evaluate_word(b_letters, 15) == \
            coxeter.longest_element(synth.B, 15)


def test_synthetic_words_depend_only_on_seed():
    first = next(synth.candidates(5))
    assert first == next(synth.candidates(5))
    assert first["word"] != next(synth.candidates(6))["word"]


def _forced_instance(rng):
    """A small (word, A, B) shaped like the certificate: A and B
    disjoint, letters of B forced to 1."""
    n = rng.choice((4, 5))
    gens = list(range(1, n))
    B = [g for g in gens if rng.random() < 0.4]
    A = [g for g in gens if g not in B and rng.random() < 0.5]
    word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 11)))
    return n, word, A, B


def test_reference_fold_matches_sweep():
    rng = random.Random(2024)
    for _ in range(60):
        n, word, A, B = _forced_instance(rng)
        constraint = subexpr.EnumConstraint.forced_letters(word, B)
        want = subexpr.sweep(word, n, A, constraint)
        forced = {k for k, t in enumerate(word) if t in B}
        got = reference.constrained_fold(word, n, A, forced)
        assert {tuple(z): h for z, h in got.items()} == want, \
            (n, word, A, B)


def test_bruhat_filter_matches_rank_tables():
    rng = random.Random(7)
    perms = list(coxeter.all_permutations(5))
    for _ in range(20):
        x, w = rng.choice(perms), rng.choice(perms)
        zs = rng.sample(perms, 40) + [x, w]
        got = reference.bruhat_between([bytes(z) for z in zs], bytes(x),
                                       bytes(w), chunk=7)
        want = [z != x and coxeter.bruhat_leq(x, z)
                and coxeter.bruhat_leq(z, w) for z in zs]
        assert got == want


def test_demazure_reference_matches_readme_and_package():
    text = demazure.PAPER_GL15_TEXT
    assert reference.demazure_vector(text) == reference.README_VECTOR
    rng = random.Random(3)
    for _ in range(15):
        variant = wl_oracle.gl15_variant(rng)
        report = demazure.intersection_vector(demazure.parse_expr(variant))
        assert reference.demazure_vector(variant) == report.entries
    for text in ("D3 ( a4^2 )", "D1 D2 ( a2^3 * x1 )", "x2 * D1 ( x2^2 )"):
        got = reference.demazure_eval(text)
        assert got == demazure.eval_expr(demazure.parse_expr(text)).terms


def test_demazure_reference_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x1:6")
    # D1 D2 (a2^3 * x1) by direct rational simplification
    f = (x[2] - x[1]) ** 3 * x[0]

    def dd(g, i):
        swapped = g.subs({x[i - 1]: x[i], x[i]: x[i - 1]}, simultaneous=True)
        return sympy.cancel((g - swapped) / (x[i] - x[i - 1]))

    want = sympy.Poly(sympy.expand(dd(dd(f, 2), 1)), *x)
    got = reference.demazure_eval("D1 D2 ( a2^3 * x1 )")
    assert {e[:5] + (0,) * (5 - len(e)): c for e, c in got.items()} == \
        {tuple(m): int(c) for m, c in zip(want.monoms(), want.coeffs())}


def test_oracle_batch_is_correct_and_balanced():
    data = wl_oracle.worker(seed=11, seconds=1, trace=False)
    assert data["attempted"] >= 100
    assert data["failed"] == 0, data["problems"][:3]
    kinds = {k for k, _ in data["latencies"]}
    assert kinds == set(wl_oracle.KINDS)


def test_oracle_checks_reject_wrong_results():
    from heckekit.laurent import LaurentPoly

    one, two = LaurentPoly({0: 1}), LaurentPoly({0: 2})
    assert not wl_oracle.check_op("pair-adjoint", (), (one, two), {})
    assert not wl_oracle.check_op("deodhar-vs-bs", (), False, {})
    text = demazure.PAPER_GL15_TEXT
    report = demazure.intersection_vector(demazure.parse_expr(text))
    report.entries[8] = -2      # the published tuple's entry 9
    refs = {text: reference.demazure_vector(text)}
    assert not wl_oracle.check_op("gl15-variant", (text,), report, refs)


def test_cli_batch_covers_every_subcommand():
    cases, ops = wl_cli.make_batch(seed=4, seconds=1)
    assert len(ops) >= wl_cli.MIN_OPS
    used = {argv[0] for _, _, argv in ops}
    parser_cmds = set(cli.build_parser()._subparsers._group_actions[0]
                      .choices)
    assert used == parser_cmds
    again = wl_cli.make_batch(seed=4, seconds=1)[1]
    assert again == ops


def test_self_times_sum_within_traced_wall():
    tracer = tracing.Tracer()
    tracer.install(tracing.standard_hooks(tracer))
    try:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(["certify", "--word", "demo-s4-fail",
                             "--threads", "1"])
            for kind, args in wl_oracle.make_batch(3, 1)[:60]:
                wl_oracle.run_op(kind, args)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert code == 1 and json.loads(buf.getvalue())["verdict"] is False
    selfs = tracer.layer_self_s()
    assert all(v >= 0 for v in selfs.values())
    assert 0 < sum(selfs.values()) <= wall
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["subexpr.sweep.calls"][0] >= 1
    assert metrics["laurent.new.calls"][0] > 0
    # v_power is reached through `from .laurent import v_power`
    assert tracer.calls("laurent.v_power") > 0
    # uninstall restores the originals
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(demazure.MultiPoly.__mul__, "__wrapped__")


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_uses_samples_around_the_interval():
    import calibrate

    sampler = calibrate.Sampler()
    ref = calibrate.REF_KERNEL_S
    # 1 s at reference speed, then 1 s at half speed
    sampler.times = [k * 0.02 for k in range(100)]
    sampler.durations = [ref] * 50 + [2 * ref] * 50
    assert sampler.factor(0.2, 0.3) == 1.0
    assert sampler.factor(1.5, 1.6) == 0.5
    assert sampler.factor(5.0, 6.0) == 2 / 3   # no sample near: all
    assert sampler.scaled_total(0.0, 1.98) == pytest.approx(1.5, abs=0.05)
    live = calibrate.Sampler().start()
    time.sleep(0.1)
    live.stop()
    assert len(live.durations) >= 2 and live.factor(0.0, 1e9) > 0
