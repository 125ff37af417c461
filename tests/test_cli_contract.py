"""The CLI contract, on one seeded batch of generated argvs.

Every argv exits 0, 1, 2 or 3; exit 0 prints JSON on stdout; exit 2 (bad
input) starts stderr with `heckekit:` or argparse's `usage:`.  Any other
exception, such as a TypeError from an unchecked input, escapes
`cli.main` and fails the test with its traceback.  The argvs mix valid
and invalid tokens over every subcommand, with n <= 5 and words of up to
6 letters; `validate-word` and `certify` read small generated word-data
files.  On exit 0, `deodhar` and `defect-stats` are checked against the
subexpression oracle of `tests/oracles.py`, with and without
--forced-letters.
"""
import itertools
import json
import random
from collections import Counter

from heckekit import cli
from oracles import aggregate, forced_slots

SUBCOMMANDS = ("kl", "skl", "bs", "pair", "deodhar", "defect-stats",
               "demazure-eval", "intersection-form", "perverse-check",
               "validate-word", "certify")


def _token(rng, n):
    """A letter: mostly a generator of S_n, sometimes out of range or not
    a number at all."""
    if rng.random() < 0.93:
        return rng.choice(("", "s")) + str(rng.randint(1, max(1, n - 1)))
    return rng.choice(("0", str(n), "s", "x", "-1", "1.5", "٣"))


def _letters(rng, n, most=6):
    return rng.choice((" ", ",")).join(
        _token(rng, n) for _ in range(rng.randint(0, most)))


def _perm(rng, n):
    if rng.random() < 0.85:
        return ",".join(map(str, rng.sample(range(1, n + 1), n)))
    return rng.choice(("", "1,1", "0", "a", "1,2"))


def _expr(rng):
    """A short prefix text: usually a chain the parser reads, sometimes
    one whose degrees do not balance, sometimes not a chain at all."""
    if rng.random() < 0.1:
        return rng.choice(("paper-GL15", "D1 (", "D0 ( x1 )", "( )", "x1 )"))
    ops = [f"D{rng.randint(1, 3)}" for _ in range(rng.randint(1, 3))]
    units = len(ops) - 1 + rng.choice((0, 0, 0, 1))
    atoms = [rng.choice(("a", "x")) + str(rng.randint(1, 3))
             for _ in range(units)]
    return " ".join(ops) + " ( " + (" * ".join(atoms) or "1") + " )"


def _word_file(rng, tmp_path, k):
    n = rng.randint(3, 5)
    gens = list(range(1, n))
    B = [g for g in gens if rng.random() < 0.3]
    A = [g for g in gens if g not in B and rng.random() < 0.5]
    data = {"n": n, "word": [rng.choice(gens)
                             for _ in range(rng.randint(0, 6))],
            "A": A, "B": B, "degree": rng.choice((-1, 0, 1))}
    if rng.random() < 0.15:
        data[rng.choice(("n", "word", "A"))] = rng.choice((0, "x", [0], None))
    path = tmp_path / f"word{k}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _argv(rng, command, tmp_path, k):
    n = rng.randint(1, 5)
    rank = str(n) if rng.random() < 0.9 else rng.choice(("0", "x", "256"))
    parabolic = _letters(rng, n, 3)
    if command in ("kl", "skl"):
        argv = [command, "--n", rank]
        if command == "skl":
            argv += ["--parabolic", parabolic]
        if rng.random() < 0.5:
            return argv + ["--element", _letters(rng, n)]
        return argv + ["--perm", _perm(rng, n)]
    if command in ("bs", "pair", "perverse-check"):
        argv = [command, "--n", rank, "--word", _letters(rng, n)]
        if command == "pair":
            argv += ["--word2", _letters(rng, n)]
        if rng.random() < 0.5:
            argv += ["--parabolic", parabolic]
        return argv
    if command in ("deodhar", "defect-stats"):
        argv = [command, "--n", rank, "--parabolic", parabolic,
                "--word", _letters(rng, n)]
        if rng.random() < 0.6:
            argv += ["--forced-letters", _letters(rng, n, 3)]
        if command == "defect-stats" and rng.random() < 0.4:
            argv += ["--endpoint", _perm(rng, n)]
        return argv
    if command == "demazure-eval":
        argv = [command, "--expr", _expr(rng)]
        if rng.random() < 0.4:
            argv += ["--erase", str(rng.randint(0, 4))]
        return argv
    if command == "intersection-form":
        return [command, "--expr", _expr(rng),
                "--p", rng.choice(("2", "3", "4", "7"))]
    word = (rng.choice(("demo-s4-pass", "demo-s4-fail", "gl15-partial"))
            if rng.random() < 0.2 else _word_file(rng, tmp_path, k))
    if command == "validate-word":
        return [command, "--word", word]
    return [command, "--word", word, "--expr",
            rng.choice(("paper-GL15", "D1 ( 1 )", "D1 D2 ( a1 )"))]


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejected the argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _words(text):
    return [int(t.lstrip("s")) for t in text.replace(",", " ").split()]


def _argument(argv, flag, default=""):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_against_the_oracle(argv, payload):
    n = int(_argument(argv, "--n"))
    word = _words(_argument(argv, "--word"))
    A = set(_words(_argument(argv, "--parabolic")))
    letters = set(_words(_argument(argv, "--forced-letters")))
    forced = {k for k, t in enumerate(word) if t in letters}
    want = aggregate(word, n, A, forced_slots(len(word), forced))
    if argv[0] == "deodhar":
        assert payload["subexpressions"] == 2 ** (len(word) - len(forced))
        assert payload["expansion"]["coeffs"] == {
            ",".join(map(str, z)): {str(d): str(c)
                                    for d, c in sorted(hist.items())}
            for z, hist in sorted(want.items())}
        return
    if "--endpoint" in argv:
        endpoint = tuple(map(int, _argument(argv, "--endpoint").split(",")))
        hists = [want.get(endpoint, {})]
    else:
        hists = want.values()
    total = Counter()
    for hist in hists:
        total.update(hist)
    assert payload == {str(d): c for d, c in sorted(total.items())}


def test_cli_contract_on_seeded_argvs(tmp_path, capsys):
    rng = random.Random(2026)
    codes = Counter()
    checked = Counter()
    for k, command in enumerate(itertools.islice(
            itertools.cycle(SUBCOMMANDS), 660)):
        argv = _argv(rng, command, tmp_path, k)
        code, out, err = _run(argv, capsys)
        assert code in (0, 1, 2, 3), argv
        codes[command, code] += 1
        if code == 0:
            payload = json.loads(out)
            if command in ("deodhar", "defect-stats"):
                _check_against_the_oracle(argv, payload)
                checked[command, "--forced-letters" in argv] += 1
        elif code == 2:
            assert err.startswith(("heckekit:", "usage:")), (argv, err)
    # the batch reaches success and rejection on every subcommand, and the
    # oracle check runs with and without forced letters
    for command in SUBCOMMANDS:
        assert codes[command, 0] + codes[command, 1] > 0, command
        assert codes[command, 2] > 0, command
    assert min(checked.values()) >= 5 and len(checked) == 4, checked
