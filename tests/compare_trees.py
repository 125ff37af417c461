"""Compare heckekit's command-line output between this tree and another.

Run from the root of a checkout as

    python tests/compare_trees.py OTHER_TREE [--subset certify|all]

OTHER_TREE is the root of another checkout (one with `src/heckekit`).
Each argv of the catalogue runs through `python -m heckekit.cli` twice,
on copies of this tree's `src` and OTHER_TREE's (`launch_env`), both runs
at once, in one temporary directory that holds the catalogue's word
files.  The two runs must agree byte for byte on stdout, stderr and the
exit code.  The stdout of `certify` is compared with its "timings"
object cut out (`cut_timings`): that one key is found and its value
parsed with `json.JSONDecoder.raw_decode`, and nothing else of the
report is decoded.  Outputs go to files and are compared by SHA-256;
only when two differ are both read, to report the first byte where
they part.

The catalogue (`catalogue`):
- `certify`, the "certify" subset: no word, the four builtin words,
  `test_cli`'s 24 seeded words (`_failing_word_files` and
  `_forced_run_word_files`, 12 each), synthetic seeds 1-3
  (`synthetic_word`, the first draw of `perfbench/synth.py` from each
  seed) and `test_cli`'s word of n = 120, each compact and `--pretty`,
  at `--p 2` and `--p 3`;
- and, in "all", the 660 argvs that `test_cli_contract` generates at its
  seed, accepted and rejected alike, with the word files it writes;
- then the inputs that neither set reaches (`gap_argvs`): an `--expr`
  file, a `--word` path that is no file, each rejection of
  `demazure.parse_expr` and each field error of word data.

Every argv that differs is printed with its first difference, and the
last line is the summary, `compare_trees: N argvs (SUBSET) against
OTHER_TREE: K differ in stdout (timings cut), stderr or exit code`.  The
exit status is 1 if any argv differs.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

#: the seed of `test_cli_contract`'s batch
CONTRACT_SEED = 2026

#: `test_cli`'s word of n = 120, whose values take three digits
WIDE_WORD = {"n": 120, "word": [1, 2, 3, 119], "A": [], "B": [119]}

BUILTIN_WORDS = ("demo-s4-fail", "demo-s4-pass", "gl15-partial",
                 "gl15-reconstructed")


def launch_env(tree: Path, into: Path) -> dict[str, str]:
    """Copy `tree`'s `src` to `into` without `__pycache__`; return the
    environment of a child that runs the copy and writes no bytecode."""
    shutil.copytree(tree / "src", into,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {**os.environ, "PYTHONPATH": str(into),
            "PYTHONDONTWRITEBYTECODE": "1"}


@functools.cache
def _synth():
    """`perfbench/synth.py`, imported from its file and left as it is."""
    spec = importlib.util.spec_from_file_location(
        "synth", ROOT / "perfbench" / "synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_word(seed: int) -> dict:
    """Synthetic seed `seed`: the first word data that
    `perfbench/synth.py` draws from it, as decoded JSON."""
    return next(_synth().candidates(seed))


def certify_argvs(workdir: Path) -> list[list[str]]:
    """The "certify" subset, with its word files written into
    `workdir`."""
    from test_cli import _failing_word_files, _forced_run_word_files

    words = [None, *BUILTIN_WORDS, *_failing_word_files(workdir, 12),
             *_forced_run_word_files(workdir, 12)]
    for name, raw in [(f"synth{seed}", synthetic_word(seed))
                      for seed in (1, 2, 3)] + [("wide", WIDE_WORD)]:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(raw))
        words.append(str(path))
    return [["certify", *(["--word", word] if word else []), "--p", p,
             *(["--pretty"] if pretty else [])]
            for word in words for p in ("2", "3") for pretty in (False, True)]


def contract_argvs(workdir: Path) -> list[list[str]]:
    """The argvs of `test_cli_contract`'s batch at CONTRACT_SEED, with
    the word files it writes put into `workdir`."""
    from test_cli_contract import SUBCOMMANDS, _argv

    rng = random.Random(CONTRACT_SEED)
    return [_argv(rng, command, workdir, k) for k, command in enumerate(
        itertools.islice(itertools.cycle(SUBCOMMANDS), 660))]


#: `--expr` files: the text of the builtin `paper-GL15`, a text that
#: does not parse, and bytes that do not decode
EXPR_FILES = {
    "expr-paper.txt": b"D1 D2 D3 ( a4 * D2 D3 ( a4^2 * D3 ( a4^2 * D1 D2 D3 "
                      b"( a4^2 * D2 D3 ( a4^2 * D3 ( a4^2 ) ) ) ) ) )\n",
    "expr-trailing.txt": b"D1 ( a2 ) )",
    "expr-binary.txt": b"D1 ( \xff )",
}

#: inline `--expr` texts, one per rejection of `demazure.parse_expr`: a
#: bad token, an index above MAX_VARIABLES, an exponent above
#: MAX_EXPONENT, a constant of more than 4,300 digits, a missing ")" and
#: trailing input
BAD_EXPRS = ("D1 ( a2 ? )", "D1 ( x256 )", "D1 ( a2^65 )",
             "D1 ( 1" + "0" * 4300 + " )", "D1 ( a2 x3 )", "D1 ( a2 ) )")

#: word-data files with one field error each: no JSON, no object, no
#: "n", "n" = 256, a bad "forced" and a census that is no object
BAD_WORD_FILES = {
    "word-text.json": "not json",
    "word-list.json": "[3, [1, 2]]",
    "word-no-n.json": '{"word": [1, 2]}',
    "word-n256.json": '{"n": 256, "word": [1]}',
    "word-forced.json": '{"n": 3, "word": [1, 2], "forced": "all"}',
    "word-census.json": '{"n": 3, "word": [1, 2], "census": [1]}',
}


def gap_argvs(workdir: Path) -> list[list[str]]:
    """Inputs that neither the "certify" subset nor the contract batch
    reaches, with their files written into `workdir`: `--expr` files
    (`EXPR_FILES`), `--word` paths that are no regular file, the
    rejections of `BAD_EXPRS` and the word-data field errors of
    `BAD_WORD_FILES`."""
    argvs = []
    for name, data in EXPR_FILES.items():
        path = workdir / name
        path.write_bytes(data)
        argvs += [["intersection-form", "--expr", str(path)],
                  ["demazure-eval", "--expr", str(path)]]
    argvs += [["validate-word", "--word", str(workdir / "no-such.json")],
              ["certify", "--word", str(workdir)]]
    argvs += [["demazure-eval", "--expr", text] for text in BAD_EXPRS]
    for name, text in BAD_WORD_FILES.items():
        path = workdir / name
        path.write_text(text)
        argvs.append(["validate-word", "--word", str(path)])
    argvs.append(["certify", "--word", str(workdir / "word-forced.json")])
    return argvs


def catalogue(subset: str, workdir: Path) -> list[list[str]]:
    argvs = certify_argvs(workdir)
    if subset == "all":
        argvs += contract_argvs(workdir) + gap_argvs(workdir)
    return argvs


def cut_timings(out: bytes) -> bytes:
    """A `certify` report without its "timings" key, value and the
    separator before them.  The keys are sorted, so "timings" is the
    last key but "verdict"; it is found from the end, and its value is
    parsed to find where it stops.  Text with no such key is returned
    as it is."""
    key = out.rfind(b'"timings":')
    if key < 0:
        return out
    tail = out[key:].decode()
    start = len('"timings":')
    start += len(tail[start:]) - len(tail[start:].lstrip())
    value, end = json.JSONDecoder().raw_decode(tail, start)
    if not isinstance(value, dict):
        return out
    return out[:out.rfind(b",", 0, key)] + tail[end:].encode()


def _read(path: Path, cut: bool) -> bytes:
    data = path.read_bytes()
    return cut_timings(data) if cut else data


def _digest(path: Path, cut: bool) -> bytes:
    """The SHA-256 of one output, read and cut alone, so that two large
    outputs are never held at once."""
    return hashlib.sha256(_read(path, cut)).digest()


def _first_difference(ours: bytes, theirs: bytes) -> str:
    at = next((k for k, (a, b) in enumerate(zip(ours, theirs)) if a != b),
              min(len(ours), len(theirs)))
    window = slice(max(0, at - 40), at + 40)
    return (f"byte {at} of {len(ours)} here, {len(theirs)} there: "
            f"{ours[window]!r} here, {theirs[window]!r} there")


def _start(env: dict[str, str], argv: list[str], workdir: Path, tag: str):
    out, err = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "heckekit.cli", *argv], cwd=workdir,
            stdout=stdout, stderr=stderr, env=env)
    return proc, out, err


def compare(other: Path, argvs: list[list[str]], workdir: Path,
            here: Path = ROOT) -> list[str]:
    """One line per argv whose runs on `here` and on `other` differ in
    stdout (timings cut for `certify`), stderr or exit code, naming the
    argv and its first difference; the trees' copies go into `workdir`."""
    problems = []
    envs = [(launch_env(tree, workdir / f"{tag}-src"), tag)
            for tree, tag in ((here, "here"), (other, "there"))]
    for argv in argvs:
        runs = [_start(env, argv, workdir, tag) for env, tag in envs]
        codes = [proc.wait() for proc, _, _ in runs]
        if codes[0] != codes[1]:
            problems.append(f"{argv}: exit code {codes[0]} here, "
                            f"{codes[1]} there")
            continue
        for stream, name in ((1, "stdout"), (2, "stderr")):
            cut = stream == 1 and argv[0] == "certify"
            if _digest(runs[0][stream], cut) != _digest(runs[1][stream], cut):
                ours, theirs = (_read(run[stream], cut) for run in runs)
                problems.append(f"{argv}: {name} differs at "
                                + _first_difference(ours, theirs))
                break
    return problems


def summary(count: int, subset: str, other: Path, differ: int) -> str:
    return (f"compare_trees: {count} argvs ({subset}) against {other}: "
            f"{differ} differ in stdout (timings cut), stderr or exit code")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path,
                        help="the root of the tree to compare with")
    parser.add_argument("--subset", choices=("certify", "all"),
                        default="all")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "heckekit").is_dir():
        parser.error(f"{other} has no src/heckekit")
    sys.dont_write_bytecode = True   # the catalogue imports heckekit
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argvs = catalogue(args.subset, workdir)
        problems = compare(other, argvs, workdir)
    for line in problems:
        print(line)
    print(summary(len(argvs), args.subset, other, len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
