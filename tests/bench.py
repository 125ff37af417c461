"""Time heckekit's command-line runs end to end, in this tree and, with
--against, in another.

Run from the root of a checkout as

    python tests/bench.py [--against OTHER_TREE] [--reps K] [--out PATH]
                          [--cases NAME ...]

Each case (CASES) is one child process, `python -m heckekit.cli` on a
tree's copy (`launch_env`), or a bare interpreter as a baseline.
The child's stdout and stderr go to files in a temporary directory that
also holds the synthetic word, and the parent never reads them, so it
stays small: a child forked from a large parent can report the parent's
pages as its own peak.  CPU time (user plus system) and peak RSS
(`ru_maxrss`) are the child's own, from `os.wait4`; wall time is taken
around the spawn and the wait.  Every child compiles what it imports,
as one on a fresh checkout does.

With --against, every rep runs each case once in each tree, the two
runs back to back, and the order flips on each rep, so that a drift of
the host falls on both trees alike.  A case must exit with the same code
in every run.

The result, written to PATH (default BENCH.json) as JSON: the machine,
the Python version, and the commit and `src` code lines
(`test_src_product_paths.code_lines`) of each tree; per case, its argv,
each tree's exit code and, per metric (wall_s, cpu_s, peak_rss_mb), the
runs, their median and quartiles; and, with --against, the ratio of the
medians (this tree over OTHER_TREE), the number of reps in which this
tree was slower and a `verdict`.  A timing is a record, not a gate: no
test reads one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_trees import launch_env, synthetic_word
from test_src_product_paths import code_lines

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

#: the reduced word of the longest element of S_8
W0_S8_WORD = ",".join(str(i) for top in range(7, 0, -1)
                      for i in range(1, top + 1))

#: name -> argv; "{synth1}" stands for the path of synthetic seed 1, and
#: an argv that starts with "-" goes to the bare interpreter
CASES = {
    "certify-gl15-reconstructed": ["certify", "--word",
                                   "gl15-reconstructed"],
    "certify-synth1": ["certify", "--word", "{synth1}"],
    "certify-demo-s4-fail": ["certify", "--word", "demo-s4-fail"],
    "intersection-form-paper-GL15": ["intersection-form", "--expr",
                                     "paper-GL15"],
    "kl-w0-s8": ["kl", "--n", "8", "--perm", "8,7,6,5,4,3,2,1"],
    "bs-w0-s8": ["bs", "--n", "8", "--word", W0_S8_WORD],
    "python-c-pass": ["-c", "pass"],
    "python-S-c-pass": ["-S", "-c", "pass"],
}

METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def _command(argv: list[str], workdir: Path) -> list[str]:
    argv = [a.replace("{synth1}", str(workdir / "synth1.json"))
            for a in argv]
    if argv[0].startswith("-"):
        return [sys.executable, *argv]
    return [sys.executable, "-m", "heckekit.cli", *argv]


def run_once(command: list[str], env: dict[str, str], workdir: Path
             ) -> tuple[int, dict[str, float]]:
    """One child: its exit code, and its wall time, CPU time and peak
    RSS."""
    with open(workdir / "out", "wb") as out, open(workdir / "err",
                                                  "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, cwd=workdir, stdout=out,
                                stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, {
        "wall_s": round(wall, 4),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def _commit(tree: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": runs}


def verdict(here: list[float], there: list[float]) -> str:
    """"faster" when `here` reads lower than `there` in at least nine
    tenths of the pairs, a tie counting for neither, and its median is
    lower by more than the distance between `there`'s quartiles;
    "slower" when the same holds the other way round; else, and always
    with fewer than ten pairs, "unresolved".  A lower peak_rss_mb is
    "faster" too."""
    if len(here) < 10:
        return "unresolved"
    ours, theirs = _summary(here), _summary(there)
    gap = theirs["median"] - ours["median"]
    spread = theirs["q3"] - theirs["q1"]
    for word, sign in (("faster", 1), ("slower", -1)):
        wins = sum(sign * (b - a) > 0 for a, b in zip(here, there))
        if 10 * wins >= 9 * len(here) and sign * gap > spread:
            return word
    return "unresolved"


def bench(names: list[str], reps: int, trees: dict[str, Path]) -> dict:
    """Per case of `names`: each tree's exit code and metric summaries,
    and, with two trees, the ratio of the medians, the reps in which
    "here" was slower and the `verdict` on "here"."""
    order = list(trees)
    runs = {name: {tag: [] for tag in order} for name in names}
    codes: dict[tuple[str, str], int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "synth1.json").write_text(json.dumps(synthetic_word(1)))
        # Paths of one length: the same source read 70.2 and 69.1 MB peak
        # RSS on synthetic seed 1 from paths of 19 and 22 characters.
        envs = {tag: launch_env(tree, workdir / f"src{k}")
                for k, (tag, tree) in enumerate(trees.items())}
        for rep in range(reps):
            for name in names:
                command = _command(CASES[name], workdir)
                for tag in order if rep % 2 == 0 else order[::-1]:
                    code, got = run_once(command, envs[tag], workdir)
                    if codes.setdefault((name, tag), code) != code:
                        raise SystemExit(f"{name} exited {code} in {tag}, "
                                         f"{codes[name, tag]} before")
                    runs[name][tag].append(got)
    cases = {}
    for name in names:
        case = {"argv": CASES[name], "trees": {}}
        for tag in order:
            case["trees"][tag] = {"exit": codes[name, tag], **{
                m: _summary([r[m] for r in runs[name][tag]])
                for m in METRICS}}
        if len(order) == 2:
            here, there = (case["trees"][tag] for tag in order)
            case["ratio"] = {m: round(here[m]["median"] / there[m]["median"],
                                      3) if there[m]["median"] else None
                             for m in METRICS}
            case["here_slower_reps"] = {
                m: sum(a[m] > b[m] for a, b in zip(*runs[name].values()))
                for m in METRICS}
            case["verdict"] = {m: verdict(here[m]["runs"], there[m]["runs"])
                               for m in METRICS}
        cases[name] = case
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path,
                        help="the root of another tree to alternate with")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--cases", nargs="+", choices=list(CASES),
                        default=list(CASES))
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    trees = {"here": ROOT}
    if args.against is not None:
        trees["against"] = args.against.resolve()
    for tree in trees.values():
        if not (tree / "src" / "heckekit").is_dir():
            parser.error(f"{tree} has no src/heckekit")
    cases = bench(args.cases, args.reps, trees)
    record = {
        "machine": {"system": platform.system(),
                    "release": platform.release(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "trees": {tag: {"path": str(tree), "commit": _commit(tree),
                        "code_lines": sum(
                            code_lines(path.read_text()) for path in
                            (tree / "src" / "heckekit").glob("*.py"))}
                  for tag, tree in trees.items()},
        "reps": args.reps,
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, case in cases.items():
        medians = {tag: case["trees"][tag]["cpu_s"]["median"]
                   for tag in trees}
        print(f"{name}: cpu_s medians {medians}"
              + (f", ratio {case['ratio']['cpu_s']}, "
                 f"{case['verdict']['cpu_s']}" if "ratio" in case else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
