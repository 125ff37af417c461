"""Time heckekit's command-line runs end to end, in this tree and, with
--against, in another.

Run from the root of a checkout as

    python tests/bench.py [--against OTHER_TREE] [--reps K] [--out PATH]
                          [--cases NAME ...]

Each case (CASES) is one child process, `python -m heckekit.cli` with
PYTHONPATH set to a tree's `src`, or a bare interpreter as a baseline.
The child's stdout and stderr go to files in a temporary directory that
also holds the synthetic word, and the parent never reads them, so it
stays small: a child forked from a large parent can report the parent's
pages as its own peak.  CPU time (user plus system) and peak RSS
(`ru_maxrss`) are the child's own, from `os.wait4`; wall time is taken
around the spawn and the wait.  Before the timed runs, one untimed
child per tree imports every module, so that no timed run compiles
bytecode.

With --against, every rep runs each case once in each tree, the two
runs back to back, and the order flips on each rep, so that a drift of
the host falls on both trees alike.  A case must exit with the same code
in every run.

The result, written to PATH (default BENCH.json) as JSON: the machine,
the Python version and the commit of each tree; per case, its argv,
each tree's exit code and, per metric (wall_s, cpu_s, peak_rss_mb), the
runs, their median and quartiles; and, with --against, the ratio of the
medians (this tree over OTHER_TREE) and the number of reps in which this
tree was slower.  A timing is a record, not a gate: no test reads one.
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


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_once(command: list[str], tree: Path, workdir: Path
             ) -> tuple[int, dict[str, float]]:
    """One child: its exit code, and its wall time, CPU time and peak
    RSS."""
    with open(workdir / "out", "wb") as out, open(workdir / "err",
                                                  "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, cwd=workdir, stdout=out,
                                stderr=err, env=_env(tree))
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


def bench(names: list[str], reps: int, trees: dict[str, Path]) -> dict:
    """Per case of `names`: each tree's exit code and metric summaries,
    and, with two trees, the ratio of the medians and the reps in which
    "here" was slower."""
    from compare_trees import synthetic_word

    order = list(trees)
    runs = {name: {tag: [] for tag in order} for name in names}
    codes: dict[tuple[str, str], int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "synth1.json").write_text(json.dumps(synthetic_word(1)))
        for tree in trees.values():
            warm = [sys.executable, "-c",
                    "from heckekit import *; import heckekit.cli"]
            code, _ = run_once(warm, tree, workdir)
            if code:
                raise SystemExit(f"importing heckekit from {tree} failed")
        for rep in range(reps):
            for name in names:
                command = _command(CASES[name], workdir)
                for tag in order if rep % 2 == 0 else order[::-1]:
                    code, got = run_once(command, trees[tag], workdir)
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
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    cases = bench(args.cases, args.reps, trees)
    record = {
        "machine": {"system": platform.system(),
                    "release": platform.release(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "trees": {tag: {"path": str(tree), "commit": _commit(tree)}
                  for tag, tree in trees.items()},
        "reps": args.reps,
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, case in cases.items():
        medians = {tag: case["trees"][tag]["cpu_s"]["median"]
                   for tag in trees}
        print(f"{name}: cpu_s medians {medians}"
              + (f", ratio {case['ratio']['cpu_s']}" if "ratio" in case
                 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
