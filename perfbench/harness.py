"""Process control shared by the workloads.

Every heckekit process runs in a pinned environment: `PYTHONPATH` points at
the checkout's `src/`, `HECKEKIT_THREADS`, `HECKEKIT_GL15_WORD` and
`PYTHONOPTIMIZE` are removed (so `divexact_alpha` keeps its `__debug__`
multiply-back check), and stdout goes to a file.  Peak RSS is read per
child from `os.wait4`.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH_DIR = Path(__file__).resolve().parent

DROPPED_ENV = ("HECKEKIT_THREADS", "HECKEKIT_GL15_WORD", "PYTHONOPTIMIZE",
               "PYTHONPATH")
SETUP_SAMPLES = 5


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "heckekit.cli", *args]


def run_cli(args: list[str], out: Path, trace: bool = False):
    """One heckekit CLI process through launch.py: (child, stats), where
    stats holds its speed factor and, when tracing, the span totals."""
    stats = out.with_suffix(".stats.json")
    child = run_child([sys.executable, str(BENCH_DIR / "launch.py"),
                       str(stats), *(["--trace"] if trace else []), "--",
                       *args], out)
    return child, json.loads(stats.read_text())


class Child:
    """Outcome of one finished process."""

    def __init__(self, code: int, wall_s: float, rss_mb: float, out: Path):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.out = out

    def stdout(self) -> str:
        return self.out.read_text()


def run_child(argv: list[str], out: Path, timeout: float = 170.0) -> Child:
    """Run argv to completion with stdout in `out`; wall time, exit code
    and this child's own peak RSS.  A child past `timeout` is killed."""
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=f, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out)


def setup_samples() -> list[float]:
    """SETUP_SAMPLES speed-scaled wall times of a fresh interpreter
    importing heckekit.cli.  Workloads take one set before and one after
    their timed part and report the median of both, so that the samples
    span the run.  One unmeasured import first writes the bytecode caches,
    as an installed package would have them."""
    out = WORK / "setup.out"
    argv = [sys.executable, "-c", "import heckekit.cli"]
    run_child(argv, out)
    ticks = calibrate.Ticks()
    walls = []
    for _ in range(SETUP_SAMPLES):
        ticks.tick()
        child = run_child(argv, out)
        if child.code != 0:
            raise RuntimeError("importing heckekit.cli failed")
        walls.append(child.wall_s)
    return [w * f for w, f in zip(walls, ticks.factors(SETUP_SAMPLES))]


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"n": len(values), "q1": v, "median": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (exclusive method, like statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def environment() -> dict:
    """Where a result was measured: interpreter, cores, CPU, source."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "src_sha256": digest.hexdigest()}
