"""Run one heckekit CLI command as a measured process.

    python perfbench/launch.py STATS_JSON [--trace] -- <heckekit arguments>

Stdout and exit code are those of `python -m heckekit.cli <arguments>`.
The process pins itself to one CPU and samples its speed from the start
(see `calibrate`); with --trace every layer is wrapped (see `tracing`).
STATS_JSON receives the in-process wall time of the command, the mean
factor that scales this process's times to the reference speed, and the
span totals.
"""
from __future__ import annotations

import json
import sys
import time
import traceback

import calibrate


class CountingStdout:
    """Pass-through stdout that counts what the command prints."""

    def __init__(self, stream):
        self.stream = stream
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    stats_path, rest = sys.argv[1], sys.argv[2:]
    trace = rest[:1] == ["--trace"]
    argv = rest[rest.index("--") + 1:]
    calibrate.pin_to_one_cpu()
    t_begin = time.perf_counter()
    sampler = calibrate.Sampler().start()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.standard_hooks(tracer))
        sys.stdout = CountingStdout(sys.stdout)
    from heckekit import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejections
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:           # a crash is a failed operation, not ours
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    t_end = time.perf_counter()
    sampler.stop()
    # time-weighted mean speed factor over the life of the process
    factor = sampler.scaled_total(t_begin, t_end) / (t_end - t_begin)
    stats = {"wall_s": wall, "factor": factor}
    if tracer is not None:
        tracer.count("cli.emit_bytes", sys.stdout.chars)
        sys.stdout = sys.stdout.stream
        stats["trace"] = tracer.to_json()
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
