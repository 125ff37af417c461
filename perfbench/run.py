"""The heckekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see perfbench/README.md):

    gl15-synth-certify  one `certify` process on a seeded synthetic
                        78-letter GL15-shaped word (2^23 leaves)
    oracle-s5           a seeded batch of S_4/S_5 oracle operations in one
                        fresh process
    cli-short           short `python -m heckekit.cli` processes, including
                        rejected inputs

Each is driven closed-loop by one client.  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, plus the overhead of tracing against an untraced
run of the same inputs.  The line before it records the environment, the
sample counts and quartiles.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import calibrate
import harness

WORKLOADS = ("gl15-synth-certify", "oracle-s5", "cli-short")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (harness.SRC / "heckekit" / "cli.py").is_file():
        print(f"perfbench: no heckekit sources under {harness.SRC}; run "
              f"from the root of a heckekit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    calibrate.pin_to_one_cpu()

    if args.workload == "gl15-synth-certify":
        import wl_gl15 as workload
    elif args.workload == "oracle-s5":
        import wl_oracle as workload
    else:
        import wl_cli as workload
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)

    for problem in result["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    samples = {k: harness.quartiles(v)
               for k, v in result.get("samples", {}).items()}
    info = result.get("info", {})
    if args.trace:
        import tracing

        info["not_traced_inside"] = tracing.OPAQUE
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": harness.environment(),
                      "samples": samples, "info": info},
                     sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
