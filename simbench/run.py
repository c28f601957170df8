#!/usr/bin/env python3
"""Builds and runs simbench, the simulator's end-to-end host-cost benchmark.

Run from the root of a source checkout:

    python3 simbench/run.py --workload ctms_b --seed 1 --seconds 20 --trace 0

The first call configures and builds simbench/ (and the simulator libraries it links) into
.bench_build/simbench, or into $CARGO_TARGET_DIR/simbench when that is set; later calls only
rebuild what changed. Build output goes to stderr, so the benchmark's last stdout line stays
its JSON result. With --trace 1 the span trace is written beside the binary as
trace-<workload>-seed<seed>.json (Chrome trace-event JSON; open it in Perfetto).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir(root: Path) -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = root / base
    return base / "simbench"


def build(source: Path, out: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "simbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"simbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"simbench: build step exited {done.returncode}: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    root = source.parent
    out = build_dir(root)
    if not build(source, out):
        return 1

    command = [str(out / "simbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(out / f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"simbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
