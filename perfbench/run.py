#!/usr/bin/env python3
"""Scal-Tool benchmark entry point.

    python3 perfbench/run.py --workload <cold-campaign|serve-mix>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (which compiles the
scaltool library from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs one measurement in a scratch
directory under the build directory, and relays the result: the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Exact counts are kept per workload, seed and mode
under the build directory, so a later run with the same seed that reads
different counts reports the drift as a failure. Build output goes to
standard error. Exits non-zero, without a result, when the build or the
run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold-campaign", "serve-mix")


def build(source: Path, build_dir: Path) -> Path:
    """Configures (once) and builds the perfbench target; returns it.

    Exact counts stored by earlier runs describe the binary that made
    them, so they are dropped whenever the build produces a new one.
    """
    binary = build_dir / "perfbench"
    before = binary.stat().st_mtime_ns if binary.exists() else None
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    if binary.stat().st_mtime_ns != before:
        shutil.rmtree(build_dir / "counts", ignore_errors=True)
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    try:
        binary = build(source, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = build_dir / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir),
             "--counts-dir", str(build_dir / "counts")],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run exited {run.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
