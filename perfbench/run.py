#!/usr/bin/env python3
"""Builds and runs the qross end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload tune|solve-open|solve-warm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/ (a CMake package that compiles the repository's own qross_core)
into .bench_build/perfbench; later calls only re-check the build.  The
benchmark's output passes through unchanged: its last line is the JSON
result, printed only when every output check passed.  Any failure — build,
environment guard, output check, timeout — exits non-zero without a result.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
WORK_DIR = pathlib.Path(".bench_build") / "perfbench-work"
WORKLOADS = ("tune", "solve-open", "solve-warm")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then lets the build tool re-check what changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("error: no qross sources next to perfbench/ "
                 "(run from the root of a full checkout)")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "qross_perfbench", "--parallel", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "qross_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"error: build failed: {e}")

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # run() has killed the child and waited for it; no result is printed.
        sys.exit(f"error: benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Keep the traced run's span file; drop the cache journal and socket.
        for spans in work.glob("spans-*.json"):
            spans.replace(WORK_DIR / spans.name)
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(f"error: benchmark exited with {result.returncode}")


if __name__ == "__main__":
    main()
