#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size tiny|full]

Run from the repository root.  The first run configures and builds the
library sources in src/ together with the benchmark program in an
optimised build under .bench_build/perfbench (a few minutes); later runs
only check that the build is current.  Build output goes to stderr, so
the last line on stdout is the benchmark's result object.  Work files and
span dumps go to .bench_out/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "pipeline_bench"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", str(BUILD), "--target",
                     "pipeline_bench", "-j", jobs]):
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    OUT.mkdir(exist_ok=True)
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        result = subprocess.run([str(BINARY), *argv, "--out", str(OUT)],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
