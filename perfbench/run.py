#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload train-all|stream-serve|serve-static \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary under .bench_build/perfbench (CMake, Release);
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, with
no result, when the checkout has no library sources or the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build() -> Path:
    if not (ROOT / "src" / "embedding" / "trainer.hpp").is_file():
        sys.exit("perfbench: no library sources under src/; "
                 "run from the root of a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([str(binary), *sys.argv[1:]],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
