#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload <served_warm|served_cold|large_pool> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), offline,
against the repository's crates by path. The last line of stdout is the
benchmark's JSON result; build output and diagnostics go to stderr. Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target, "release", "rascad-perfbench")
    # glibc keeps freed large blocks in per-thread arenas, so peak RSS
    # would follow fragmentation; a fixed mmap threshold returns them and
    # makes peak_rss_mb track live memory. Same setting on every commit.
    env.setdefault("MALLOC_MMAP_THRESHOLD_", "131072")
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
