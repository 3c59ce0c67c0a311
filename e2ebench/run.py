#!/usr/bin/env python3
"""Builds the e2ebench binary from source and runs one benchmark run.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload tenant_stream --seed 1 --seconds 30 --trace 0

The arguments pass through to the binary, which prints its result as one
JSON object on the last line of standard output. Build output goes to
standard error. The build lands in $CARGO_TARGET_DIR, by default
`.bench_build` under the checkout root.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The repository crates the benchmark builds against.
REQUIRED = ["Cargo.toml", "crates/core/Cargo.toml", "crates/obs/Cargo.toml"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not inside a full checkout: missing {', '.join(missing)}")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "e2ebench")
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
