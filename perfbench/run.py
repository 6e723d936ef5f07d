#!/usr/bin/env python3
"""Builds the `ec` binary and the benchmark from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload review|pipeline|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`), offline. Build output goes to standard error; the
benchmark's last line of standard output is its JSON result. Exits non-zero
without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, *extra):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(command)}")


def main():
    target = os.path.abspath(os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    # The program under test is the repository's own `ec` binary, built the
    # way its workspace builds it.
    cargo_build(os.path.join(ROOT, "Cargo.toml"), "-p", "ec-cli", "--bin", "ec")
    cargo_build(os.path.join(HERE, "Cargo.toml"))
    bench = os.path.join(target, "release", "perfbench")
    command = [bench, *sys.argv[1:],
               "--ec", os.path.join(target, "release", "ec"),
               "--out", os.path.join(HERE, "out")]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
