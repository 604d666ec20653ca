#!/usr/bin/env python3
"""Builds the dps-scope benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-550d --seed 2016 --seconds 10 --trace 0

The release build goes to $CARGO_TARGET_DIR (default `.bench_build`).
`--trace 0` runs the untraced binary, which prints the end-to-end
metrics; `--trace 1` runs the traced binary (counting allocator, spans),
which prints the per-layer metrics. The last line of standard output is
the result object; the exit code is the binary's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = "0"
    for i, arg in enumerate(argv):
        if arg == "--trace" and i + 1 < len(argv):
            trace = argv[i + 1]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    name = "perfbench-traced" if trace == "1" else "perfbench"
    binary = os.path.join(target, "release", name)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
