#!/usr/bin/env python3
"""Builds the store-path benchmark from source and runs it once.

    python3 storebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. Cargo's output goes to standard
error, so the benchmark's result stays the last line of standard output.
The build goes to $CARGO_TARGET_DIR when set, else storebench/target.
Traced runs write their spans under storebench/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run bounds itself well below this; the limit only guards against a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        check=False,
    )
    if build.returncode != 0:
        print("storebench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "storebench")
    command = [binary, *sys.argv[1:], "--span-dir", os.path.join(HERE, "out")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"storebench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
