#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <card-clean|cache-sweep|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The release build goes to
$CARGO_TARGET_DIR, or to .bench_build/ in the repository root when that
is unset; cargo's own output goes to stderr, so the last line of stdout
is the benchmark's JSON summary. The exit code is the benchmark's: 0 when
every cell or shard passed the correctness gate, 1 when one failed, 2 on
a usage error or when the workspace sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The benchmark must exit within 180 s; stop it a little before that.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        sys.stderr.write("perfbench: the mobistore workspace (Cargo.toml, crates/) "
                         f"is missing from {ROOT}; nothing to build\n")
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: no result within {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
