#!/usr/bin/env python3
"""Layered serving benchmark for `kreach serve`.

Run from the repository root:

    python3 perfbench/run.py --workload <get-uniform|durable-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `kreach` and the benchmark harness (perfbench/Cargo.toml) from source
into $CARGO_TARGET_DIR (default .bench_build), then runs the harness. With
--trace 0 the harness drives the real `kreach serve` and prints end-to-end
metrics; with --trace 1 it replays the same inputs in-process and prints
per-layer metrics. Build output goes to stderr; the last stdout line is the
result JSON. Scratch files (graph, data dir, server log, span dump) go to
.bench_out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("run.py: run from the repository root (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "kreach"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "kreach-perfbench")
    kreach = os.path.join(release, "kreach")
    return subprocess.run([harness, *sys.argv[1:], "--kreach", kreach]).returncode


if __name__ == "__main__":
    sys.exit(main())
