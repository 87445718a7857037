#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

1. `cargo test` of the harness: the exact-percentile and sample-count rule,
   per-seed deterministic inputs with a stationary edge count, span nesting
   and self time, and the durable read-window check.
2. A short smoke run of every workload through perfbench/run.py that must
   end in a correct result naming every end-to-end metric of BENCHMARK.json
   with its unit, and one traced run that must name every per-layer metric.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE_SECONDS = "12"


def check(result_line, expected, what):
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    got = result["metrics"]
    for m in expected:
        assert m["name"] in got, f"{what}: {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], f"{what}: {m['name']} unit"
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
    assert set(got) == {m["name"] for m in expected}, f"{what}: unexpected metrics"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip().splitlines()[-1]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                    os.path.join(HERE, "Cargo.toml")], env=env, check=True)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        check(run(w["name"], "0"), bench["end_to_end"], w["name"])
        print(f"smoke {w['name']}: every end-to-end metric printed", flush=True)
    first = bench["workloads"][0]["name"]
    check(run(first, "1"), bench["per_layer"], first + " traced")
    print(f"smoke {first} traced: every per-layer metric printed")


if __name__ == "__main__":
    main()
