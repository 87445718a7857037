#!/usr/bin/env python3
"""Run-to-run spread of each end-to-end metric, next to its bound.

Run from the repository root:

    python3 perfbench/spread.py <workload> <first seed> [runs]

Runs perfbench/run.py `runs` times (default 10) on consecutive seeds with
BENCHMARK.json's run_seconds and prints, for each end-to-end metric, the
median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    workload, first = sys.argv[1], int(sys.argv[2])
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{m['name']:20s} median {med:14.4f}  spread {(q[2] - q[0]) / med:6.3f}"
              f"  bound {m['bound']}")


if __name__ == "__main__":
    main()
