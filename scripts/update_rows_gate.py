#!/usr/bin/env python3
"""Deterministic count gate for the dynamic update path.

Generates the AgroCyc stand-in graph at scale 1 (generator seed 7), writes a
seeded stream of single-edge updates in the `kreach update` format (inserts
of absent edges, removals of earlier inserts, and removals of original
edges), replays it with `kreach update --cache 0 --stats-json`, and fails
when `rows_per_update` -- forward k-BFS row recomputations per applied
update -- exceeds the `update_rows_per_update` bound in
docs/bench-targets.md. The figure is a count, not a timing, so it repeats
exactly on any machine.

    python3 scripts/update_rows_gate.py --kreach target/release/kreach \
        --targets docs/bench-targets.md --workdir /tmp/rows-gate
"""

import argparse
import json
import os
import subprocess
import sys

UPDATES = 3000
SEED = 7
K = 3
MASK = (1 << 64) - 1


class SplitMix64:
    """A fixed generator, so the stream does not depend on Python's RNG."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n


def read_graph(path):
    n, edges = 0, []
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            u, v = map(int, line.split()[:2])
            n = max(n, u + 1, v + 1)
            edges.append((u, v))
    return n, edges


def update_stream(n, edges, count, seed):
    """Every update applies: inserts pick absent edges, removals present ones."""
    rng = SplitMix64(seed)
    present = set(edges)
    originals = list(edges)
    live = []
    out = []
    while len(out) < count:
        roll = rng.below(8)
        if roll < 3 and live:
            u, v = live.pop(rng.below(len(live)))
            present.remove((u, v))
            out.append(f"- {u} {v}")
        elif roll == 3 and originals:
            u, v = originals.pop(rng.below(len(originals)))
            if (u, v) in present:
                present.remove((u, v))
                out.append(f"- {u} {v}")
        else:
            u, v = rng.below(n), rng.below(n)
            if u != v and (u, v) not in present:
                present.add((u, v))
                live.append((u, v))
                out.append(f"+ {u} {v}")
    return out


def read_bound(path):
    with open(path) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if cells and cells[0] == "update_rows_per_update":
                return float(cells[1])
    sys.exit(f"{path}: no update_rows_per_update row")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kreach", required=True, help="path to the kreach binary")
    parser.add_argument("--targets", required=True, help="docs/bench-targets.md")
    parser.add_argument("--workdir", required=True, help="directory for the inputs")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    graph = os.path.join(args.workdir, "gate-graph.txt")
    ops = os.path.join(args.workdir, "gate-updates.txt")
    stats = os.path.join(args.workdir, "gate-stats.json")
    subprocess.run(
        [args.kreach, "generate", "AgroCyc", "--scale", "1", "--seed", str(SEED),
         "--output", graph],
        check=True,
    )
    n, edges = read_graph(graph)
    with open(ops, "w") as f:
        f.write("\n".join(update_stream(n, edges, UPDATES, SEED)) + "\n")
    subprocess.run(
        [args.kreach, "update", graph, ops, "--k", str(K), "--cache", "0",
         "--stats-json", stats],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(stats) as f:
        measured = json.load(f)
    if measured["applied"] != UPDATES:
        sys.exit(f"expected {UPDATES} applied updates, got {measured['applied']}")
    rows = measured["rows_per_update"]
    bound = read_bound(args.targets)
    print(f"rows_per_update {rows:.3f} (bound {bound}); "
          f"{measured['updates_per_sec']:.0f} updates/s")
    if rows > bound:
        sys.exit(f"update rows gate FAILED: {rows:.3f} forward k-BFS rows per update "
                 f"exceeds the bound {bound}")


if __name__ == "__main__":
    main()
