"""Self-check of the benchmark at small sizes, in seconds.

    python3 perfbench/selfcheck.py

Checks the reference answers of perfbench/inputs.py against literal scans
and parent walks, and that a wrong answer is counted as failed.  Then runs
every workload of BENCHMARK.json end to end through run.py --small,
untraced and traced, with every correctness check, and requires each run
to finish with no failed operation and exactly the metrics and units that
BENCHMARK.json names.  Runs with asserts on, so the library's own
internal checks run too.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs as gen
from run import mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_references(seed: int = 3) -> list[str]:
    problems = []
    y = gen.random_walk(300, gen.rng_for(seed, 0))
    xs, ys = gen.walk_queries(y, 200, gen.rng_for(seed, 1))
    xs = np.concatenate([xs, xs[:50]])  # and some trivial targets
    ys = np.concatenate([ys, y[xs[:50]] - 1])
    scan = [next((i for i in range(x, len(y)) if y[i] >= t), len(y)) for x, t in zip(xs.tolist(), ys.tolist())]
    if gen.find_larger_answers(y, xs, ys).tolist() != scan:
        problems.append("find_larger_answers disagrees with a literal scan")

    parent = gen.random_parents(300, gen.rng_for(seed, 2))
    depth = gen.node_depths(parent)
    vs, ds = gen.tree_queries(depth, 200, gen.rng_for(seed, 3))
    walked = []
    for v, d in zip(vs.tolist(), ds.tolist()):
        chain = [v]
        while parent[chain[-1]] != -1:
            chain.append(int(parent[chain[-1]]))
        if len(chain) - 1 != depth[v]:
            problems.append(f"node_depths is wrong at node {v}")
        walked.append(chain[len(chain) - 1 - d])
    if gen.ancestor_answers(parent, depth, vs, ds).tolist() != walked:
        problems.append("ancestor_answers disagrees with a literal parent walk")

    wrong = list(scan)
    wrong[7] += 1
    if mismatches(wrong, np.asarray(scan)) != 1:
        problems.append("a wrong answer is not counted as failed")
    return problems


def check_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "0", "--trace", str(trace), "--small"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            label = f"{workload} trace={trace}"
            if out.returncode:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr.strip()[-300:]}")
                continue
            r = json.loads(out.stdout.splitlines()[-1])
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            print(f"{label}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{label}: correct={r['correct']} failed={r['failed']}")
            if units != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(units)} are not those of BENCHMARK.json")
    return problems


def main() -> int:
    problems = check_references() + check_runs()
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
