"""Reference figures for DoublingFL, the paper's baseline, on walk-build.

    python3 -O perfbench/doubling_ref.py --seed 1

Builds OneLevelFL and DoublingFL in turn from the walk-build input text,
three rounds each, and times both on the walk-build query stream the way
run.py does, checking every answer.  Prints one JSON object per structure.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from array import array
from time import perf_counter_ns

import inputs as gen
import run

ROUNDS = 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.import_library()
    from findlarger.doubling import DoublingFL
    from findlarger.formats import read_sequence

    w = run.WORKLOADS["walk-build"]
    y = gen.random_walk(w.n, gen.rng_for(args.seed, 0))
    text = gen.headered_text(y)
    xs, ys = gen.walk_queries(y, w.queries, gen.rng_for(args.seed, 1))
    expected = gen.find_larger_answers(y, xs, ys)
    xs, ys = xs.tolist(), ys.tolist()
    timer = run.timer_ns()
    structures = {"onelevel": run.OneLevelFL, "doubling": DoublingFL}
    figures = {name: {"setup_ns": [], "block_ns": array("q"), "lat": array("q"), "failed": 0} for name in structures}
    for _ in range(ROUNDS):
        for name, cls in structures.items():
            f = figures[name]
            gc.collect()
            t0 = perf_counter_ns()
            index = cls(read_sequence(text))
            f["setup_ns"].append(perf_counter_ns() - t0)
            run.warm(index.query, xs, ys)
            a1, block_ns = run.closed_loop(index.query, xs, ys)
            a2, lat = run.sampled(index.query, xs, ys)
            f["block_ns"] += block_ns
            f["lat"] += lat
            f["failed"] += run.mismatches(a1, expected) + run.mismatches(a2, expected)
            del index
    for name, f in figures.items():
        qps, p50, p99 = run.query_summary(f["block_ns"], f["lat"], timer)
        print(json.dumps({
            "structure": name,
            "seed": args.seed,
            "setup_s": statistics.median(f["setup_ns"]) / 1e9,
            "query_qps": qps,
            "query_p50_ns": p50,
            "query_p99_ns": p99,
            "failed": f["failed"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
