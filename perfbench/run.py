"""End-to-end benchmark of findlarger: from input text to checked answers.

Run from the root of a checkout:

    python3 -O perfbench/run.py --workload walk-build --seed 1 --seconds 30 --trace 0

The run makes its workload's input text from the seed, then drives the
library's public entry points (formats, trees, core) from that text to
answers, one process and one thread, at the default kappa.  Every answer
is checked against perfbench/inputs.py.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  --trace 0
gives the end-to-end metrics; --trace 1 a separate traced run whose spans
give the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import types
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import inputs as gen
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

KAPPA = 5  # the library's default; used here only to sort queries into branches
MIN_ROUNDS = 3
SETUP_SHARE = 2 / 3  # of --seconds spent on rounds from a fresh setup
BLOCK = 1 << 11  # queries per block, timed as a whole and one at a time: 20 lie beyond its p99
FAST_TOL = 1.10
WARMUP = 1 << 10  # untimed queries on each new index
SMALL_SHIFT = 6  # --small divides input sizes by 2^6, for the self-check
SMALL_QUERIES = 1 << 10  # and streams to at most this, still enough for a p99


@dataclass(frozen=True)
class Workload:
    kind: str  # "walk": sequence text and find-larger; "tree": parent-array text and level ancestor
    n: int  # walk length, or node count
    queries: int  # query stream per round


WORKLOADS = {
    "walk-build": Workload("walk", 1 << 20, 1 << 16),
    "walk-query": Workload("walk", 1 << 16, 1 << 18),
    "tree-la": Workload("tree", 1 << 19, 1 << 17),
}

E2E_UNITS = {
    "setup_s": "s",
    "query_qps": "1/s",
    "query_p50_ns": "ns",
    "query_p99_ns": "ns",
    "setup_peak_mb": "MB",
    "index_mb": "MB",
}

LAYER_UNITS = {
    "formats.read_sequence_s": "s",
    "trees.parse_parent_array_s": "s",
    "trees.euler_tour_s": "s",
    "trees.negate_validate_s": "s",
    "trees.la_index_s": "s",
    "trees.la_query_ns": "ns",
    "trees.la_wrap_ns": "ns",
    "core.validate_s": "s",
    "core.valley_sweep_s": "s",
    "core.build_s": "s",
    "core.fill_s": "s",
    "core.stack_pushes": "count",
    "core.stack_pops": "count",
    "core.ladder_copies": "count",
    "core.words_per_pos": "words",
    "core.query_ns.trivial": "ns",
    "core.query_ns.ladder": "ns",
    "core.query_ns.jump": "ns",
    "core.fs_query_ns": "ns",
    "host.calib_ms": "ms",
    "host.timer_ns": "ns",
}


def import_library():
    """Import findlarger from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "findlarger").is_dir():
        sys.exit(f"perfbench: no findlarger sources under {src}")
    sys.path.insert(0, str(src))
    global read_sequence, OneLevelFL, validate_sequence, compute_valleys, fs_query
    global parse_parent_array, euler_tour, LevelAncestorIndex
    from findlarger.core import OneLevelFL, compute_valleys, fs_query, validate_sequence
    from findlarger.formats import read_sequence
    from findlarger.trees import LevelAncestorIndex, euler_tour, parse_parent_array


# ---------------------------------------------------------------- host

def calib_ms() -> float:
    """A fixed loop of pure Python and numpy work that never touches the library."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(200_000):
        acc += i & 7
    a = np.arange(1 << 17, dtype=np.int64)
    for _ in range(4):
        a = np.sort(a[::-1] ^ 5)
    return (perf_counter_ns() - t0) / 1e6


def timer_ns(reps: int = 100_000) -> float:
    """Median cost of an empty timed region: one timer read, as the latency sample pays it."""
    clock = perf_counter_ns
    d = []
    for _ in range(reps):
        t0 = clock()
        t1 = clock()
        d.append(t1 - t0)
    return float(np.median(d))


def status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType, types.CodeType)


def retained_bytes(root) -> int:
    """Bytes of every object reachable from root, each counted once.

    Classes, modules and functions are shared with the rest of the
    process and are not followed.  An ndarray view counts its header and
    then its base.
    """
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        o = stack.pop()
        if isinstance(o, _SHARED) or id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, np.ndarray):
            if o.base is not None:
                stack.append(o.base)
        else:
            stack.extend(gc.get_referents(o))
    return total


# ---------------------------------------------------------------- library calls

def walk_setup(text: str):
    return OneLevelFL(read_sequence(text))


def tree_setup(text: str):
    return LevelAncestorIndex(parse_parent_array(text))


def space_ok(index) -> bool:
    r = index.space_report()
    return r.interior_ladder_entries <= r.interior_bound


def tree_space_ok(text: str) -> bool:
    """LevelAncestorIndex has no space report, so check the find-smaller
    index it builds, rebuilt here from the public tour."""
    tour = euler_tour(parse_parent_array(text))
    return space_ok(OneLevelFL([-d for d in tour.depths]))


def memory_pass(setup, text: str, strict: bool) -> tuple[float, float]:
    """Peak resident growth during one setup, and the bytes the index retains.

    The peak is the kernel's resident high-water mark, which only this
    pass may raise: it runs before any other setup in the process, after
    inputs made in chunks that stay below it.
    """
    gc.collect()
    rss0, hwm0 = status_kb("VmRSS"), status_kb("VmHWM")
    index = setup(text)
    hwm1 = status_kb("VmHWM")
    if strict and hwm1 <= hwm0:
        raise RuntimeError(f"setup did not raise the high-water mark ({hwm0} kB): its peak is hidden")
    return (hwm1 - rss0) / 1024, retained_bytes(index) / 2**20


def mismatches(answers, expected: np.ndarray) -> int:
    return int(np.count_nonzero(np.asarray(answers, dtype=np.int64) != expected))


def nodes_at(tour_nodes: np.ndarray, stops: list[int]) -> np.ndarray:
    """The node at each tour stop, or -1 for an answer off the tour."""
    j = np.asarray(stops, dtype=np.int64)
    inside = (j >= 0) & (j < len(tour_nodes))
    return np.where(inside, tour_nodes[np.where(inside, j, 0)], -1)


def closed_loop(query, xs: list[int], ys: list[int]) -> tuple[list[int], array]:
    """One caller: each query is sent after the previous one returned.
    Returns the answers and the nanoseconds each block of BLOCK took."""
    answers: list[int] = []
    block_ns = array("q")
    for s in range(0, len(xs), BLOCK):
        bx, by = xs[s : s + BLOCK], ys[s : s + BLOCK]
        t0 = perf_counter_ns()
        got = [query(x, y) for x, y in zip(bx, by)]
        block_ns.append(perf_counter_ns() - t0)
        answers += got
    return answers, block_ns


def fast_state(cost: np.ndarray) -> np.ndarray:
    """Blocks, or setups, that ran in one of the host's fast moments.

    On a shared machine other tenants can slow every block by up to about
    1.7 times, for seconds to minutes at a time, whatever the program does
    (see README.md).  What
    costs at most FAST_TOL times the run's cheapest counts as fast: no
    block and no setup runs faster than the program allows.
    """
    return cost <= FAST_TOL * cost.min()


def query_summary(block_ns: array, lat: array, timer: float) -> tuple[float, float, float]:
    """Throughput, p50 and p99 over the blocks run in the host's fast moments.

    Throughput comes from the closed-loop blocks.  The latencies, net of
    the timer's own cost, are cut into blocks of BLOCK consecutive samples
    and each is judged by its median; p50 and p99 are those of the pooled
    samples of the fast blocks, at least BLOCK of them.
    """
    b = min(BLOCK, len(lat))
    cost = np.frombuffer(block_ns, dtype=np.int64)
    fast = fast_state(cost)
    qps = b * int(fast.sum()) * 1e9 / int(cost[fast].sum())
    net = np.frombuffer(lat, dtype=np.int64) - timer
    blocks = net[: len(net) // b * b].reshape(-1, b)
    sample = np.sort(blocks[fast_state(np.median(blocks, axis=1))].ravel())
    return qps, float(np.median(sample)), float(sample[math.ceil(0.99 * len(sample)) - 1])


def sampled(query, xs: list[int], ys: list[int]) -> tuple[array, array]:
    """Answers and raw per-query latencies, timing one query at a time."""
    clock = perf_counter_ns
    answers = array("q")
    lat = array("q")
    for x, y in zip(xs, ys):
        t0 = clock()
        a = query(x, y)
        t1 = clock()
        lat.append(t1 - t0)
        answers.append(a)
    return answers, lat


def warm(query, xs: list[int], ys: list[int]) -> None:
    for x, y in zip(xs[:WARMUP], ys[:WARMUP]):
        query(x, y)


# ---------------------------------------------------------------- untraced run

def untraced_run(w: Workload, seed: int, seconds: float, strict: bool) -> tuple[dict, dict]:
    calib = [calib_ms() for _ in range(5)]
    if w.kind == "walk":
        y = gen.random_walk(w.n, gen.rng_for(seed, 0))
        text, setup = gen.headered_text(y), walk_setup
    else:
        parent = gen.random_parents(w.n, gen.rng_for(seed, 0))
        text, setup = gen.headered_text(parent), tree_setup
    peak_mb, index_mb = memory_pass(setup, text, strict)
    attempted, failed = 1, 0

    if w.kind == "walk":
        xs, ys = gen.walk_queries(y, w.queries, gen.rng_for(seed, 1))
        expected = gen.find_larger_answers(y, xs, ys)
    else:
        depth = gen.node_depths(parent)
        xs, ys = gen.tree_queries(depth, w.queries, gen.rng_for(seed, 1))
        expected = gen.ancestor_answers(parent, depth, xs, ys)
        attempted += 1
        failed += not tree_space_ok(text)
    xs, ys = xs.tolist(), ys.tolist()

    timer = timer_ns()
    setup_ns, block_ns, lat = [], array("q"), array("q")

    def answer_stream(query) -> int:
        """The stream twice, in blocks and one query at a time; returns mismatches."""
        a1, b = closed_loop(query, xs, ys)
        a2, t = sampled(query, xs, ys)
        block_ns.extend(b)
        lat.extend(t)
        return mismatches(a1, expected) + mismatches(a2, expected)

    # two thirds of the time: whole rounds, each from a fresh setup; the
    # rest: the stream again and again on the last index, so that the
    # queries of a workload dominated by setup also get time enough to meet
    # the host's fast moments
    start, rounds, passes = perf_counter_ns(), 0, 0
    while rounds < MIN_ROUNDS or perf_counter_ns() - start < seconds * 1e9 * SETUP_SHARE:
        index = query = None
        gc.collect()
        t0 = perf_counter_ns()
        index = setup(text)
        setup_ns.append(perf_counter_ns() - t0)
        if w.kind == "walk":
            failed += not space_ok(index)
        query = index.query
        warm(query, xs, ys)
        failed += answer_stream(query)
        attempted += 1 + 2 * len(xs)
        rounds += 1
    while perf_counter_ns() - start < seconds * 1e9:
        failed += answer_stream(query)
        attempted += 2 * len(xs)
        passes += 1
    del index, query
    calib += [calib_ms() for _ in range(5)]

    qps, p50, p99 = query_summary(block_ns, lat, timer)
    cost = np.asarray(setup_ns)
    metrics = {
        "setup_s": statistics.median(cost[fast_state(cost)]) / 1e9,
        "query_qps": qps,
        "query_p50_ns": p50,
        "query_p99_ns": p99,
        "setup_peak_mb": peak_mb,
        "index_mb": index_mb,
    }
    info = {
        "host.calib_ms": statistics.median(calib),
        "host.timer_ns": timer,
        "rounds": rounds,
        "passes": passes,
        "latency_samples": len(lat),
        "setup_s_each": [t / 1e9 for t in setup_ns],
    }
    return {"correct": min(BLOCK, len(lat)) >= 1000, "attempted": attempted, "failed": failed, "metrics": metrics}, info


# ---------------------------------------------------------------- traced run

def traced_run(w: Workload, seed: int, seconds: float) -> tuple[dict, dict, Tracer]:
    """Every layer, each timed around its own public call.

    A traced run drives two pipelines per round.  The sequence pipeline
    reads sequence text and builds a OneLevelFL; the tree pipeline parses
    parent-array text and builds a LevelAncestorIndex, its Euler tour and
    the find-smaller index over the negated tour depths.  On tree-la the
    sequence text is that negated tour-depth sequence.  On the walk
    workloads the tree is a companion of n/2 nodes made by tree-la's rule,
    so its tour is as long as the walk.
    """
    tr = Tracer()
    calib = [calib_ms() for _ in range(5)]
    if w.kind == "walk":
        y = gen.random_walk(w.n, gen.rng_for(seed, 0))
        xs, ys = gen.walk_queries(y, w.queries, gen.rng_for(seed, 1))
        parent = gen.random_parents(w.n // 2, gen.rng_for(seed, 2))
        depth = gen.node_depths(parent)
        vs, ds = gen.tree_queries(depth, w.queries, gen.rng_for(seed, 3))
    else:
        parent = gen.random_parents(w.n, gen.rng_for(seed, 0))
        depth = gen.node_depths(parent)
        vs, ds = gen.tree_queries(depth, w.queries, gen.rng_for(seed, 1))
    tree_text = gen.headered_text(parent)
    ancestors = gen.ancestor_answers(parent, depth, vs, ds)
    tour = euler_tour(parse_parent_array(tree_text))
    fs_xs = np.asarray(tour.first_pos, dtype=np.int64)[vs]
    tour_nodes = np.asarray(tour.nodes, dtype=np.int64)
    if w.kind == "tree":
        y = -np.asarray(tour.depths, dtype=np.int64)
        xs, ys = fs_xs, -ds
    del tour
    seq_text = gen.headered_text(y)
    expected = gen.find_larger_answers(y, xs, ys)

    # branches sorted from outside by t = y - Y[x]; walks have no trivial
    # share, so the trivial branch is the stream's positions at t = 0
    t = ys - y[xs]
    trivial_share = float(np.mean(t <= 0))
    branches = {"trivial": (xs, y[xs], xs)}
    for name, mask in (("ladder", (t > 0) & (t < KAPPA)), ("jump", t >= KAPPA)):
        branches[name] = (xs[mask], ys[mask], expected[mask])
    branches = {k: (a.tolist(), b.tolist(), e) for k, (a, b, e) in branches.items()}
    xs, ys, vs, ds, fs_xs = xs.tolist(), ys.tolist(), vs.tolist(), ds.tolist(), fs_xs.tolist()

    timer = timer_ns()
    attempted, failed = 0, 0
    start, rounds = perf_counter_ns(), 0
    while rounds < MIN_ROUNDS or perf_counter_ns() - start < seconds * 1e9:
        gc.collect()
        with tr.span("round"):
            with tr.span("seq"):
                with tr.span("formats.read_sequence"):
                    values = read_sequence(seq_text)
                with tr.span("core.validate"):
                    seq = validate_sequence(values)
                with tr.span("core.valley_sweep"):
                    compute_valleys(values)
                with tr.span("core.build"):
                    fl = OneLevelFL(seq)
                del values, seq
                failed += not space_ok(fl)
                warm(fl.query, xs, ys)
                with tr.span("query.stream"):
                    got = [fl.query(x, y) for x, y in zip(xs, ys)]
                failed += mismatches(got, expected)
                attempted += 1 + len(xs)
                for name, (bx, by, be) in branches.items():
                    with tr.span(f"core.query.{name}"):
                        got = [fl.query(x, y) for x, y in zip(bx, by)]
                    failed += mismatches(got, be)
                    attempted += len(bx)
                stats, words = fl.build_stats, fl.space_report().words
                del fl
            with tr.span("tree"):
                with tr.span("trees.parse_parent_array"):
                    tree = parse_parent_array(tree_text)
                with tr.span("trees.la_index"):
                    la = LevelAncestorIndex(tree)
                with tr.span("trees.euler_tour"):
                    tour = euler_tour(tree)
                with tr.span("trees.negate_validate"):
                    nseq = validate_sequence([-d for d in tour.depths])
                with tr.span("core.fs_build"):
                    fs = OneLevelFL(nseq)
                del tree, tour, nseq
                failed += not space_ok(fs)
                warm(la.query, vs, ds)
                with tr.span("trees.la_query"):
                    got = [la.query(v, d) for v, d in zip(vs, ds)]
                failed += mismatches(got, ancestors)
                with tr.span("core.fs_query"):
                    got = [fs_query(fs, x, d) for x, d in zip(fs_xs, ds)]
                failed += mismatches(nodes_at(tour_nodes, got), ancestors)
                attempted += 3 + 2 * len(vs)
                del la, fs
        rounds += 1
    calib += [calib_ms() for _ in range(5)]

    def per_query_ns(name: str, count: int) -> list[float]:
        return [d / max(count, 1) for d in tr.durations_ns(name)]

    def paired(a: list[float], b: list[float]) -> float:
        return statistics.median(x - y for x, y in zip(a, b))

    la_ns, fs_ns = per_query_ns("trees.la_query", len(vs)), per_query_ns("core.fs_query", len(vs))
    build_ns, sweep_ns = tr.durations_ns("core.build"), tr.durations_ns("core.valley_sweep")
    metrics = {
        "formats.read_sequence_s": tr.median_s("formats.read_sequence"),
        "trees.parse_parent_array_s": tr.median_s("trees.parse_parent_array"),
        "trees.euler_tour_s": tr.median_s("trees.euler_tour"),
        "trees.negate_validate_s": tr.median_s("trees.negate_validate"),
        "trees.la_index_s": tr.median_s("trees.la_index"),
        "trees.la_query_ns": statistics.median(la_ns),
        "trees.la_wrap_ns": paired(la_ns, fs_ns),
        "core.validate_s": tr.median_s("core.validate"),
        "core.valley_sweep_s": tr.median_s("core.valley_sweep"),
        "core.build_s": tr.median_s("core.build"),
        "core.fill_s": paired(build_ns, sweep_ns) / 1e9,
        "core.stack_pushes": stats.stack_pushes,
        "core.stack_pops": stats.stack_pops,
        "core.ladder_copies": stats.ladder_copies,
        "core.words_per_pos": words / len(y),
        "core.query_ns.trivial": statistics.median(per_query_ns("core.query.trivial", len(branches["trivial"][0]))),
        "core.query_ns.ladder": statistics.median(per_query_ns("core.query.ladder", len(branches["ladder"][0]))),
        "core.query_ns.jump": statistics.median(per_query_ns("core.query.jump", len(branches["jump"][0]))),
        "core.fs_query_ns": statistics.median(fs_ns),
        "host.calib_ms": statistics.median(calib),
        "host.timer_ns": timer,
    }
    # the same two end-to-end figures as the untraced run, taken under tracing
    if w.kind == "walk":
        setup_parts, stream, count = ("formats.read_sequence", "core.validate", "core.build"), "query.stream", len(xs)
    else:
        setup_parts, stream, count = ("trees.parse_parent_array", "trees.la_index"), "trees.la_query", len(vs)
    setups = np.array([sum(p) for p in zip(*(tr.durations_ns(n) for n in setup_parts))])
    streams = np.array(tr.durations_ns(stream))
    info = {
        "rounds": rounds,
        "stream_trivial_share": trivial_share,
        "branch_queries": {k: len(v[0]) for k, v in branches.items()},
        "traced_setup_s": statistics.median(setups[fast_state(setups)]) / 1e9,
        "traced_query_qps": count * 1e9 / statistics.median(streams[fast_state(streams)]),
    }
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}, info, tr


# ---------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measurement; see README.md")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="small sizes, for the self-check")
    args = ap.parse_args(argv)
    if __debug__ and not args.small:
        sys.exit("perfbench: run under python3 -O, as the measured figures assume")
    import_library()

    w = WORKLOADS[args.workload]
    if args.small:
        w = replace(w, n=w.n >> SMALL_SHIFT, queries=min(w.queries, SMALL_QUERIES))
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}" + ("-small" if args.small else "")
    if args.trace:
        result, info, tr = traced_run(w, args.seed, args.seconds)
        tr.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed, **info, **result})
        units = LAYER_UNITS
    else:
        result, info = untraced_run(w, args.seed, args.seconds, strict=not args.small)
        with open(OUT / f"run-{stem}.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, **info, **result}, f)
        units = E2E_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    for k, v in info.items():
        if not isinstance(v, (list, dict)):
            print(f"{k} {v}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
