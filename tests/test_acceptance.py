"""Acceptance gate: seven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test also fails loudly on its own.  The full module takes a few minutes,
dominated by the exhaustive sweeps of criteria 1 and 2 and the large
builds of criteria 4 and 5.
"""

import csv
import itertools
import random
import statistics
import time

import numpy as np

from findlarger import DoublingFL, LevelAncestorIndex, OneLevelFL, compute_valleys, validate_sequence
from findlarger.cli import main as cli_main
from findlarger.bench import make_queries, run_bench
from findlarger.gen import random_parent_array, random_walk_values
from findlarger.oracle import enumerate_sequences, naive_fl, naive_la, naive_valley
from findlarger.trees import parse_parent_array

KAPPAS = (3, 4, 5)


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _grid_agreement(values, kappas=KAPPAS):
    """Criteria-1-style sweep on one sequence: full grid, every kappa.

    The structures are built from an int64 array, which each build checks;
    the arrays the enumerator yields (already validated) are used as they
    are.  The oracle reads the same values as a list of plain ints.
    """
    seq = np.asarray(values, dtype=np.int64)
    v = seq.tolist()
    n = len(v)
    lo, hi = min(v), max(v)
    xs = range(-1, n + 1)
    ys = range(lo - 1, hi + 2)
    want = [[naive_fl(v, x, y) for y in ys] for x in xs]
    checked = 0
    for kappa in kappas:
        query = OneLevelFL(seq, kappa).query
        for xi, x in enumerate(xs):
            row = want[xi]
            for yi, y in enumerate(ys):
                got = query(x, y)
                if got != row[yi]:
                    return checked, (kappa, x, y, row[yi], got)
        checked += len(xs) * len(ys)
    return checked, None


def test_criterion_1_exhaustive_fl_oracle_equivalence():
    # every 1-difference sequence with first value 0 up to n = 12,
    # kappa in {3,4,5}, all x in [-1, n], all y in [min-1, max+1]
    total = 0
    sequences = 0
    for n in range(1, 13):
        for seq in enumerate_sequences(n, 0):
            sequences += 1
            checked, failure = _grid_agreement(seq)
            total += checked
            assert failure is None, (
                f"mismatch on {seq.tolist()}: kappa={failure[0]} "
                f"x={failure[1]} y={failure[2]} expected {failure[3]} got {failure[4]}"
            )
    _report(
        "1",
        sequences == (3**12 - 1) // 2 and total > 0,
        f"{total} queries over {sequences} sequences x {len(KAPPAS)} kappas, 0 mismatches",
    )


def test_criterion_2_valley_oracle_equivalence():
    # all sequences of length <= 10 over {0,1,2,3}; arbitrary integers,
    # so no 1-difference restriction applies here
    checked = 0
    for n in range(1, 11):
        for values in itertools.product((0, 1, 2, 3), repeat=n):
            valley = compute_valleys(values)
            assert valley[n] == n - 1
            for x in range(n):
                got = valley[x]
                want = naive_valley(values, x, values[x])
                assert got == want, f"valley mismatch on {values} at x={x}: {got} != {want}"
            checked += n
    _report("2", checked == sum(n * 4**n for n in range(1, 11)), f"{checked} positions, 0 mismatches")


def test_criterion_3_space_bounds():
    # 100 random sequences, n = 10^5, kappa = 5: exact inequalities
    n = 100_000
    biases = (-0.6, -0.3, 0.0, 0.3, 0.6)
    worst_interior = worst_total = 0
    for i in range(100):
        values = random_walk_values(n, seed=3000 + i, bias=biases[i % 5])
        r = OneLevelFL(values, 5).space_report()
        assert r.interior_ladder_entries <= 8 * n, f"interior bound broken at seed {3000 + i}"
        assert r.total_ladder_entries <= 8 * n + 2 * (n - 1), f"total bound broken at seed {3000 + i}"
        worst_interior = max(worst_interior, r.interior_ladder_entries)
        worst_total = max(worst_total, r.total_ladder_entries)
    _report(
        "3",
        True,
        f"100 builds at n=10^5: max interior {worst_interior} <= {8 * n}, "
        f"max total {worst_total} <= {8 * n + 2 * (n - 1)}",
    )


def _bench_build_ns(n: int, rep: int, tmp_path) -> int:
    out = tmp_path / f"bench_{n}_{rep}.csv"
    code = cli_main(
        ["bench", "--n", str(n), "--seed", "4", "--queries", "20000",
         "--structures", "onelevel", "--out", str(out)]
    )
    assert code == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    return int(row["build_ns"])


def test_criterion_4_linear_build(tmp_path):
    # operation counters from a direct build
    seq = validate_sequence(random_walk_values(1 << 20, seed=4))
    s = OneLevelFL(seq, 5)
    st = s.build_stats
    assert st.stack_pushes <= s.n, f"pushes {st.stack_pushes} > n"
    assert st.stack_pops <= st.stack_pushes, "popped more than was pushed"
    counters = f"pushes {st.stack_pushes} <= n={s.n}, pops {st.stack_pops}"
    del s, seq
    # wall-clock ratio between doubled sizes, reported by the bench command:
    # the best of 3 builds each, interleaved and alternating which size goes
    # first, so that a slow spell of the host lands on both sizes
    builds: dict[int, list[int]] = {1 << 20: [], 1 << 21: []}
    for rep in range(3):
        for n in sorted(builds, reverse=rep % 2 == 1):
            builds[n].append(_bench_build_ns(n, rep, tmp_path))
    t20, t21 = min(builds[1 << 20]), min(builds[1 << 21])
    ratio = t21 / t20
    _report(
        "4",
        1.5 <= ratio <= 3.0,
        f"{counters}; build 2^20 {t20 / 1e6:.0f}ms, 2^21 {t21 / 1e6:.0f}ms, ratio {ratio:.2f} in [1.5, 3.0]",
    )


def _interleaved_batch_medians(structures, xs, ys, batch=10_000):
    """Each structure's median over batches of its mean query time.

    The structures answer one query stream batch by batch, alternating
    which goes first, so that a slow spell of the host lands on both
    rather than on whichever ran during it.  The untimed warmup answers
    the first 1000 queries, and every structure must agree on them.
    """
    warmup = [[s.query(x, y) for x, y in zip(xs[:1000], ys[:1000])] for s in structures]
    assert all(a == warmup[0] for a in warmup), "structures disagree on the first 1000 queries"
    means = [[] for _ in structures]
    for b, s in enumerate(range(0, len(xs), batch)):
        bx, by = xs[s : s + batch], ys[s : s + batch]
        order = range(len(structures)) if b % 2 == 0 else range(len(structures) - 1, -1, -1)
        for k in order:
            query = structures[k].query
            t0 = time.perf_counter_ns()
            for x, y in zip(bx, by):
                query(x, y)
            means[k].append((time.perf_counter_ns() - t0) / len(bx))
    return [statistics.median(m) for m in means]


def test_criterion_5_constant_time_queries():
    sizes = (1 << 16, 1 << 22)
    medians: dict[int, tuple[float, float]] = {}
    for n in sizes:
        seq = validate_sequence(random_walk_values(n, seed=5))
        xs, ys = make_queries(seq, 1_000_000, seed=5)
        structures = (OneLevelFL(seq, 5), DoublingFL(seq))
        medians[n] = _interleaved_batch_medians(structures, xs, ys)
        del structures
    (small, _), (big, doubling) = (medians[n] for n in sizes)
    ratio = max(big / small, small / big)
    assert ratio <= 4.0, f"onelevel latency ratio {ratio:.2f} exceeds 4x"
    assert big <= doubling, f"onelevel slower than doubling at n=2^22: {big:.0f}ns > {doubling:.0f}ns"
    # three-way exact agreement on 10^3 sampled queries at the large size
    _, mismatches = run_bench(
        seq, ("onelevel", "doubling", "naive"), kappa=5,
        queries=1_000, seed=55,
    )
    assert mismatches == [], f"structures disagree: {mismatches[:3]}"
    _report(
        "5",
        True,
        f"onelevel median batch mean {small:.0f}ns @2^16 vs {big:.0f}ns @2^22 (ratio {ratio:.2f} <= 4); "
        f"onelevel {big:.0f}ns <= doubling {doubling:.0f}ns @2^22, interleaved 10k-query batches; "
        f"3-way agreement on 1000 queries",
    )


def test_criterion_6_la_correctness():
    rng = random.Random(6)
    pairs = 0
    for t in range(50):
        n = rng.randrange(1, 301)
        path_bias = rng.choice((0.0, 0.3, 0.7, 0.95, 1.0))
        max_degree = rng.choice((None, None, 1, 2, 3))
        kappa = rng.choice(KAPPAS)
        parent = random_parent_array(n, seed=6000 + t, path_bias=path_bias, max_degree=max_degree)
        tree = parse_parent_array(" ".join(map(str, parent)))
        index = LevelAncestorIndex(tree, kappa)
        depth = index.depth
        for v in range(n):
            dv = depth[v]
            for d in range(dv + 1):
                a = index.query(v, d)
                assert a == naive_la(tree, v, d), f"tree seed {6000 + t}: la({v},{d})"
                assert depth[a] == d  # the answer sits at the requested depth
            pairs += dv + 1
            assert index.query(v, dv) == v
            assert index.query(v, 0) == tree.root
            if dv >= 2:  # composing two hops equals one direct hop
                d2 = rng.randrange(1, dv + 1)
                d1 = rng.randrange(d2)
                assert index.query(index.query(v, d2), d1) == index.query(v, d1)
    _report("6", pairs > 0, f"50 trees, {pairs} (v,d) pairs, 0 mismatches")


def test_criterion_7_degenerate_coverage():
    cases = [
        [0],                          # n = 1
        [0, 0], [0, 1], [0, -1],      # all n = 2 shapes
        [0] * 3, [4] * 17, [-2] * 64, # constant runs
        list(range(16)), list(range(64)),            # staircase up
        list(range(15, -1, -1)), list(range(63, -1, -1)),  # staircase down
        [0, 1, 0, -1, 0, 1, 0],       # sawtooth for good measure
    ]
    total = 0
    for values in cases:
        checked, failure = _grid_agreement(values, kappas=KAPPAS)
        assert failure is None, f"mismatch on degenerate {values[:8]}...: {failure}"
        total += checked
    _report("7", total > 0, f"{len(cases)} degenerate inputs x kappas {KAPPAS}, {total} queries, 0 mismatches")
