"""Microbenchmark drivers producing one CSV row per structure.

Build time is a single wall-clock measurement; query time is measured
over seeded nontrivial queries (y above the starting value) in batches
of ``BATCH``: ``mean_query_ns`` is the mean over all queries and
``p99_batch_mean_ns`` the p99 of the batch means, not a per-query tail.
All structures in one run answer the identical query stream, and their
answers on its first ``AGREEMENT_COUNT`` queries are cross-checked.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import OneLevelFL, validate_sequence
from .doubling import DoublingFL

__all__ = [
    "CSV_HEADER",
    "STRUCTURES",
    "BenchRecord",
    "ScanFL",
    "make_queries",
    "run_bench",
]

CSV_HEADER = "structure_name,n,kappa,build_ns,mean_query_ns,p99_batch_mean_ns,entries,bytes,seed"

BATCH = 10_000  # queries per timed batch
AGREEMENT_COUNT = 1_000  # queries whose answers are cross-checked


@dataclass(frozen=True)
class BenchRecord:
    structure_name: str
    n: int
    kappa: int
    build_ns: int
    mean_query_ns: float
    p99_batch_mean_ns: float
    entries: int
    bytes: int
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.structure_name},{self.n},{self.kappa},{self.build_ns},"
            f"{self.mean_query_ns:.1f},{self.p99_batch_mean_ns:.1f},"
            f"{self.entries},{self.bytes},{self.seed}"
        )


class ScanFL:
    """No preprocessing, O(n) per query: the honest lower bar.

    The scan is vectorised over the int64 ndarray that
    :func:`~findlarger.core.validate_sequence` returns, so that
    cross-checks against the other structures stay feasible at large n.
    """

    __slots__ = ("n", "y_max", "bottom", "_vals")

    def __init__(self, values: Iterable[int]):
        self._vals = validate_sequence(values)
        self.n = len(self._vals)
        self.y_max = int(self._vals.max())
        self.bottom = self.n

    def query(self, x: int, y: int) -> int:
        n = self.n
        if x >= n or y > self.y_max:
            return n
        if x < 0:
            x = 0
        tail = self._vals[x:] >= y
        i = int(np.argmax(tail))
        return x + i if tail[i] else n

    def entry_count(self) -> int:
        return self.n

    def resident_bytes(self) -> int:
        return self._vals.nbytes


def make_queries(
    values: Sequence[int], count: int, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Seeded nontrivial queries: x with room above it, y in (values[x], y_max]."""
    rng = random.Random(seed)
    values = np.asarray(values)
    y_max = int(values.max())
    pool = np.flatnonzero(values < y_max)
    if not len(pool):  # constant sequence: every query is trivial anyway
        pool = np.arange(len(values))
    xs = [0] * count
    ys = [0] * count
    for i in range(count):
        x = int(pool[rng.randrange(len(pool))])
        lo = int(values[x])
        xs[i] = x
        ys[i] = rng.randint(lo + 1, y_max) if lo < y_max else lo
    return xs, ys


# name -> constructor taking the validated sequence and kappa
STRUCTURES = {
    "onelevel": OneLevelFL,
    "doubling": lambda seq, kappa: DoublingFL(seq),
    "naive": lambda seq, kappa: ScanFL(seq),
}


def _time_queries(structure, xs, ys) -> tuple[float, float]:
    query = structure.query
    means = []
    total_ns = 0
    for s in range(0, len(xs), BATCH):
        bx = xs[s : s + BATCH]
        by = ys[s : s + BATCH]
        t0 = time.perf_counter_ns()
        for x, y in zip(bx, by):
            query(x, y)
        dt = time.perf_counter_ns() - t0
        total_ns += dt
        means.append(dt / len(bx))
    means.sort()
    p99 = means[max(0, math.ceil(0.99 * len(means)) - 1)]
    return total_ns / len(xs), p99


def _check_request(structures: Sequence[str], queries: int) -> None:
    """Raise ValueError for no structure, an unknown one, or fewer than
    one query."""
    if not structures:
        raise ValueError("no structure to benchmark")
    for name in structures:
        if name not in STRUCTURES:
            raise ValueError(f"unknown structure {name!r}; pick from {', '.join(STRUCTURES)}")
    if queries < 1:
        raise ValueError(f"queries must be at least 1, got {queries}")


def run_bench(
    values: Iterable[int],
    structures: Sequence[str] = ("onelevel", "doubling"),
    kappa: int = 5,
    queries: int = 100_000,
    seed: int = 0,
) -> tuple[list[BenchRecord], list[dict]]:
    """Benchmark each named structure on one shared query stream.

    Returns the records plus any answer disagreements on the first
    ``AGREEMENT_COUNT`` queries (empty list = all structures agree).
    Raises ValueError, before anything is built, for no structure, an
    unknown one, or fewer than one query (:func:`_check_request`).
    """
    _check_request(structures, queries)
    seq = validate_sequence(values)
    xs, ys = make_queries(seq, queries, seed)
    records = []
    reference: list[int] | None = None
    ref_name = ""
    mismatches: list[dict] = []
    for name in structures:
        t0 = time.perf_counter_ns()
        structure = STRUCTURES[name](seq, kappa)
        build_ns = time.perf_counter_ns() - t0
        # untimed warmup, then the timed batches
        for x, y in zip(xs[:1000], ys[:1000]):
            structure.query(x, y)
        mean_ns, p99_ns = _time_queries(structure, xs, ys)
        records.append(
            BenchRecord(
                structure_name=name,
                n=len(seq),
                kappa=kappa,
                build_ns=build_ns,
                mean_query_ns=mean_ns,
                p99_batch_mean_ns=p99_ns,
                entries=structure.entry_count(),
                bytes=structure.resident_bytes(),
                seed=seed,
            )
        )
        answers = [structure.query(x, y) for x, y in zip(xs[:AGREEMENT_COUNT], ys[:AGREEMENT_COUNT])]
        if reference is None:
            reference, ref_name = answers, name
        else:
            for i, (a, b) in enumerate(zip(reference, answers)):
                if a != b and len(mismatches) < 10:
                    mismatches.append(
                        {
                            "x": xs[i],
                            "y": ys[i],
                            ref_name: a,
                            name: b,
                            "kappa": kappa,
                            "n": len(seq),
                        }
                    )
        del structure
    return records, mismatches
