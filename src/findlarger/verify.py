"""Structure-vs-oracle comparison drivers shared by the CLI and the tests.

Every checker returns a plain dict (JSON-ready) with the totals, a
``pass`` flag, and the first few mismatches spelled out completely, so a
failure can be replayed from the report alone.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from .core import OneLevelFL, validate_sequence
from .oracle import naive_fl, naive_la
from .trees import LevelAncestorIndex, Tree

__all__ = ["MISMATCH_LIMIT", "check_sequence", "check_tree"]

MISMATCH_LIMIT = 10


def _check_mode(mode: str, queries: int) -> None:
    """Raise ValueError for a mode other than exhaustive and random, or
    for random mode with fewer than one query: a run that asks nothing
    would pass."""
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "random" and queries < 1:
        raise ValueError(f"random mode needs at least 1 query, got {queries}")


def _compare(
    header: dict,
    keys: tuple[str, str, str],
    mode: str,
    all_pairs: Iterable[tuple[int, int]],
    draw: Callable[[random.Random], tuple[int, int]],
    queries: int,
    seed: int,
    query: Callable[[int, int], int],
    oracle: Callable[[int, int], int],
) -> dict:
    """Ask ``query`` and ``oracle`` the same pairs and report where they differ.

    Exhaustive mode asks every pair of ``all_pairs``; random mode asks
    ``queries`` pairs, each taken by one ``draw`` from ``Random(seed)``.
    The caller has checked both with :func:`_check_mode`.  ``keys``
    names the query kind and its two arguments in each mismatch;
    ``header`` opens the report and holds its ``kappa``.
    """
    if mode == "exhaustive":
        pairs = all_pairs
    else:
        rng = random.Random(seed)
        pairs = (draw(rng) for _ in range(queries))
    kind, a_key, b_key = keys
    mismatches: list[dict] = []
    total = bad = 0
    for a, b in pairs:
        total += 1
        got = query(a, b)
        want = oracle(a, b)
        if got != want:
            bad += 1
            if len(mismatches) < MISMATCH_LIMIT:
                mismatches.append(
                    {"kind": kind, a_key: a, b_key: b, "expected": want, "got": got, "kappa": header["kappa"]}
                )
    return {
        **header,
        "mode": mode,
        "total_queries": total,
        "mismatch_count": bad,
        "mismatches": mismatches,
        "pass": bad == 0,
    }


def check_sequence(
    values: Sequence[int],
    kappa: int = 5,
    mode: str = "exhaustive",
    queries: int = 10_000,
    seed: int = 0,
    structure: OneLevelFL | None = None,
) -> dict:
    """Compare fl_query against the linear-scan oracle.

    Exhaustive mode sweeps x in [-1, n] and y in [min-1, max+1]; random
    mode samples ``queries`` points of the same grid.  A prebuilt (or
    deliberately corrupted) ``structure`` may be passed in place of the
    internal build.  A bad mode or query count is refused first.
    """
    _check_mode(mode, queries)
    seq = validate_sequence(values)
    if structure is None:
        structure = OneLevelFL(seq, kappa)
    values = seq.tolist()  # the oracle scans plain integers
    # one step beyond every boundary on all four sides
    xs = range(-1, len(values) + 1)
    ys = range(min(values) - 1, max(values) + 2)
    return _compare(
        {"kind": "sequence", "n": len(seq), "kappa": structure.kappa},
        ("fl", "x", "y"),
        mode,
        ((x, y) for x in xs for y in ys),
        lambda rng: (rng.randrange(xs.start, xs.stop), rng.randrange(ys.start, ys.stop)),
        queries,
        seed,
        structure.query,
        lambda x, y: naive_fl(values, x, y),
    )


def check_tree(
    tree: Tree,
    kappa: int = 5,
    mode: str = "exhaustive",
    queries: int = 10_000,
    seed: int = 0,
    index: LevelAncestorIndex | None = None,
) -> dict:
    """Compare level-ancestor queries against the parent-walking oracle.

    Exhaustive mode asks every (v, d) with 0 <= d <= depth(v); random
    mode draws a node, then a depth on its path to the root.  A bad mode
    or query count is refused before the index is built.
    """
    _check_mode(mode, queries)
    if index is None:
        index = LevelAncestorIndex(tree, kappa)
    depth = index.depth
    n = tree.n_nodes

    def draw(rng: random.Random) -> tuple[int, int]:
        v = rng.randrange(n)
        return v, rng.randrange(depth[v] + 1)

    return _compare(
        {"kind": "tree", "n": n, "kappa": index.kappa},
        ("la", "v", "d"),
        mode,
        ((v, d) for v in range(n) for d in range(depth[v] + 1)),
        draw,
        queries,
        seed,
        index.query,
        lambda v, d: naive_la(tree, v, d),
    )
