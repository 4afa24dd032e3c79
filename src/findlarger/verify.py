"""Structure-vs-oracle comparison drivers shared by the CLI and the tests.

Every checker returns a plain dict (JSON-ready) with the totals, a
``pass`` flag, and the first few mismatches spelled out completely, so a
failure can be replayed from the report alone.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import OneLevelFL, validate_sequence
from .oracle import naive_fl, naive_la
from .trees import LevelAncestorIndex, Tree

__all__ = ["MISMATCH_LIMIT", "check_sequence", "check_tree"]

MISMATCH_LIMIT = 10


def _grid(values: Sequence[int]) -> tuple[range, range]:
    # one step beyond every boundary on all four sides
    n = len(values)
    lo = min(values)
    hi = max(values)
    return range(-1, n + 1), range(lo - 1, hi + 2)


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
    internal build.
    """
    seq = validate_sequence(values)
    if structure is None:
        structure = OneLevelFL(seq, kappa)
    else:
        kappa = structure.kappa
    values = seq.tolist()  # the oracle scans plain integers
    xs, ys = _grid(values)
    mismatches: list[dict] = []
    total = 0
    if mode == "exhaustive":
        pairs = ((x, y) for x in xs for y in ys)
    elif mode == "random":
        rng = random.Random(seed)
        pairs = ((rng.randrange(xs.start, xs.stop), rng.randrange(ys.start, ys.stop)) for _ in range(queries))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    bad = 0
    for x, y in pairs:
        total += 1
        got = structure.query(x, y)
        want = naive_fl(values, x, y)
        if got != want:
            bad += 1
            if len(mismatches) < MISMATCH_LIMIT:
                mismatches.append(
                    {"kind": "fl", "x": x, "y": y, "expected": want, "got": got, "kappa": kappa}
                )
    return {
        "kind": "sequence",
        "n": len(seq),
        "kappa": kappa,
        "mode": mode,
        "total_queries": total,
        "mismatch_count": bad,
        "mismatches": mismatches,
        "pass": bad == 0,
    }


def check_tree(
    tree: Tree,
    kappa: int = 5,
    mode: str = "exhaustive",
    queries: int = 10_000,
    seed: int = 0,
    index: LevelAncestorIndex | None = None,
) -> dict:
    """Compare level-ancestor queries against the parent-walking oracle."""
    if index is None:
        index = LevelAncestorIndex(tree, kappa)
    else:
        kappa = index.kappa
    depth = index.depth
    n = tree.n_nodes
    mismatches: list[dict] = []
    total = 0
    if mode == "exhaustive":
        pairs = ((v, d) for v in range(n) for d in range(depth[v] + 1))
    elif mode == "random":
        rng = random.Random(seed)
        pairs = (
            (v, rng.randrange(depth[v] + 1))
            for v in (rng.randrange(n) for _ in range(queries))
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    bad = 0
    for v, d in pairs:
        total += 1
        got = index.query(v, d)
        want = naive_la(tree, v, d)
        if got != want:
            bad += 1
            if len(mismatches) < MISMATCH_LIMIT:
                mismatches.append(
                    {"kind": "la", "v": v, "d": d, "expected": want, "got": got, "kappa": kappa}
                )
    return {
        "kind": "tree",
        "n": n,
        "kappa": kappa,
        "mode": mode,
        "total_queries": total,
        "mismatch_count": bad,
        "mismatches": mismatches,
        "pass": bad == 0,
    }
