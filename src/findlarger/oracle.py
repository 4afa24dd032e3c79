"""Brute-force reference implementations.

Everything here is a literal, obviously-correct transcription of the
definitions, kept independent of the fast structures so the two can be
checked against each other.  Costs are O(n) to O(n^2) per call.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .core import validate_sequence
from .trees import DepthOutOfRangeError, Tree

__all__ = [
    "MAX_N_EXHAUSTIVE",
    "TooLargeError",
    "naive_fl",
    "naive_fs",
    "naive_valley",
    "naive_la",
    "enumerate_sequences",
]


class TooLargeError(ValueError):
    """Raised when an exhaustive enumeration would be astronomically big."""


MAX_N_EXHAUSTIVE = 12  # 3^11 = 177147 sequences


def naive_fl(values: Sequence[int], x: int, y: int) -> int:
    """Least i >= x with values[i] >= y by literal scan, else len(values)."""
    n = len(values)
    if x < 0:
        x = 0
    for i in range(x, n):
        if values[i] >= y:
            return i
    return n


def naive_fs(values: Sequence[int], x: int, d: int) -> int:
    """Least i >= x with values[i] <= d by literal scan, else len(values)."""
    n = len(values)
    if x < 0:
        x = 0
    for i in range(x, n):
        if values[i] <= d:
            return i
    return n


def naive_valley(values: Sequence[int], x: int, y: int) -> int:
    """Valley of the point (x, y) by enumerating reachable positions.

    A position xb <= x is reachable from (x, y) when every value strictly
    between them stays below y and values[xb] <= y (heights between
    values[xb] and y are then all reachable at xb, so the lowest point at
    xb is values[xb]).  The valley is the largest xb in 0..x whose value
    equals the minimum over all reachable positions.

    Raises:
        ValueError: x outside [0, len(values)) or y below values[x].
    """
    if not 0 <= x < len(values):
        raise ValueError(f"x={x} lies outside [0, {len(values)})")
    if y < values[x]:
        raise ValueError(f"y={y} lies below values[{x}]={values[x]}")
    reachable = []
    for xb in range(x + 1):
        if values[xb] > y:
            continue
        if all(values[i] < y for i in range(xb, x)):
            reachable.append(xb)
    floor = min(values[xb] for xb in reachable)
    return max(xb for xb in range(x + 1) if values[xb] == floor)


def naive_la(tree: Tree, v: int, d: int) -> int:
    """Ancestor of v at depth d by walking parent links."""
    parent = memoryview(tree.parent)  # plain-int reads, no copy of the tree
    depth = 0
    u = v
    while parent[u] != -1:
        u = parent[u]
        depth += 1
    if d < 0 or d > depth:
        raise DepthOutOfRangeError(f"node {v} has depth {depth}, requested {d}")
    u = v
    for _ in range(depth - d):
        u = parent[u]
    return u


def enumerate_sequences(n: int, start: int = 0) -> Iterator[np.ndarray]:
    """Yield all 3^(n-1) 1-difference sequences of length n starting at start.

    Raises:
        TooLargeError: n exceeds MAX_N_EXHAUSTIVE.
        ValueError: n < 1.
    """
    if n < 1:
        raise ValueError(f"sequence length must be at least 1, got {n}")
    if n > MAX_N_EXHAUSTIVE:
        raise TooLargeError(f"n={n} would enumerate 3^{n - 1} sequences; limit is {MAX_N_EXHAUSTIVE}")
    for steps in itertools.product((-1, 0, 1), repeat=n - 1):
        values = [start]
        v = start
        for s in steps:
            v += s
            values.append(v)
        yield validate_sequence(values)
