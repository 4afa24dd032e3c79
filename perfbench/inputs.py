"""Seeded workload inputs, and the answers they must get.

Everything here is computed with numpy from the benchmark's own values,
apart from the library under test: the answers the library gives are
compared against these.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 16
# Walks start here rather than at 0, so that no value falls in CPython's
# cache of small ints (-5..256): otherwise the memory a setup takes would
# depend on how long each seed's walk lingers near 0.
WALK_START = 1 << 20


def rng_for(seed: int, purpose: int) -> np.random.Generator:
    """One independent stream per purpose, so the inputs of one purpose
    do not shift when another purpose draws more or fewer numbers."""
    return np.random.default_rng([seed, purpose])


def headered_text(values: np.ndarray) -> str:
    """"n" alone on the first line, then the n values on the second.

    Converted in chunks, so that no Python int per value is alive at once
    and the memory pass starts from a low high-water mark.
    """
    body = " ".join(" ".join(map(str, values[s : s + CHUNK].tolist())) for s in range(0, len(values), CHUNK))
    return f"{len(values)}\n{body}\n"


def random_walk(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unbiased 1-difference walk from WALK_START: steps uniform over {-1, 0, +1}."""
    y = np.zeros(n, dtype=np.int64)
    np.cumsum(rng.integers(-1, 2, size=n - 1), out=y[1:])
    return y + WALK_START


def walk_queries(y: np.ndarray, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Nontrivial find-larger targets: x uniform over the positions below the
    maximum, y uniform in (Y[x], max]."""
    top = y.max()
    pool = np.flatnonzero(y < top)
    xs = pool[rng.integers(0, len(pool), size=count)]
    ys = rng.integers(y[xs] + 1, top + 1)
    return xs, ys


def find_larger_answers(y: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """First i >= x with y[i] >= target, or len(y) when there is none.

    A target at or below y[x] is answered by x itself.  Above it, the
    1-difference property means the first position reaching the target
    holds it exactly, so the answer is the first (value, position) key at
    or after (target, x) in one sort of all keys, if its value matches.
    """
    n = len(y)
    lo = int(y.min())
    stride = n + 1
    keys = np.sort((y - lo) * stride + np.arange(n))
    q = (ys - lo) * stride + xs
    i = np.minimum(np.searchsorted(keys, q), n - 1)
    found = keys[i]
    hit = (found >= q) & (found // stride == ys - lo)
    return np.where(ys <= y[xs], xs, np.where(hit, found % stride, n))


def random_parents(n: int, rng: np.random.Generator) -> np.ndarray:
    """Node 0 is the root; the parent of v > 0 is v - 1 with probability
    1/2, and otherwise uniform over 0..v-1."""
    v = np.arange(n)
    chain = rng.random(n) < 0.5
    uniform = rng.integers(0, np.maximum(v, 1))
    parent = np.where(chain, v - 1, uniform)
    parent[0] = -1
    return parent


def _root_loop(parent: np.ndarray) -> np.ndarray:
    p = parent.copy()
    p[0] = 0
    return p


def node_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node, by stepping all nodes towards the root at once."""
    p = _root_loop(parent)
    cur = np.arange(len(parent))
    depth = np.zeros(len(parent), dtype=np.int64)
    while (below := cur != 0).any():
        depth += below
        cur = p[cur]
    return depth


def tree_queries(depth: np.ndarray, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Level-ancestor targets: v uniform, d uniform in [0, depth(v)]."""
    vs = rng.integers(0, len(depth), size=count)
    ds = rng.integers(0, depth[vs] + 1)
    return vs, ds


def ancestor_answers(parent: np.ndarray, depth: np.ndarray, vs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Ancestor of v at depth d: walk depth(v) - d parent steps, all queries at once."""
    p = _root_loop(parent)
    steps = depth[vs] - ds
    cur = vs.copy()
    for k in range(int(steps.max(initial=0))):
        cur = np.where(steps > k, p[cur], cur)
    return cur
