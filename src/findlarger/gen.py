"""Seeded random instance generators."""

from __future__ import annotations

import random

__all__ = ["BadSpecError", "random_walk_values", "random_parent_array"]


class BadSpecError(ValueError):
    """Generator arguments out of range."""


def random_walk_values(n: int, seed: int = 0, bias: float = 0.0) -> list[int]:
    """A 1-difference walk of length n >= 1 from 0, steps in {-1, 0, +1}.

    bias, in (-1, 1), shifts the step weights so the walk drifts up
    (positive) or down (negative).

    Raises:
        BadSpecError: n or bias out of range.
    """
    if n < 1:
        raise BadSpecError(f"n must be at least 1, got {n}")
    if not -1.0 < bias < 1.0:
        raise BadSpecError(f"bias must lie in (-1, 1), got {bias}")
    rng = random.Random(seed)
    values = [0] * n
    steps = rng.choices((-1, 0, 1), weights=(1.0 - bias, 1.0, 1.0 + bias), k=n - 1)
    v = 0
    for i, s in enumerate(steps, start=1):
        v += s
        values[i] = v
    return values


def random_parent_array(
    n: int, seed: int = 0, path_bias: float = 0.5, max_degree: int | None = None
) -> list[int]:
    """Random rooted tree on n >= 1 nodes, node 0 the root, parents always lower-numbered.

    path_bias, in [0, 1], is the probability that a node chains to its
    predecessor, stretching the tree towards a path.  max_degree, None
    or at least 1, caps the children per node.

    Raises:
        BadSpecError: n, path_bias or max_degree out of range.
    """
    if n < 1:
        raise BadSpecError(f"n must be at least 1, got {n}")
    if not 0.0 <= path_bias <= 1.0:
        raise BadSpecError(f"path_bias must lie in [0, 1], got {path_bias}")
    if max_degree is not None and max_degree < 1:
        raise BadSpecError(f"max_degree must be at least 1, got {max_degree}")
    rng = random.Random(seed)
    parent = [-1] * n
    degree = [0] * n
    for v in range(1, n):
        if rng.random() < path_bias:
            p = v - 1
        else:
            p = rng.randrange(v)
        if max_degree is not None and degree[p] >= max_degree:
            for _ in range(8):
                p = rng.randrange(v)
                if degree[p] < max_degree:
                    break
            else:
                # v-1 attachments into v slots of capacity >= v: something is free
                p = next(u for u in range(v - 1, -1, -1) if degree[u] < max_degree)
        parent[v] = p
        degree[p] += 1
    return parent
