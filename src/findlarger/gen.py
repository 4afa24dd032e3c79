"""Seeded random instance generators."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .trees import Tree

__all__ = ["BadSpecError", "GenSpec", "random_walk_values", "random_parent_array", "random_tree"]


class BadSpecError(ValueError):
    """Generator parameters out of range."""


@dataclass(frozen=True)
class GenSpec:
    """What to generate.

    kind: "sequence" for a 1-difference random walk, "tree" for a random
    rooted tree given as a parent array.
    bias: sequences only; shifts step weights so the walk drifts up
    (positive) or down (negative).  Must lie in (-1, 1).
    path_bias: trees only; probability that a node chains to its
    predecessor, stretching the tree towards a path.
    max_degree: trees only; cap on children per node.
    """

    kind: str
    n: int
    seed: int = 0
    bias: float = 0.0
    path_bias: float = 0.5
    max_degree: int | None = None

    def __post_init__(self):
        if self.kind not in ("sequence", "tree"):
            raise BadSpecError(f"kind must be 'sequence' or 'tree', got {self.kind!r}")
        if self.n < 1:
            raise BadSpecError(f"n must be at least 1, got {self.n}")
        if not -1.0 < self.bias < 1.0:
            raise BadSpecError(f"bias must lie in (-1, 1), got {self.bias}")
        if not 0.0 <= self.path_bias <= 1.0:
            raise BadSpecError(f"path_bias must lie in [0, 1], got {self.path_bias}")
        if self.max_degree is not None and self.max_degree < 1:
            raise BadSpecError(f"max_degree must be at least 1, got {self.max_degree}")


def random_walk_values(n: int, seed: int = 0, bias: float = 0.0) -> list[int]:
    """A 1-difference walk of length n from 0, steps in {-1, 0, +1}."""
    rng = random.Random(seed)
    values = [0] * n
    if n > 1:
        steps = rng.choices((-1, 0, 1), weights=(1.0 - bias, 1.0, 1.0 + bias), k=n - 1)
        v = 0
        for i, s in enumerate(steps, start=1):
            v += s
            values[i] = v
    return values


def random_parent_array(
    n: int, seed: int = 0, path_bias: float = 0.5, max_degree: int | None = None
) -> list[int]:
    """Random rooted tree, node 0 the root, parents always lower-numbered."""
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


def random_tree(spec: GenSpec) -> Tree:
    parent = random_parent_array(spec.n, spec.seed, spec.path_bias, spec.max_degree)
    return Tree.from_parents(parent)
