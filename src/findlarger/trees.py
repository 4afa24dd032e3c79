"""Rooted trees, Euler tours, and constant-time level-ancestor queries.

The level-ancestor problem reduces to a find-smaller query: lay the tree
out as an Euler tour, whose depth sequence is 1-difference, and the
ancestor of v at depth d is the node at the first tour position at or
after v's first visit whose depth is d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OneLevelFL

__all__ = [
    "TreeFormatError",
    "MalformedTreeError",
    "NoRootError",
    "MultipleRootsError",
    "CycleError",
    "UnbalancedParensError",
    "EmptyTreeError",
    "DepthOutOfRangeError",
    "UnknownNodeError",
    "Tree",
    "EulerTour",
    "read_ints",
    "parse_parent_array",
    "parse_balanced_parens",
    "euler_tour",
    "LevelAncestorIndex",
]


class TreeFormatError(ValueError):
    """Base class for tree parsing failures."""


class MalformedTreeError(TreeFormatError):
    """Tokens missing, non-numeric, or out of range."""


class NoRootError(TreeFormatError):
    """No node has parent -1."""


class MultipleRootsError(TreeFormatError):
    """More than one node has parent -1 (or several top-level trees)."""


class CycleError(TreeFormatError):
    """Some parent chain never reaches a root."""


class UnbalancedParensError(TreeFormatError):
    """Parenthesis string closes a tree that is not open."""


class EmptyTreeError(TreeFormatError):
    """Parenthesis string contains no nodes."""


class DepthOutOfRangeError(ValueError):
    """Requested depth is negative or exceeds the node's own depth."""


class UnknownNodeError(ValueError):
    """Node id outside 0..n-1."""


@dataclass(frozen=True)
class Tree:
    """Rooted tree over nodes 0..n-1; parent[root] == -1.

    ``children`` lists are in ascending order, which for a parenthesis
    string is input order, since its nodes are numbered in preorder.
    """

    parent: list[int]
    children: list[list[int]]
    root: int

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @classmethod
    def from_parents(cls, parent: list[int]) -> Tree:
        """The tree whose node v has parent ``parent[v]``, -1 for the root.

        Raises MalformedTreeError (entry outside -1..n-1), CycleError, or
        NoRootError / MultipleRootsError unless exactly one root exists.
        """
        n = len(parent)
        for v, p in enumerate(parent):
            if not -1 <= p < n:
                raise MalformedTreeError(f"parent of node {v} is {p}, outside -1..{n - 1}")

        # walk each chain, colouring nodes done/in-progress
        state = bytearray(n)  # 0 unvisited, 1 on current walk, 2 settled
        for v0 in range(n):
            if state[v0]:
                continue
            chain = []
            v = v0
            while v != -1 and state[v] == 0:
                state[v] = 1
                chain.append(v)
                v = parent[v]
            if v != -1 and state[v] == 1:
                raise CycleError(f"parent chain from node {v0} loops at node {v}")
            for u in chain:
                state[u] = 2

        roots = [v for v, p in enumerate(parent) if p == -1]
        if not roots:
            raise NoRootError("no node has parent -1")
        if len(roots) > 1:
            raise MultipleRootsError(f"nodes {roots} all have parent -1")

        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p != -1:
                children[p].append(v)
        return cls(parent=parent, children=children, root=roots[0])


def read_ints(text: str, error: type[ValueError]) -> list[int]:
    """Whitespace-separated integers, raising ``error`` on a bad token.

    A count header, dropped, is a first line holding a single integer equal
    to the number of tokens after it; a one-line input never has one.
    """
    tokens = text.split()
    if not tokens:
        raise error("no tokens")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as e:
        raise error(f"non-integer token: {e}") from None
    if len(numbers) >= 2 and numbers[0] == len(numbers) - 1:
        # only whitespace lies between the tokens, so a newline there ends the first line
        end = text.find(tokens[0]) + len(tokens[0])
        if text.find("\n", end, text.find(tokens[1], end)) != -1:
            del numbers[0]
    return numbers


def parse_parent_array(text: str) -> Tree:
    """Parse "n\\np0 p1 ... p(n-1)" (count line optional, see :func:`read_ints`)
    and check it with :meth:`Tree.from_parents`."""
    return Tree.from_parents(read_ints(text, MalformedTreeError))


def parse_balanced_parens(text: str) -> Tree:
    """Parse a tree from nested parentheses, e.g. "((())())".

    Each '(' opens a node (ids assigned in preorder), each ')' closes the
    innermost open one.  Whitespace is ignored.
    """
    parent: list[int] = []
    stack: list[int] = []
    closed_root = False
    for c in text:
        if c.isspace():
            continue
        if c == "(":
            if closed_root:
                raise MultipleRootsError("several top-level trees in parenthesis string")
            parent.append(stack[-1] if stack else -1)
            stack.append(len(parent) - 1)
        elif c == ")":
            if not stack:
                raise UnbalancedParensError("')' with no open node")
            stack.pop()
            if not stack:
                closed_root = True
        else:
            raise MalformedTreeError(f"unexpected character {c!r}")
    if stack:
        raise UnbalancedParensError(f"{len(stack)} nodes never closed")
    if not parent:
        raise EmptyTreeError("no nodes")
    return Tree.from_parents(parent)


@dataclass(frozen=True)
class EulerTour:
    """DFS tour of a tree: 2n-1 stops covering every edge twice.

    ``nodes[j]`` and ``depths[j]`` describe stop j; a node is recorded on
    first entry and again after each child returns.  ``first_pos[v]`` is
    the earliest stop at v and ``depth[v]`` its distance from the root.
    Adjacent depths differ by exactly one, so ``depths`` is 1-difference.
    All four are int64 ndarrays.
    """

    nodes: np.ndarray
    depths: np.ndarray
    first_pos: np.ndarray
    depth: np.ndarray


def euler_tour(tree: Tree) -> EulerTour:
    """Iterative DFS tour; children are visited in their stored order."""
    n = tree.n_nodes
    m = 2 * n - 1
    nodes = np.zeros(m, dtype=np.int64)
    depths = np.zeros(m, dtype=np.int64)
    first_pos = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    tour = EulerTour(nodes=nodes, depths=depths, first_pos=first_pos, depth=depth)
    nodes, depths, first_pos, depth = map(memoryview, (nodes, depths, first_pos, depth))
    children = tree.children
    root = tree.root
    nodes[0] = root
    # explicit stack of (node, index of next child to visit)
    stack_node = [root]
    stack_next = [0]
    pos = 1
    while stack_node:
        v = stack_node[-1]
        i = stack_next[-1]
        ch = children[v]
        if i < len(ch):
            stack_next[-1] = i + 1
            w = ch[i]
            d = depth[v] + 1
            depth[w] = d
            first_pos[w] = pos
            nodes[pos] = w
            depths[pos] = d
            pos += 1
            stack_node.append(w)
            stack_next.append(0)
        else:
            stack_node.pop()
            stack_next.pop()
            if stack_node:
                u = stack_node[-1]
                nodes[pos] = u
                depths[pos] = depth[u]
                pos += 1
    assert pos == m
    return tour


class LevelAncestorIndex:
    """O(1) level-ancestor queries after an O(n) build.

    Builds the Euler tour, negates its depth sequence, and answers
    query(v, d) as the node at the first tour position >= first_pos[v]
    with depth <= d; since depths leave v's subtree only through depth
    depth(v) - 1, depth(v) - 2, ..., the first such stop has depth
    exactly d and holds the ancestor.  It keeps only what ``query``
    reads: ``first_pos``, ``depth`` and ``nodes`` from the tour, as
    memoryviews of its arrays, and a find-smaller index over the negated
    tour depths.  Neither the tree nor the tour object is kept.
    """

    __slots__ = ("first_pos", "depth", "nodes", "kappa", "_fs")

    def __init__(self, tree: Tree, kappa: int = 5):
        tour = euler_tour(tree)
        self.first_pos = memoryview(tour.first_pos)
        self.depth = memoryview(tour.depth)
        self.nodes = memoryview(tour.nodes)
        self.kappa = kappa
        # the tour is local, so its depths are negated in place
        np.negative(tour.depths, out=tour.depths)
        self._fs = OneLevelFL(tour.depths, kappa)

    def query(self, v: int, d: int) -> int:
        """Ancestor of v at depth d (root has depth 0).  O(1).

        Raises:
            UnknownNodeError: v outside 0..n-1.
            DepthOutOfRangeError: d < 0 or d > depth(v).
        """
        first_pos = self.first_pos
        if not 0 <= v < len(first_pos):
            raise UnknownNodeError(f"node {v} not in 0..{len(first_pos) - 1}")
        if d < 0 or d > self.depth[v]:
            raise DepthOutOfRangeError(f"node {v} has depth {self.depth[v]}, requested {d}")
        return self.nodes[self._fs.query(first_pos[v], -d)]
