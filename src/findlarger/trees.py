"""Rooted trees, Euler tours, and constant-time level-ancestor queries.

The level-ancestor problem reduces to a find-smaller query: lay the tree
out as an Euler tour, whose depth sequence is 1-difference, and the
ancestor of v at depth d is the node at the first tour position at or
after v's first visit whose depth is d.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .core import (
    CHUNK,
    NotAnIntegerError,
    ValueOutOfRangeError,
    _ladders,
    check_kappa,
    int64_array,
    position_dtype,
)

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
    "TreeTooLargeError",
    "MAX_TOUR_NODES",
    "Tree",
    "EulerTour",
    "read_ints",
    "parse_parent_array",
    "parse_balanced_parens",
    "euler_tour",
    "LevelAncestorIndex",
]

# the decimal integers int() reads, with or without a sign and underscores
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")
# a bad token is quoted up to this many characters in its error
_QUOTE_LIMIT = 40


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


class TreeTooLargeError(ValueError):
    """Tree has more nodes than :func:`euler_tour` can rank."""


# euler_tour keeps two numbers of at most 2n in one int64 word, which
# holds for every tree below 2^30 nodes
MAX_TOUR_NODES = (1 << 30) - 1

# about one edge in this many is a ruler
RULER_SPACING = 32


@dataclass(frozen=True, eq=False)
class Tree:
    """Rooted tree over nodes 0..n-1; ``parent`` is a 1-D int64 ndarray
    with ``parent[root] == -1``.

    Children are ordered by their numbers (see :func:`euler_tour`), which
    for a parenthesis string is input order, since its nodes are numbered
    in preorder.  Build one with :meth:`from_parents`, which checks it.
    Two trees are equal when their roots and parent arrays are.
    """

    parent: np.ndarray
    root: int

    def __eq__(self, other: object) -> bool:
        # the dataclass __eq__ would take the truth value of an elementwise comparison
        if not isinstance(other, Tree):
            return NotImplemented
        return self.root == other.root and np.array_equal(self.parent, other.parent)

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @classmethod
    def from_parents(cls, parent: Iterable[int]) -> Tree:
        """The tree whose node v has parent ``parent[v]``, -1 for the root.

        A 1-D int64 ndarray is kept as it is, without a copy; any other
        input is converted from its integers (see :func:`~findlarger.core.int64_array`).

        Raises, in this order: MalformedTreeError (an entry that is not an
        integer or lies outside -1..n-1, naming the node), CycleError
        (naming a node whose parent chain never reaches a root, and a node
        on the cycle it enters), then NoRootError / MultipleRootsError
        unless exactly one root exists.
        """
        try:
            parent = int64_array(parent)
        except ValueOutOfRangeError as e:
            raise MalformedTreeError(
                f"parent of node {e.index} lies outside the signed 64-bit range"
            ) from None
        except NotAnIntegerError as e:
            raise MalformedTreeError(f"parent of node {e.index} is not an integer") from None
        n = len(parent)
        bad = (parent < -1) | (parent >= n)
        if bad.any():
            v = int(bad.argmax())
            raise MalformedTreeError(f"parent of node {v} is {parent[v]}, outside -1..{n - 1}")

        # pointer jumping with each root pointing at itself: after k rounds
        # anc[v] is v's ancestor 2^k steps up, or its root once that is nearer
        is_root = parent == -1
        roots = np.flatnonzero(is_root)
        anc = parent.copy()
        anc[roots] = roots
        spare = np.empty_like(anc)
        for _ in range((n - 1).bit_length()):
            np.take(anc, anc, out=spare, mode="clip")  # in range by construction
            anc, spare = spare, anc
            if np.array_equal(anc, spare):
                break  # a fixed point: no later round changes anc
        # 2^k > n - 1 steps reach the root, or run past any path into a cycle,
        # so then anc[v] lies on the cycle; a fixed point reached sooner is
        # the same array, since it stays fixed for the remaining rounds
        stuck = ~is_root[anc]
        if stuck.any():
            v = int(stuck.argmax())
            raise CycleError(
                f"parent chain from node {v} never reaches a root: it loops through node {anc[v]}"
            )

        if not len(roots):
            raise NoRootError("no node has parent -1")
        if len(roots) > 1:
            raise MultipleRootsError(
                f"{len(roots)} nodes have parent -1, among them {roots[0]} and {roots[1]}"
            )
        return cls(parent=parent, root=int(roots[0]))


def read_ints(text: str, error: type[ValueError]) -> list[int]:
    """Whitespace-separated integers, raising ``error`` that names the
    first bad token and its index, the header counted.

    A count header, dropped, is a first line holding a single integer equal
    to the number of tokens after it; a one-line input never has one.
    An integer token too long for int() (``sys.get_int_max_str_digits()``
    digits) is refused as outside the signed 64-bit range, and a quoted
    token is cut to ``_QUOTE_LIMIT`` characters.
    """
    tokens = text.split()
    if not tokens:
        raise error("no tokens")
    numbers: list[int] = []
    try:
        # the work of list(map(...)); a failed extend keeps the ints before the bad token
        numbers.extend(map(int, tokens))
    except ValueError:
        i = len(numbers)
        token = tokens[i]
        # int() refuses a well-formed integer only past its digit limit
        what = "lies outside the signed 64-bit range" if _INTEGER.fullmatch(token) else "is not an integer"
        if len(token) > _QUOTE_LIMIT:
            shown = f"{token[:_QUOTE_LIMIT]!r}... ({len(token)} characters)"
        else:
            shown = repr(token)
        raise error(f"token {i} {what}: {shown}") from None
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
    innermost open one.  Whitespace is ignored.  An error for a character
    names its position in ``text``, whitespace counted.
    """
    parent: list[int] = []
    stack: list[int] = []
    closed_root = False
    for i, c in enumerate(text):
        if c.isspace():
            continue
        if c == "(":
            if closed_root:
                raise MultipleRootsError(f"'(' at position {i} opens a second top-level tree")
            parent.append(stack[-1] if stack else -1)
            stack.append(len(parent) - 1)
        elif c == ")":
            if not stack:
                raise UnbalancedParensError(f"')' at position {i} closes no open node")
            stack.pop()
            if not stack:
                closed_root = True
        else:
            raise MalformedTreeError(f"unexpected character {c!r} at position {i}")
    if stack:
        raise UnbalancedParensError(f"{len(stack)} nodes never closed")
    if not parent:
        raise EmptyTreeError("no nodes")
    return Tree.from_parents(parent)


@dataclass(frozen=True, eq=False)
class EulerTour:
    """DFS tour of a tree: 2n-1 stops covering every edge twice.

    ``nodes[j]`` and ``depths[j]`` describe stop j; a node is recorded on
    first entry and again after each child returns, and children are
    visited in ascending order.  ``first_pos[v]`` is the earliest stop at
    v and ``depth[v]`` its distance from the root.  Adjacent depths differ
    by exactly one, so ``depths`` is 1-difference.  ``depths`` is an int64
    ndarray, as every sequence is; ``nodes``, ``first_pos`` and ``depth``
    hold numbers below 2n and take the width
    :func:`~findlarger.core.position_dtype` picks, int32 for every tree
    :func:`euler_tour` accepts.  Two tours are equal when all four arrays
    are.
    """

    nodes: np.ndarray
    depths: np.ndarray
    first_pos: np.ndarray
    depth: np.ndarray

    def __eq__(self, other: object) -> bool:
        # the dataclass __eq__ would take the truth value of an elementwise comparison
        if not isinstance(other, EulerTour):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _rank(succ: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Every element's distance to the end of a list, by pointer jumping
    (Wyllie 1979).

    ``succ[i]`` is the element after i, and the end is its own successor;
    ``dist[i]`` is the length of the link from i, 0 at the end.  Each
    element keeps its distance and its successor in one int64 word, the
    distance above ``shift = (len(succ) - 1).bit_length()`` bits and the
    successor below, so a round is one gather of whole words: the
    successor's word, added to the element's own with its successor bits
    cleared, sums the distances and jumps the pointer at once.  Distances
    to the end must stay below 2^(63 - shift).  Both arrays are
    overwritten; the distances are returned in ``dist``.
    """
    shift = (len(succ) - 1).bit_length()
    low = (1 << shift) - 1
    word = dist
    word <<= shift
    word |= succ
    got = np.empty_like(word)
    for _ in range(shift):  # 2^shift steps pass the longest path
        np.bitwise_and(word, low, out=succ)
        # in range by construction; with out=, the default mode="raise" copies
        # through a buffer and ran 2.5x slower
        np.take(word, succ, out=got, mode="clip")
        # the successor bits are cleared first, so no carry crosses into the distance
        word &= ~low
        word += got
    word >>= shift
    return word


def _rank_by_rulers(succ: np.ndarray, heads: list[int]) -> np.ndarray:
    """Every element's distance to the end of a list whose links all have
    length 1, by a sparse ruling set (Reid-Miller 1994).

    ``succ[i]`` is the element after i; the end is the last element and
    its own successor, and ``heads`` holds every other element that no
    element leads to.  About one element in ``RULER_SPACING``, drawn from
    a fixed seed, the heads and the end are rulers.  All rulers walk ahead
    at once, each step one gather, marking the elements they pass with
    the ruler's number and the steps taken, until each meets the next
    ruler; then the short list of rulers alone is ranked by
    :func:`_rank`.  The walk takes as many steps as the longest run of
    elements between two rulers, about ``RULER_SPACING * ln(len(succ))``
    for any list not built against that seed.  A list that was, and
    keeps a walker going past twice ``RULER_SPACING`` times the bits of
    its length, is ranked whole by :func:`_rank` instead, so no list
    costs more than that many steps on top of pointer jumping.  A ruler's
    number and a step count share one int64 word, so ``len(succ)`` must
    stay below 2^31.  ``succ`` is overwritten.
    """
    size = len(succ)
    is_ruler = np.zeros(size, dtype=bool)
    is_ruler[np.random.default_rng(0).integers(0, size, size // RULER_SPACING)] = True
    is_ruler[heads] = True
    is_ruler[-1] = True
    rulers = np.flatnonzero(is_ruler)  # the end last
    count = len(rulers)
    shift = (size - 1).bit_length()
    low = (1 << shift) - 1
    # every element's ruler number above shift bits, its steps from that ruler below
    place = np.empty(size, dtype=np.int64)
    place[rulers] = np.arange(count) << shift
    ahead = np.empty(count, dtype=np.int64)  # the next ruler
    gap = np.empty(count, dtype=np.int64)  # the steps to it
    ahead[-1], gap[-1] = count - 1, 0
    # a walker stands on element at, tagged with its ruler's number and its steps
    tag = np.arange(count - 1) << shift
    at = succ[rulers[:-1]]
    # a run between rulers passes this bound with odds below
    # 1 / (size * RULER_SPACING), unless the list was built against the seed
    limit = 2 * RULER_SPACING * size.bit_length()
    steps = 0
    while len(tag):
        if steps == limit:
            del place, is_ruler, tag, at
            dist = np.ones(size, dtype=np.int64)
            dist[-1] = 0
            return _rank(succ, dist)
        steps += 1
        tag += 1
        met = is_ruler[at]
        if met.any():  # on most steps of a small list, no walker meets a ruler
            whose = tag[met] >> shift
            ahead[whose] = place[at[met]] >> shift
            gap[whose] = steps
            passed = ~met
            tag, at = tag[passed], at[passed]
        place[at] = tag
        at = succ[at]
    dist = _rank(ahead, gap)
    steps = np.bitwise_and(place, low, out=succ)
    place >>= shift
    np.take(dist, place, out=place, mode="clip")
    place -= steps
    return place


def euler_tour(tree: Tree) -> EulerTour:
    """The tree's Euler tour by list ranking, in whole-array passes.

    Each non-root node w has a down edge, numbered w, and an up edge,
    numbered n + w; 2n is the end of the list.  down(w) leads to the down
    edge of w's first child, or to up(w) when w is a leaf; up(w) leads to
    the down edge of w's next sibling, or else to up(parent), or to the
    end when the parent is the root.  Each edge's distance to the end
    gives its place in the tour, by a sparse ruling set that leaves only
    about one edge in ``RULER_SPACING`` to pointer jumping
    (:func:`_rank_by_rulers`).  The walk and the pointer jumping each keep
    two numbers of at most 2n in one int64 word, which holds for every
    tree of at most ``MAX_TOUR_NODES`` = 2^30 - 1 nodes.

    Raises:
        TreeTooLargeError: the tree has more than ``MAX_TOUR_NODES`` nodes,
            raised before anything is allocated.
    """
    parent = tree.parent
    n = len(parent)
    if n > MAX_TOUR_NODES:
        raise TreeTooLargeError(f"{n} nodes, more than the {MAX_TOUR_NODES} an Euler tour can rank")
    root = tree.root
    m = 2 * (n - 1)  # edges, each ending at one stop after stop 0
    end = 2 * n

    # children grouped by parent, in ascending order within each group: one
    # sort of (parent + 1, child) keys, so the root, with parent -1, is first
    bits = n.bit_length()
    key = parent + 1
    key <<= bits
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << bits) - 1)
    group = key >> bits
    group -= 1
    del key
    nxt = np.empty(end + 1, dtype=np.int64)
    down, up = nxt[:n], nxt[n:end]
    down[:] = np.arange(n, end)  # a leaf turns back up its own edge
    firsts = np.flatnonzero(group[1:] != group[:-1]) + 1
    down[group[firsts]] = order[firsts]
    # after up(w): the next sibling's down edge, or else the parent's up edge
    then = group + n
    sibling = group[:-1] == group[1:]
    then[:-1][sibling] = order[1:][sibling]
    then[then == n + root] = end
    up[order[1:]] = then[1:]
    del order, group, firsts, then, sibling
    head = int(nxt[root])  # the tour's first edge
    nxt[root] = nxt[n + root] = nxt[end] = end

    dist = _rank_by_rulers(nxt, [root, n + root, head])
    del nxt, down, up
    # the root's own two edges lie in no tour: a distance of m + 1 places them
    # at stop 0, where the root's down edge is written last
    dist[[root, n + root]] = m + 1
    stop = np.subtract(m + 1, dist[:end], out=dist[:end])  # edge -> its stop

    width = position_dtype(m)
    nodes = np.empty(m + 1, dtype=width)
    depths = np.empty(m + 1, dtype=np.int64)
    nodes[stop[n:]] = parent  # up(w) returns to w's parent
    nodes[stop[:n]] = np.arange(n)
    depths[stop[n:]] = -1
    depths[stop[:n]] = 1
    depths[0] = 0
    np.cumsum(depths, out=depths)
    first_pos = stop[:n].astype(width)
    del dist, stop
    depth = depths[first_pos].astype(width)
    return EulerTour(nodes=nodes, depths=depths, first_pos=first_pos, depth=depth)


class LevelAncestorIndex:
    """O(1) level-ancestor queries after an O(n) build.

    Builds the Euler tour and runs :func:`~findlarger.core._ladders`, the
    build of ``OneLevelFL``, over its negated depth sequence: a
    find-smaller index.  The ancestor of v at depth d is the node at the
    first tour stop at or after ``first_pos[v]`` with
    depth at most d: depths leave v's subtree only through depth(v) - 1,
    depth(v) - 2, ..., so that stop has depth exactly d.  With
    t = depth(v) - d, t = 0 answers v itself, t below kappa reads entry
    t - 1 of the ladder at ``first_pos[v]``, and a taller t reads the
    ladder that the aligned jump entry points into.

    The negated depths rise exactly at the n - 1 return stops, so the
    descent ends, where ``_ladders`` puts the ladders, are the leaves and
    the last stop (the root, which gets an empty one): a chain of first
    visits down to a leaf reads the leaf's ladder, which also covers the
    fall to the leaf from the stop before the chain.  Queries start only
    at first visits, so the build runs with ``rising_queries=False``: a
    leaf's ladder need not cover the return stops after it, and they get
    no entries of their own.

    It keeps only what ``query`` reads, as memoryviews: each node's
    ``first_pos`` and ``depth`` from the tour, and the ``own``, ``jump``
    and ``ladder_data`` that :func:`~findlarger.core._ladders` lays out,
    with ``own`` kept at the first visits only, each the offset of its
    chain's leaf.  The ladder entries are
    translated from tour stops to the nodes at those stops.  The negated
    depths have largest value 0, where the offsets are anchored, so the
    ancestor at depth d of the ladder an offset o names is
    ``ladder_data[o - d]``: ``own[v]`` for a short climb, the aligned
    ``jump[xh]`` for a taller one.  Neither the tree, the rest of the
    tour, the ladder starts nor the build's counters are kept.

    Raises InvalidKappaError for a kappa that is not an int of at least 3
    before the tour is built, and TreeTooLargeError for a tree
    :func:`euler_tour` cannot rank.
    """

    __slots__ = ("first_pos", "depth", "kappa", "own", "jump", "ladder_data")

    def __init__(self, tree: Tree, kappa: int = 5):
        check_kappa(kappa)
        tour = euler_tour(tree)
        first_pos, depth, depths = tour.first_pos, tour.depth, tour.depths
        largest = int(depth.max())
        # the tour is local, so its depths are negated in place; they are
        # 1-difference by construction
        np.negative(depths, out=depths)
        own, ladder_data, jump, _ = _ladders(depths, kappa, -largest, 0, rising_queries=False)
        own = own[first_pos]  # by node, at its first visit
        # stops to nodes, in place, in pieces: no temporary of the ladders'
        # length; assigned, as the ladders can be wider than the tour
        nodes = tour.nodes
        for j in range(0, len(ladder_data), CHUNK):
            piece = ladder_data[j : j + CHUNK]
            piece[:] = nodes.take(piece)
        self.first_pos = memoryview(first_pos)
        self.depth = memoryview(depth)
        self.kappa = kappa
        self.own = memoryview(own)
        self.jump = memoryview(jump)
        self.ladder_data = memoryview(ladder_data)

    def query(self, v: int, d: int) -> int:
        """Ancestor of v at depth d (root has depth 0).  O(1).

        Numpy integer arguments are answered as the ints they hold.

        Raises:
            UnknownNodeError: v outside 0..n-1.
            DepthOutOfRangeError: d < 0 or d > depth(v).
        """
        if type(v) is not int or type(d) is not int:
            return self.query(operator.index(v), operator.index(d))
        depth = self.depth
        if not 0 <= v < len(depth):
            raise UnknownNodeError(f"node {v} not in 0..{len(depth) - 1}")
        t = depth[v] - d
        if d < 0 or t < 0:
            raise DepthOutOfRangeError(f"node {v} has depth {depth[v]}, requested {d}")
        if t == 0:
            return v
        if t < self.kappa:
            o = self.own[v]
        else:
            # the aligned jump of OneLevelFL.query
            x = self.first_pos[v]
            p = 1 << ((t // self.kappa).bit_length() - 1)
            xh = x & -p
            if xh and not xh & p:
                xh -= p
            o = self.jump[xh]
        a = self.ladder_data[o - d]
        if __debug__:
            assert depth[a] == d
        return a

    def entry_count(self) -> int:
        """Stored entries: three per node (first tour position, depth and
        own-ladder offset), one jump per tour stop, and the ladder entries
        of the leaves and the last stop."""
        return sum(len(a) for a in self._arrays())

    def resident_bytes(self) -> int:
        """Bytes held by the stored arrays: the nodes' first tour positions,
        depths and own-ladder offsets, the jumps and the ladder entries."""
        return sum(a.nbytes for a in self._arrays())

    def _arrays(self) -> tuple[memoryview, ...]:
        return (self.first_pos, self.depth, self.own, self.jump, self.ladder_data)
