"""Constant-time find-larger queries on 1-difference integer sequences.

A sequence is *1-difference* when adjacent values differ by at most one.
For such a sequence the structure built here answers

    query(x, y) = min { i >= x : values[i] >= y }

in O(1) time after an O(n) build, using O(n) machine words.  Positions
with no answer are reported as ``n`` (also exposed as ``bottom``).
Find-smaller queries are the mirror image and are served by building the
structure over the negated sequence, see :func:`fs_query`.

Sequence values are read as int64, but an index keeps no values: it
keeps each position's height below the largest value y_max, which on a
1-difference sequence is at most n - 1.  Heights, like every array of
positions and offsets, take the width :func:`position_dtype` picks from
the largest value they must hold: int32 below 2^31, int64 otherwise.
The ladders of both the find-larger index and the level-ancestor index
are laid out by one function, ``_ladders``, at the starts of rising runs
only: an offset o into the shared ladder array, anchored at y_max, holds
the entry for a target y at ``o + y - y_max``.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EmptySequenceError",
    "NotOneDifferenceError",
    "ValueOutOfRangeError",
    "NotAnIntegerError",
    "InvalidKappaError",
    "BuildStats",
    "SpaceReport",
    "OneLevelFL",
    "validate_sequence",
    "compute_valleys",
    "fs_query",
]


# The ladder and jump fill sweeps the positions right to left in blocks of
# this many, so that its temporaries grow with one block, not with n, and
# the block's sorted keys stay in cache while its needles are searched.  A
# power of two, so that lowbit(x) = lowbit(x - a) inside a block [a, b)
# for x > a.
BLOCK = 1 << 12

# A block's tall ladder entries, those past the chained ones, are searched
# in pieces of at most this many, so that one ladder of length near n (an
# endpoint's, or a heavy valley's) does not make temporaries of its length.
CHUNK = 8 * BLOCK

# At most this many entries of a ladder, and at most kappa - 1, are chained
# through the next-level-up table; the rest are searched.  It keeps the
# chain's temporaries at a few times the block's size for any kappa.
CHAIN = 8

# closes every block's sorted keys: above every key and every needle
_KEY_END = 2**63 - 1
# a key's level is key >> _BITS (see _fill)
_BITS = BLOCK.bit_length() - 1
# x - a, lowbit(x - a) and its lowbit class, log2 lowbit(x - a), for the
# positions x of a block [a, b); x = a takes the last class, as its climb
# is set apart
_LOCAL = np.arange(BLOCK, dtype=np.int64)
_LOWBIT = _LOCAL & -_LOCAL
_CLASS = np.full(BLOCK, _BITS, dtype=np.uint8)
for _c in range(_BITS):
    _CLASS[1 << _c :: 2 << _c] = _c
del _c
# the entry index of a chained ladder entry
_ROW = np.arange(CHAIN, dtype=np.int64)
for _table in (_LOCAL, _LOWBIT, _CLASS, _ROW):
    _table.flags.writeable = False
del _table


class EmptySequenceError(ValueError):
    """Raised when an operation needs at least one sequence element."""


class NotOneDifferenceError(ValueError):
    """Raised when two adjacent values differ by more than one."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(
            message or f"adjacent values at positions {index - 1} and {index} differ by more than one"
        )


class ValueOutOfRangeError(OverflowError, ValueError):
    """Raised when a value does not fit in a signed 64-bit word."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"value at position {index} lies outside the signed 64-bit range")


class NotAnIntegerError(TypeError):
    """Raised when a value is not an integer (a float, a string, ...)."""

    def __init__(self, index: int, value: object):
        self.index = index
        super().__init__(f"value at position {index} is not an integer: {value!r}")


class InvalidKappaError(ValueError):
    """Raised when the ladder parameter kappa is not an int of at least 3."""


def check_kappa(kappa: int) -> None:
    """Raise InvalidKappaError unless the ladder parameter is an int of at least 3."""
    if not isinstance(kappa, int):
        raise InvalidKappaError(f"kappa must be an int, got {kappa!r}")
    if kappa < 3:
        raise InvalidKappaError(f"kappa must be at least 3, got {kappa}")


def position_dtype(largest: int) -> type[np.signedinteger]:
    """The width of an array of positions or offsets whose entries are at
    most ``largest``: int32 when that is below 2^31, else int64."""
    return np.int32 if largest < 2**31 else np.int64


def int64_array(values: Iterable[int]) -> np.ndarray:
    """The integers in ``values`` as a 1-D int64 array.

    A 1-D int64 ndarray is returned as it is, without a copy; any other
    input is converted from its integers.

    Raises:
        ValueOutOfRangeError: a value does not fit in a signed 64-bit word.
        NotAnIntegerError: a value is not an integer.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        return values
    values = values if isinstance(values, Sequence) else list(values)  # to re-read on failure
    try:
        # array('q') takes integers only, where numpy would truncate 1.5 and parse "3"
        return np.array(array("q", values))
    except (OverflowError, TypeError):
        probe = array("q", [0])
        for i, v in enumerate(values):
            try:
                probe[0] = v
            except OverflowError:
                raise ValueOutOfRangeError(i) from None
            except TypeError:
                raise NotAnIntegerError(i, v) from None
        raise


def validate_sequence(values: Iterable[int]) -> np.ndarray:
    """Check the 1-difference property and return the values as a 1-D int64 array.

    A 1-D int64 ndarray is checked and returned as it is, without a copy;
    any other input is converted from its integers by :func:`int64_array`.

    Raises:
        EmptySequenceError: no elements.
        NotOneDifferenceError: some adjacent pair differs by more than one.
        ValueOutOfRangeError: a value does not fit in a signed 64-bit word.
        NotAnIntegerError: a value is not an integer (a ``TypeError``).
    """
    data = int64_array(values)
    if not len(data):
        raise EmptySequenceError("sequence must contain at least one value")
    lo, hi = data[:-1], data[1:]
    step = hi - lo
    # the step wraps at the int64 limits, but only where the signs differ,
    # and a step of at most one changes sign only between -1 and 0
    bad = (step > 1) | (step < -1) | (((lo < 0) != (hi < 0)) & (lo != -1) & (hi != -1))
    if np.count_nonzero(bad):
        raise NotOneDifferenceError(int(bad.argmax()) + 1)
    return data


def _sweep_valleys(values: Sequence[int]) -> tuple[np.ndarray, int, int]:
    """One left-to-right pass computing the valley of every point (x, values[x]).

    The valley of (x, y) is the rightmost among the lowest points reachable
    from (x, y) by walking left while strictly below y.  The stack holds
    one frame per still-open valley as (position, low, high): `low` is the
    valley's floor and `high` the lowest ceiling seen since, so lows rise
    and highs fall towards the top of the stack.

    Returns (valley, pushes, pops) where valley has n + 1 entries and
    valley[n] = n - 1 by convention.  Works for arbitrary integers, not
    just 1-difference sequences.
    """
    n = len(values)
    # slot 0 is a sentinel frame that is never popped
    fx = [0] * (n + 1)
    flow = [float("-inf")] * (n + 1)
    fhigh = [float("inf")] * (n + 1)
    # a point walled off from every open valley bottoms out at itself, so
    # only the points that descend past a wall write their entry below
    valley = np.arange(n + 1, dtype=position_dtype(n))
    valley[n] = n - 1
    valley_at = memoryview(valley)
    top = 0
    pushes = 0
    for x, yx in enumerate(values):
        t = top
        while flow[t] >= yx:  # valleys at least as low as yx: (x, yx) supersedes them
            t -= 1
        if fhigh[t] >= yx:
            # walled off from the surviving valley: x bottoms out at itself
            if fhigh[t] > yx:  # strictly below the wall, so x opens a valley
                t += 1
                fx[t] = x
                flow[t] = yx
                fhigh[t] = yx
                pushes += 1
                if __debug__:
                    assert flow[t] > flow[t - 1] and fhigh[t] < fhigh[t - 1]
        else:
            # can descend past the wall; find the deepest valley still visible
            while fhigh[t - 1] < yx:
                t -= 1
            valley_at[x] = fx[t]
            if fhigh[t - 1] > yx:
                fhigh[t] = yx  # later points must clear (x, yx) to see deeper
                if __debug__:
                    assert fhigh[t] < fhigh[t - 1] and flow[t] > flow[t - 1]
            else:
                t -= 1  # ceiling matches the next valley's: top frame is absorbed
        top = t
    # every frame popped was pushed, and the sentinel is never popped
    return valley, pushes, pushes - top


def compute_valleys(values: Sequence[int]) -> np.ndarray:
    """Valley index for every position, plus the closing entry.

    Returns an ndarray of length ``len(values) + 1``, of the width
    :func:`position_dtype` picks for n, where entry x is the valley of
    (x, values[x]) and the final entry is n - 1.  Accepts any integer
    sequence and runs in O(n).

    Raises:
        EmptySequenceError: no elements.
    """
    if not len(values):
        raise EmptySequenceError("cannot compute valleys of an empty sequence")
    valley, _, _ = _sweep_valleys(values)
    return valley


@dataclass(frozen=True)
class BuildStats:
    """Operation counters recorded during a build.

    The stack counters are bounded by n, which is what makes the valley
    sweep linear; ``ladder_copies`` is the number of ladder entries
    written, bounded by the ladder-size bound.
    """

    stack_pushes: int
    stack_pops: int
    ladder_copies: int


@dataclass(frozen=True)
class SpaceReport:
    """Exact entry counts for one built structure.

    ``interior_ladder_entries`` excludes the two endpoint ladders, that
    of the run of 0 and that of n - 1, which reach full height; the
    remaining ladders obey
    ``interior_ladder_entries <= interior_bound = (kappa - 1 + kappa_prime) * n``.
    ``words`` counts every stored entry: the n heights, the n jumps, the
    n own-ladder offsets and the ladder entries.  The heights take the
    position width; the rest take 4 or 8, see :func:`position_dtype`.
    """

    total_ladder_entries: int
    interior_ladder_entries: int
    interior_bound: int
    words: int


def _kappa_prime(kappa: int) -> int:
    """ceil((2 * kappa + 2) / (kappa - 2)), the growth of a ladder with the
    weight of its valley."""
    return -((2 * kappa + 2) // (2 - kappa))


def _heights(data: np.ndarray, y_max: int) -> np.ndarray:
    """``y_max - data``, each position's height below the top, in the
    width :func:`position_dtype` picks for n: no height of a 1-difference
    sequence exceeds n - 1.  It is cast as it is computed, so no int64
    temporary of length n is made."""
    n = len(data)
    return np.subtract(y_max, data, out=np.empty(n, dtype=position_dtype(n)))


def _hold(data: np.ndarray, heights: np.ndarray, floor: int, y_max: int, rising_queries: bool) -> None:
    """Turn ``heights``, the weight term kappa_prime * (weight - 1) - 2
    of each position, into the number of ladder entries it holds, in
    place (see :func:`_ladders`).

    A run b..e's ladder holds b's weight term, but at least
    floor + q - b and at most top(b) = y_max - data[b]; b .. q - 1 hold
    one entry each and q the rest.  The ladders of 0's run and of n - 1
    reach the top.  The runs are found in pieces of BLOCK from the
    right, so that the temporaries stay at the size of a piece.
    """
    n = len(data)
    # above every top plus every run's length, as no top reaches n: the
    # ladders of 0's run and of n - 1 are cut to the top
    heights[0] = heights[-1] = 2 * n
    after = n  # the first run start right of the piece
    for j in range(n - 1 - (n - 1) % BLOCK, -1, -BLOCK):
        k = min(j + BLOCK, n)
        piece = data[j:k]
        # the run starts, then one past the piece, which stands for after
        lead = np.empty(k - j + 1, dtype=bool)
        np.less_equal(piece[1:], piece[:-1], out=lead[1:-1])
        lead[0] = j == 0 or data[j] <= data[j - 1]
        lead[-1] = True
        if k == n:
            lead[-2] = True
        runs = lead.nonzero()[0]
        runs += j
        runs[-1] = after
        b = runs[:-1]
        h = heights[b]  # the weight terms
        if rising_queries:
            # q = e holds the ladder less the q - b entries of b .. q - 1:
            # max(weight term - (q - b), floor), at most
            # top(b) - (q - b) = top(q)
            q = runs[1:] - 1
            h += b
            h -= q
        else:
            q = b
        # one entry for each position of a run before q, the rest at q
        heights[j:k] = rising_queries
        np.maximum(h, floor, out=h)
        top = data[q]
        np.subtract(y_max, top, out=top)
        np.minimum(h, top, out=h)
        heights[q] = h
        after = int(runs[0])


def _ladders(
    data: np.ndarray,
    kappa: int,
    y_min: int,
    y_max: int,
    rising_queries: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BuildStats]:
    """The build both :class:`OneLevelFL` and ``LevelAncestorIndex`` run
    over ``data``, a 1-difference int64 array of least and largest values
    ``y_min`` and ``y_max``: the valley sweep, weights, ladders and jumps.
    It returns the own-ladder offsets, ladder entries, jump offsets and
    :class:`BuildStats`.

    The build has two layers.  :func:`_fill` works in positions: it
    writes every ladder entry and, for every x, the position where x's
    jump lands.  This function alone works in offsets, anchored at
    ``y_max``: the entry for a target y of the ladder an offset o names
    is ``ladder_data[o + y - y_max]``.  ``own[x]`` is
    ``start(x) + (y_max - data[x]) - 1`` for the start(x) of x's entries,
    and a jump that lands on p becomes ``own[valley[p]]``, the ladder of
    the landing's valley, which is tall enough for every target the jump
    serves (``valley[n] = n - 1`` for a landing on n).  The offsets lie
    in [-1, total + y_max - y_min) for total ladder entries, so all three
    arrays take the width :func:`position_dtype` picks for the larger of
    that bound and n.

    Ladders go at run starts only.  A run b..e of rising steps starts
    where the data do not rise: at 0, wherever ``data[b] <= data[b - 1]``,
    and at n - 1, which always starts a run of its own.  Every valley is
    a run start.  A position x of the run answers every target above
    ``data[x]`` as b does, so it reads b's ladder, whose entry j answers
    ``data[b] + j + 1``, from entry x - b on: own[x] = own[b].  The
    positions b .. q - 1, for q the run's last query start (e, or b if
    ``rising_queries`` is false), hold one entry each, the one for their
    own level, and q holds the rest, so that start(x) = start(b) + x - b
    and the fill writes each position's entries as it would those of a
    ladder of its own.  The run's ladder holds
    ``kappa_prime * (weight(b) - 1) - 2`` entries, but at least
    ``min(kappa - 1, y_max - y_min) + q - b``, and at most the height of
    b below the top, which the ladders of 0's run and of n - 1 reach.

    ``rising_queries`` says whether queries start on rising steps.
    ``LevelAncestorIndex`` starts them at first visits only, which are
    run starts, so its runs' ladders need not cover the return stops.

    The heights and ladder starts are summed from the valleys here, with
    up, the next position one level higher, as a temporary of n + 1
    positions for the fill; the n + 1 starts then become the n entries
    of ``own`` in place, and only then the landings become offsets: a
    landing's valley can lie left of the piece that jumps to it.
    """
    n = len(data)
    valley, pushes, pops = _sweep_valleys(memoryview(data))
    kappa_prime = _kappa_prime(kappa)

    # what each position holds, then the ladder starts summed from it, in
    # place, in int64: temporary arrays of length n would raise the peak
    # memory.  No height exceeds y_max - y_min, so the floor is cut to it,
    # which keeps any kappa within int64.
    heights = np.bincount(valley[:n], minlength=n)
    heights *= kappa_prime
    heights -= kappa_prime + 2
    _hold(data, heights, min(kappa - 1, y_max - y_min), y_max, rising_queries)
    heights.cumsum(out=heights)
    # offsets and positions take the width of the larger of n and the
    # offsets' bound, read from the int64 sum before the arrays are allocated
    total = int(heights[-1])
    width = position_dtype(max(n, total + y_max - y_min))
    starts = np.empty(n + 1, dtype=width)
    starts[0] = 0
    starts[1:] = heights
    del heights
    ladder_data = np.empty(total, dtype=width)
    jump = np.empty(n, dtype=width)  # every entry is written below
    up = np.empty(n + 1, dtype=position_dtype(n))
    up[n] = n
    _fill(data, y_min, y_max, up, (kappa, starts, ladder_data, jump))
    # the last start only ended the last ladder: cut it off in place (no
    # view of the buffer is left, so the check for one is skipped), then
    # own[x] = start(x) + (y_max - data[x]) - 1 and jump[x] = own[valley[p]]
    # for its landing p, in place and in pieces of BLOCK, so that their
    # temporaries stay below the fill's
    own = starts
    own.resize(n, refcheck=False)
    for j in range(0, n, BLOCK):
        own[j : j + BLOCK] -= data[j : j + BLOCK] - y_max + 1
    for j in range(0, n, BLOCK):
        jump[j : j + BLOCK] = own[valley[jump[j : j + BLOCK]]]
    return own, ladder_data, jump, BuildStats(pushes, pops, total)


def _first_at(sorted_keys: np.ndarray, needles: np.ndarray, a: int, next_at: np.ndarray) -> np.ndarray:
    """The first position at each needle's level, at or after the position
    the needle names, for the block that starts at ``a``.

    ``sorted_keys`` are the block's keys, sorted and closed by a key above
    every needle (see :func:`_fill`).  The answer is the first key at or
    above the needle if that key is at the needle's level, else
    ``next_at`` of that level, the first position there after the block.
    """
    hit = sorted_keys[sorted_keys.searchsorted(needles)]
    hit_level = hit >> _BITS
    hit &= BLOCK - 1
    hit += a
    level = needles >> _BITS
    return np.where(hit_level == level, hit, next_at[level])


def _fill(
    data: np.ndarray,
    y_min: int,
    y_max: int,
    up: np.ndarray,
    ladders: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """The right-to-left block sweep behind the indexes over ``data``.  It
    works in positions only.

    It writes ``up[x]``, the first position after x one level above
    ``data[x]``, or n for none, for every x < n; ``up[n]`` must hold n.
    With ``ladders``, the tuple (kappa, starts, ladder_data, jump) of
    :func:`_ladders`, it also writes every ladder entry, the entry r that
    x holds, at ``starts[x] + r``, being the first position after x at
    level data[x] + r + 1, and in ``jump[x]`` the first position after
    x at level data[x] + (kappa - 2) * lowbit(x), where x's jump lands
    (x itself for x = 0, and n past y_max).  :func:`_ladders` turns the
    landings into offsets.

    Position x is at level data[x] - y_min and has the key
    level * w + x - a in its block [a, b), with w = BLOCK > x - a, so a
    key's level is key >> _BITS and x - a is key & (w - 1); a block's
    sorted keys run level by level, by position within a level.  The
    first position after x at level v is the first key at or above the
    needle v * w + x - a if that key is at level v, else next_at[v], the
    first position >= b at level v, carried from the blocks to the right
    (:func:`_first_at`).  One slot beyond y_max keeps y_max + 1
    addressable (always n).

    A block searches its keys in ascending groups of needles, so that
    each search starts near where the last one ended.  One search holds
    the block's own needles: its keys one level up, which give up; its
    jumps by lowbit class, as the jumps of one class climb alike; and
    the first key of each of its levels, the carry.  On a 1-difference
    sequence entry r + 1 of a ladder is up of entry r, so the first
    ``rows`` entries of each ladder, at most kappa - 1 and ``CHAIN``,
    are chained through up; only the tall entries past them are
    searched, in pieces of at most ``CHUNK``, one search a piece.  The
    carry is updated after both searches.  Temporaries stay at the size
    of one block or piece, and the block's keys stay in cache.
    """
    n = len(data)
    size = y_max - y_min + 2
    next_at = np.full(size, n, dtype=np.int64)
    w = BLOCK
    top = (size - 1) * w  # a needle at level y_max + 1, which no key reaches
    jumps = 0
    if ladders is not None:
        kappa, starts, ladder_data, jump = ladders
        # a jump climbs (kappa - 2) * lowbit(x) levels, at most to y_max + 1,
        # so kappa - 2 is cut to the level range first to stay in int64
        step = min(kappa - 2, size - 1)
        jump_keys = _LOWBIT[: min(n, BLOCK)] * (step * w)
        # entries 0 .. rows - 1 of each ladder are chained; one row at least,
        # even where the spread y_max - y_min, which no ladder passes, is 0
        rows = min(kappa - 1, CHAIN, max(size - 2, 1))
        row = _ROW[1:rows, None]
    for a in range(n - 1 - (n - 1) % BLOCK, -1, -BLOCK):
        b = min(a + BLOCK, n)
        m = b - a
        keys = np.empty(m + 1, dtype=np.int64)
        block_keys = keys[:m]
        np.subtract(data[a:b], y_min, out=block_keys)
        block_keys *= w
        block_keys += _LOCAL[:m]
        keys[m] = _KEY_END  # every needle then finds a key
        sorted_keys = np.sort(keys)
        lo = int(sorted_keys[0]) >> _BITS
        hi = int(sorted_keys[m - 1]) >> _BITS  # a 1-difference block holds every level in [lo, hi]
        local = sorted_keys[:m] & (w - 1)  # x - a, in key order
        if ladders is not None:
            jumps = m
            jump_needles = block_keys + jump_keys[:m]
            np.minimum(jump_needles, top, out=jump_needles)
            # x = a climbs by lowbit(a), in Python integers: jump_keys[0] is 0
            jump_needles[0] = min(int(block_keys[0]) + step * (a & -a) * w, top)
            # by lowbit class, and in key order inside a class: the sort is
            # stable, and x = a, in a class of its own, comes last
            by_class = local[_CLASS[local].argsort(kind="stable")]
        # the first key of each level, carried to the blocks on the left
        carry = np.arange(lo * w, (hi + 1) * w, w) if a else _LOCAL[:0]
        needles = np.empty(m + jumps + len(carry), dtype=np.int64)
        np.add(sorted_keys[:m], w, out=needles[:m])
        if jumps:
            jump_needles.take(by_class, out=needles[m : 2 * m])
        needles[m + jumps :] = carry
        answers = _first_at(sorted_keys, needles, a, next_at)
        up[a:b][local] = answers[:m]
        if ladders is not None:
            jump[a:b][by_class] = answers[m : 2 * m]
            # in int64: the needle of a tall entry r adds (r + 1) * w to a
            # key, by way of w times the entry's rank in the block, and
            # either passes 2^31 from 2^19 on
            st = starts[a : b + 1].astype(np.int64)
            heights = st[1:] - st[:-1]
            # the entries past the chained ones are searched.  The ladders
            # x that hold them are ranked through the block: ladder x[i]
            # holds ranks tall[i] to tall[i + 1], and rank q is its entry
            # q - tall[i] + rows
            x = (heights > rows).nonzero()[0]
            if len(x):
                tall = np.zeros(len(x) + 1, dtype=np.int64)
                np.subtract(heights[x], rows).cumsum(out=tall[1:])
                for q0 in range(0, int(tall[-1]), CHUNK):
                    q1 = min(q0 + CHUNK, int(tall[-1]))
                    # entry r of ladder x sits at st[x] + r and answers
                    # level + r + 1, so its needle is key_x + (r + 1) * w
                    cut = np.minimum(np.maximum(tall, q0), q1)
                    counts = cut[1:] - cut[:-1]
                    r0 = np.subtract(rows, tall[:-1])  # r - q for the ranks q of ladder x[i]
                    dst = (st[x] + r0).repeat(counts)
                    dst += np.arange(q0, q1)
                    r0 += 1
                    r0 *= w
                    r0 += block_keys[x]
                    tall_needles = r0.repeat(counts)
                    tall_needles += np.arange(q0 * w, q1 * w, w)
                    ladder_data[dst] = _first_at(sorted_keys, tall_needles, a, next_at)
            # entry 0 of a ladder is up[x]; row r holds entry r of each
            # ladder taller than one, up of row r - 1
            held = heights > 0
            ladder_data[st[:m][held]] = up[a:b][held]
            held = (heights > 1).nonzero()[0]
            chain = np.empty((rows, len(held)), dtype=up.dtype)
            up[a:b].take(held, out=chain[0])
            for r in range(1, rows):
                up.take(chain[r - 1], out=chain[r], mode="clip")
            chained = row < heights.take(held)  # [r - 1, x]: entry r of ladder x is chained
            ladder_data[(st.take(held) + row)[chained]] = chain[1:][chained]
        if a:  # the carry, which the last block has no use for
            next_at[lo : hi + 1] = answers[m + jumps :]


class OneLevelFL:
    """Find-larger index over a 1-difference sequence.

    The constructor runs the whole O(n) build, ``_ladders``: a valley
    sweep, per-valley weights, ladders of partial find-larger answers, and
    a jump table that sends any query too tall for its own ladder into a
    ladder tall enough to hold it.  ``query`` then answers in O(1).
    ``_ladders`` and ``_fill`` describe how the ladders and jumps are
    filled.

    All ladders share one array, ``ladder_data``, and are named by
    offsets anchored at ``y_max``: the ladder an offset o names holds its
    entry for a target y at ``ladder_data[o + y - y_max]``, one read.
    Ladders go at run starts, where the values do not rise, and at
    n - 1: a position x on a rising step answers every target above
    ``values[x]`` as the start b of its rising run does, so ``own[x]``
    is ``own[b]``, and b's ladder is tall enough for the short climbs of
    every position of its run.  ``jump[x]`` is ``own[p]`` for the valley
    p that x jumps to, itself a run start.  The offsets lie in
    [-1, len(ladder_data) + y_max - y_min).  ``own``, ``jump`` and
    ``ladder_data`` are memoryviews of ndarrays, cheaper to read one
    entry at a time; all three take the width :func:`position_dtype`
    picks for the larger of n and that bound, so int32 short of 2^31;
    the fill itself computes in int64.
    The values themselves are not kept: the index keeps each position's
    height below the top, ``y_max - values[x]``, in the width
    :func:`position_dtype` picks for n, and a query for y climbs
    ``height[x] + y - y_max`` levels and reads the ladder entry at
    ``o + y - y_max``.

    The structure is immutable after construction and safe to share
    between threads.

    Args:
        values: the sequence, as integers or as the int64 ndarray that
            :func:`validate_sequence` returns; such an array is read during
            the build only.
        kappa: ladder tuning parameter, at least 3.  Interior ladder
            entries stay within (kappa - 1 + kappa_prime) * n, which is
            minimised (8n) at kappa in {4, 5}.

    Raises:
        InvalidKappaError: kappa is not an int, or is below 3.
        EmptySequenceError / NotOneDifferenceError: bad input sequence.
    """

    __slots__ = (
        "n",
        "kappa",
        "kappa_prime",
        "y_min",
        "y_max",
        "bottom",
        "jump",
        "own",
        "ladder_data",
        "build_stats",
        "_height",
    )

    def __init__(self, values: Iterable[int], kappa: int = 5):
        check_kappa(kappa)
        data = validate_sequence(values)
        n = len(data)
        y_min = int(data.min())
        y_max = int(data.max())
        own, ladder_data, jump, self.build_stats = _ladders(data, kappa, y_min, y_max)

        self._height = memoryview(_heights(data, y_max))
        self.n = n
        self.kappa = kappa
        self.kappa_prime = _kappa_prime(kappa)
        self.y_min = y_min
        self.y_max = y_max
        self.bottom = n
        self.jump = memoryview(jump)
        self.own = memoryview(own)
        self.ladder_data = memoryview(ladder_data)

    def query(self, x: int, y: int) -> int:
        """Least position i >= x with values[i] >= y, or ``bottom`` (= n).

        Total over all integer arguments, numpy integers among them, which
        are answered as the ints they hold: x may lie outside [0, n) and y
        outside the value range.  O(1).
        """
        if type(x) is not int or type(y) is not int:
            return self.query(operator.index(x), operator.index(y))
        n = self.n
        if x >= n or y > self.y_max:
            return n
        if x < 0:
            x = 0
        dy = y - self.y_max  # at most 0
        t = self._height[x] + dy  # y - values[x]
        if t <= 0:
            return x
        if t < self.kappa:
            # the ladder of x's run is tall enough: it holds at least
            # min(kappa - 1, height[x]) entries above values[x]
            o = self.own[x]
        else:
            # align x down to a multiple of p, the largest power of two at
            # most t // kappa, avoiding positions whose power-of-two weight
            # exceeds p
            p = 1 << ((t // self.kappa).bit_length() - 1)
            xh = x & -p
            if xh and not xh & p:
                xh -= p
            o = self.jump[xh]
        i = self.ladder_data[o + dy]
        if __debug__:
            assert i == n or (i >= x and self._height[i] == -dy)
        return i

    def find_larger(self, x: int, y: int) -> int | None:
        """Like :meth:`query` but returns None when no position qualifies."""
        i = self.query(x, y)
        return None if i == self.n else i

    def space_report(self) -> SpaceReport:
        """Exact entry counts against the linear-space bound."""
        n = self.n
        height = self._height
        total = len(self.ladder_data)
        # all but the endpoint ladders, which reach the top: the ladder of
        # 0's run and that of n - 1, both empty when n = 1
        interior = total - height[0] - height[n - 1]
        # heights + jump + own + ladder data
        words = 3 * n + total
        return SpaceReport(
            total_ladder_entries=total,
            interior_ladder_entries=interior,
            interior_bound=(self.kappa - 1 + self.kappa_prime) * n,
            words=words,
        )

    def entry_count(self) -> int:
        """Stored entries, as counted by :meth:`space_report`."""
        return sum(len(a) for a in self._arrays())

    def resident_bytes(self) -> int:
        """Bytes held by the stored arrays: the heights, jumps, own-ladder
        offsets and ladder entries."""
        return sum(a.nbytes for a in self._arrays())

    def _arrays(self) -> tuple[memoryview, ...]:
        return (self._height, self.jump, self.own, self.ladder_data)


def fs_query(structure: OneLevelFL, x: int, d: int) -> int:
    """Find-smaller through a structure built over the negated sequence.

    If ``structure`` was built from [-v for v in values], this returns
    min { i >= x : values[i] <= d }, with ``structure.bottom`` for none.
    """
    return structure.query(x, -d)
