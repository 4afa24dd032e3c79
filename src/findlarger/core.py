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
are laid out by one function, ``_ladders``, at descent ends only: the
run starts whose next step rises, and n - 1.  Every position reads the
ladder of the end of its descent, or of the start of its rising run,
through an offset o into the shared ladder array, anchored at y_max,
which holds the entry for a target y at ``o + y - y_max``.
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
# x - j for x in [j, j + CHUNK], for the backward fill of a piece's
# descents in _ladders, narrower than _LOCAL
_SPAN = np.arange(CHUNK + 1, dtype=np.int32)
for _table in (_LOCAL, _LOWBIT, _CLASS, _ROW, _SPAN):
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
    of 0's descent end and that of n - 1, which reach full height; the
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


def _hold(
    data: np.ndarray,
    heights: np.ndarray,
    up: np.ndarray,
    kappa_prime: int,
    floor: int,
    y_max: int,
    rising_queries: bool,
) -> int:
    """Turn ``heights``, the weight of each position, into the number of
    ladder entries it holds, in place (see :func:`_ladders`), and set
    ``up[q]``, for the last holder q of each ladder, to the number of q's
    entries at levels up to one above the top of the ladder's descent,
    which :func:`_ladders` gathers from ``up`` and :func:`_fill` need not
    search.  It returns the largest of these numbers.

    A descent end z's ladder holds its weight term
    kappa_prime * (weight - 1) - 2, but at least floor + max(q - z, drop)
    and at most top(z) = y_max - data[z], for drop = data[s] - data[z]
    below the top s of z's descent; z .. q - 1 hold one entry each and q
    the rest.  The ladders of 0's descent end and of n - 1 reach the top.
    The positions before n - 1 are read in pieces of BLOCK from the
    right, so that the temporaries stay at the size of a piece, and
    within a piece the turns of the steps, where they turn to rise at a
    descent end and to fall at a peak, alternate.  A peak is the top of
    the descent after it and ends the run before it.  A descent can
    cross a piece edge: the ladder of a piece's first descent end is
    finished at the last peak of a piece further left, and that of 0's
    descent end after the last piece.
    """
    n = len(data)
    # n - 1 ends a descent of its own, whose ladder reaches the top, and a
    # run rising into it ends at n - 2
    last = int(data[-1])
    heights[-1] = y_max - last
    up[n - 1] = 0
    waiting = n - 1 if n == 1 or last <= data[-2] else -1  # q of the first descent end right of the piece
    peak = n - 2  # the first peak right of the piece
    deep = 0
    for j in range(n - 2 - (n - 2) % BLOCK, -1, -BLOCK):
        k = min(j + BLOCK, n - 1)
        # rise[i]: whether the step after j - 1 + i rises; the step into 0
        # falls, as from a top above every value
        rise = np.empty(k - j + 1, dtype=bool)
        rise[0] = j and data[j] > data[j - 1]
        np.greater(data[j + 1 : k + 1], data[j:k], out=rise[1:])
        turn = (rise[1:] != rise[:-1]).nonzero()[0]
        if len(turn):
            f = 0 if rise[turn[0] + 1] else 1  # whether a peak turns first
            turn += j
            ends = turn[f::2]
            h = heights[ends]  # the weights
        # one entry for each position of a run before q, the rest at q
        heights[j:k] = rise[1:] if rising_queries else 0
        if not len(turn):
            continue
        if waiting >= 0:  # the descent of the first descent end right of here
            over = int(data[turn[-1]]) - int(data[waiting])
            heights[waiting] = min(y_max - int(data[waiting]), max(int(heights[waiting]), floor + over))
            up[waiting] = over + 1
            deep = max(deep, over + 1)
        # the top of each descent, the peak before its end; that of the
        # first descent end lies further left where f is 0
        tops = turn[1 - f :: 2][: len(ends) - 1 + f]
        q = ends
        if rising_queries:  # the peak after each, or the first right of here
            q = turn[1 + f :: 2]
            if len(q) < len(ends):
                q = np.concatenate((q, [peak]))
        level = data[q]
        # data[s] - data[q] = drop - (q - z) for the top s of each descent
        over = np.empty_like(level)
        if not f:
            over[0] = 0
        np.subtract(data[tops], level[1 - f :], out=over[1 - f :])
        waiting = -1 if f else int(q[0])
        if f:
            peak = int(turn[0])
            if not len(ends):
                continue
        # q = e holds the ladder less the q - z entries of z .. q - 1:
        # max(weight term - (q - z), floor + max(drop - (q - z), 0)), at
        # most top(z) - (q - z) = top(q)
        h *= kappa_prime
        h -= kappa_prime + 2
        if rising_queries:
            h += ends
            h -= q
        np.maximum(h, floor, out=h)
        over += floor
        np.maximum(h, over, out=h)
        over -= floor - 1
        up[q] = over
        deep = max(deep, int(over.max()))
        np.subtract(y_max, level, out=level)
        np.minimum(h, level, out=h)
        heights[q] = h
    # 0's descent end, under a top above every value: its ladder reaches
    # the top, and the gather writes its entries up to data[0] + 1
    level = int(data[waiting])
    heights[waiting] = y_max - level
    up[waiting] = gathered = int(data[0]) - level + 1
    return max(deep, gathered)


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

    Ladders go at descent ends only.  A run of rising steps starts where
    the data do not rise: at 0, wherever ``data[b] <= data[b - 1]``, and
    at n - 1, which always starts a run of its own.  A descent end z is a
    run start whose next step rises, or n - 1; its descent s..z is the
    stretch before it whose steps do not rise, from the end s of the run
    before it (or from 0), and its run is z..e.  Every valley is a
    descent end.  On a non-rising step x -> x + 1 every target above
    ``data[x]`` has the same answer from x as from x + 1, and on a rising
    run every target above ``data[x]`` the same from x as from z, so the
    positions of the descent and of the run (but e, which tops the next
    descent) read z's ladder, whose entry j answers ``data[z] + j + 1``:
    own[x] = own[z].  The positions z .. q - 1, for q the run's last query
    start (e, or z if ``rising_queries`` is false), hold one entry each,
    the one for their own level, and q holds the rest, so that
    start(x) = start(z) + x - z and the fill writes each position's
    entries as it would those of a ladder of its own; the positions of
    the descent hold none.  z's ladder holds
    ``kappa_prime * (weight(z) - 1) - 2`` entries, but at least
    ``min(kappa - 1, y_max - y_min) + max(q - z, data[s] - data[z])``, and
    at most the height of z below the top, which the ladders of 0's
    descent end and of n - 1 reach (:func:`_hold`).

    ``rising_queries`` says whether queries start on rising steps.
    ``LevelAncestorIndex`` starts them at first visits only, which are
    the positions of descents and their ends, so its ladders need not
    cover the return stops after a descent end.

    The heights and ladder starts are summed from the valleys here, with
    up, the next position one level higher, as a temporary of n + 1
    positions for the fill; the n + 1 starts then become the n entries
    of ``own`` in place.  A position x of a descent, one level below the
    top s or lower, writes the entry for ``data[x] + 1`` of its end's
    ladder, ``up[x]``: so the entries up to one above s are a gather
    from up, which the fill does not search.  Only then the landings
    become offsets: a landing's valley can lie left of the piece that
    jumps to it.
    """
    n = len(data)
    valley, pushes, pops = _sweep_valleys(memoryview(data))
    kappa_prime = _kappa_prime(kappa)

    # each position's weight, then what it holds, in place, in int64:
    # temporary arrays of length n would raise the peak memory.  No height
    # exceeds y_max - y_min, so the floor is cut to it, which keeps any
    # kappa within int64.
    heights = np.bincount(valley[:n], minlength=n)
    up = np.empty(n + 1, dtype=position_dtype(n))
    up[n] = n
    deep = _hold(data, heights, up, kappa_prime, min(kappa - 1, y_max - y_min), y_max, rising_queries)
    # offsets and positions take the width of the larger of n and the
    # offsets' bound, read from the int64 total before the arrays are
    # allocated; the ladder starts are summed in that width, which holds
    # every partial sum
    total = int(heights.sum())
    width = position_dtype(max(n, total + y_max - y_min))
    starts = np.empty(n + 1, dtype=width)
    starts[0] = 0
    np.cumsum(heights, dtype=width, out=starts[1:])
    del heights
    ladder_data = np.empty(total, dtype=width)
    jump = np.empty(n, dtype=width)  # every entry is written below
    _fill(data, y_min, y_max, up, (kappa, starts, ladder_data, jump))
    # the last start only ended the last ladder: cut it off in place (no
    # view of the buffer is left, so the check for one is skipped).  Then,
    # in pieces of CHUNK from the right, as the fill searches its tall
    # entries, so that their temporaries stay at the fill's:
    # own[x] = start(x) + (y_max - data[x]) - 1; a position x of a descent,
    # whose next step does not rise, takes own[z] of its end z, the first
    # position after it whose next step rises (n - 1 included), whose own
    # is final, as it lies in this piece or one already done; and x below
    # the top writes the entry for data[x] + 1 of z's ladder, up[x], at
    # own[z] + data[x] + 1 - y_max, where the fill left entries unsearched.
    own = starts
    own.resize(n, refcheck=False)
    for j in range(n - 1 - (n - 1) % CHUNK, -1, -CHUNK):
        k = min(j + CHUNK, n)
        own[j:k] -= data[j:k] - y_max + 1
        e = min(k, n - 1)  # n - 1 is the last descent end
        after, here = data[j + 1 : e + 1], data[j:e]
        # x - j for each x, or e - j where the next step does not rise, then
        # the least at or after it
        end = np.multiply(after <= here, _SPAN[e - j], dtype=_SPAN.dtype)
        np.maximum(end, _SPAN[: e - j], out=end)
        np.minimum.accumulate(end[::-1], out=end[::-1])
        own[j:e] = own[j : e + 1].take(end)
        if deep > min(kappa - 1, CHAIN):  # else the fill chains them all
            # one position of each level of a descent writes, the last,
            # below the top: y_max - data[x] - 1 >= 0
            below = np.subtract(y_max, here, out=np.empty(e - j, dtype=width))
            below -= 1
            x = ((after < here) & (below >= 0)).nonzero()[0]
            slot = own[j:e].take(x)
            slot -= below.take(x)
            ladder_data[slot] = up[j:e].take(x)
    # only then the landings become offsets: a landing's valley can lie
    # left of the piece that jumps to it
    for j in range(0, n, CHUNK):
        jump[j : j + CHUNK] = own[valley[jump[j : j + CHUNK]]]
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
    are chained through up.  Of the tall entries past them, those below
    ``up[x]`` are left to the descent gather of :func:`_ladders`, as
    ``up[x]`` holds their count (:func:`_hold`) until this block writes
    it, and only the rest are searched, in pieces of at most ``CHUNK``,
    one search a piece.  The carry is updated after both searches.
    Temporaries stay at the size of one block or piece, and the block's
    keys stay in cache.
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
        if ladders is not None:
            # in int64: the needle of a tall entry r adds (r + 1) * w to a
            # key, by way of w times the entry's rank in the block, and
            # either passes 2^31 from 2^19 on
            st = starts[a : b + 1].astype(np.int64)
            heights = st[1:] - st[:-1]
            # the entries from low = max(rows, up[x]) on are searched, read
            # before up[a:b] is written.  The ladders x that hold them are
            # ranked through the block: ladder x[i] holds ranks tall[i] to
            # tall[i + 1], and rank q is its entry q - tall[i] + low[i]
            x = (heights > rows).nonzero()[0]
            if len(x):
                low = up[a:b].take(x)
        up[a:b][local] = answers[:m]
        if ladders is not None:
            jump[a:b][by_class] = answers[m : 2 * m]
            if len(x):
                np.maximum(low, rows, out=low)
                count = heights.take(x)
                count -= low
                np.maximum(count, 0, out=count)
                tall = np.zeros(len(x) + 1, dtype=np.int64)
                count.cumsum(out=tall[1:])
                for q0 in range(0, int(tall[-1]), CHUNK):
                    q1 = min(q0 + CHUNK, int(tall[-1]))
                    # entry r of ladder x sits at st[x] + r and answers
                    # level + r + 1, so its needle is key_x + (r + 1) * w
                    cut = np.minimum(np.maximum(tall, q0), q1)
                    counts = cut[1:] - cut[:-1]
                    r0 = np.subtract(low, tall[:-1])  # r - q for the ranks q of ladder x[i]
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
    Ladders go at descent ends: the run starts whose next step rises,
    and n - 1.  A position x on a non-rising step answers every target
    above ``values[x]`` as x + 1 does, and one on a rising run as the run
    start z does, so ``own[x]`` is ``own[z]`` for the end z of x's descent
    or the start of its run, and z's ladder is tall enough for the short
    climbs of every position of both.  ``jump[x]`` is ``own[p]`` for the
    valley p that x jumps to, itself a descent end.  The offsets lie in
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
        # all but the endpoint ladders, which reach the top: that of 0's
        # descent end z0 and that of n - 1, one ladder when z0 = n - 1.
        # z0's is the first ladder, as no position before z0 holds an
        # entry, so own[0] = own[z0] = height[z0] - 1
        own = self.own
        interior = total - (own[0] + 1) - (height[n - 1] if own[n - 1] != own[0] else 0)
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
