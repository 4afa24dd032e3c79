"""Constant-time find-larger queries on 1-difference integer sequences.

A sequence is *1-difference* when adjacent values differ by at most one.
For such a sequence the structure built here answers

    query(x, y) = min { i >= x : values[i] >= y }

in O(1) time after an O(n) build, using O(n) machine words.  Positions
with no answer are reported as ``n`` (also exposed as ``bottom``).
Find-smaller queries are the mirror image and are served by building the
structure over the negated sequence, see :func:`fs_query`.

Sequence values are stored as int64.  Arrays of positions and offsets
take the width :func:`position_dtype` picks from the largest value they
must hold: int32 below 2^31, int64 otherwise.  The ladders of both the
find-larger index and the level-ancestor index are laid out by one
function, ``_ladders``: an offset o into the shared ladder array,
anchored at the largest value y_max, holds the entry for a target y at
``o + y - y_max``.
"""

from __future__ import annotations

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
# x - a, lowbit(x - a) and its lowbit class, log2 lowbit(x - a), for the
# positions x of a block [a, b); x = a takes the last class, as its climb
# is set apart
_LOCAL = np.arange(BLOCK, dtype=np.int64)
_LOWBIT = _LOCAL & -_LOCAL
_CLASS = np.full(BLOCK, BLOCK.bit_length() - 1, dtype=np.uint8)
for _c in range(BLOCK.bit_length() - 1):
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

    A 1-D int64 ndarray is checked and returned as it is, without a copy,
    so a structure built from it reads the caller's array; any other input
    is converted from its integers by :func:`int64_array`.

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

    ``interior_ladder_entries`` excludes the two endpoint ladders, which
    are allowed to reach full height; the remaining ladders obey
    ``interior_ladder_entries <= interior_bound = (kappa - 1 + kappa_prime) * n``.
    ``words`` counts every stored entry: the n values, the n jumps, the
    n own-ladder offsets and the ladder entries.  The values take 8 bytes
    each; the rest take 4 or 8, see :func:`position_dtype`.
    """

    total_ladder_entries: int
    interior_ladder_entries: int
    interior_bound: int
    words: int


def _kappa_prime(kappa: int) -> int:
    """ceil((2 * kappa + 2) / (kappa - 2)), the growth of a ladder with the
    weight of its valley."""
    return -((2 * kappa + 2) // (2 - kappa))


def _ladders(
    data: np.ndarray,
    kappa: int,
    y_min: int,
    y_max: int,
    starts_at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BuildStats]:
    """The build both :class:`OneLevelFL` and ``LevelAncestorIndex`` run
    over ``data``, a 1-difference int64 array of least and largest values
    ``y_min`` and ``y_max``: the valley sweep, weights, ladders and jumps.
    It returns the own-ladder offsets, ladder entries, jump offsets and
    :class:`BuildStats`.

    Every offset is anchored at ``y_max``: the entry for a target y of
    the ladder an offset o names is ``ladder_data[o + y - y_max]``.
    ``own[x]`` names x's own ladder, ``start(x) + (y_max - data[x]) - 1``
    for the ladder's first entry start(x), and ``jump[x]`` is
    ``own[b]`` for the base b that x jumps to.  The offsets lie in
    [-1, total + y_max - y_min) for total ladder entries, so all three
    arrays take the width :func:`position_dtype` picks for the larger of
    that bound and n.

    ``starts_at`` is a boolean mask of the positions where queries may
    start, None for all of them.  A position outside it gets an empty
    ladder, and the arrays are otherwise those of the full build, each
    ladder moved down by the entries dropped before it.  A jump lands in
    the ladder of a valley, so the mask must hold every valley, the
    closing valley n - 1 among them.

    The heights and ladder starts are summed from the valleys here;
    :func:`_fill` writes the entries and jumps, with up, the next position
    one level higher, as a temporary of n + 1 positions; the n + 1 starts
    then become the n entries of ``own`` in place.

    Raises:
        ValueError: ``starts_at`` misses a valley.
    """
    n = len(data)
    valley, pushes, pops = _sweep_valleys(memoryview(data))
    if starts_at is not None:
        missed = ~starts_at[valley]
        if missed.any():
            x = int(missed.argmax())
            raise ValueError(f"the valley {valley[x]} of position {x} lies outside the start mask")
    kappa_prime = _kappa_prime(kappa)

    # ladder starts, summed from the heights: endpoints reach the top;
    # interior ladders grow with the weight of their valley, as
    # kappa_prime * (weight - 1) - 2 but at least kappa - 1, and never
    # pass the top.  No height exceeds y_max - y_min, so the floor is
    # cut to it, which keeps any kappa within int64.  The heights and
    # their sums are computed in place, in int64: temporary arrays
    # would raise the peak memory.
    heights = np.bincount(valley[:n], minlength=n)
    heights *= kappa_prime
    heights -= kappa_prime + 2
    np.maximum(heights, min(kappa - 1, y_max - y_min), out=heights)
    cap = y_max - data
    np.minimum(heights, cap, out=heights)
    heights[0], heights[-1] = cap[0], cap[-1]
    del cap
    if starts_at is not None:
        heights *= starts_at
    np.cumsum(heights, out=heights)
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
    _fill(data, y_min, y_max, up, (valley, kappa, starts, ladder_data, jump))
    # the last start only ended the last ladder: cut it off in place (no
    # view of the buffer is left, so the check for one is skipped), then
    # own[x] = start(x) + (y_max - data[x]) - 1, in place and in pieces
    # of BLOCK, so that its int64 temporaries stay below the fill's
    own = starts
    own.resize(n, refcheck=False)
    for j in range(0, n, BLOCK):
        own[j : j + BLOCK] -= data[j : j + BLOCK] - y_max + 1
    return own, ladder_data, jump, BuildStats(pushes, pops, total)


def _fill(
    data: np.ndarray,
    y_min: int,
    y_max: int,
    up: np.ndarray,
    ladders: tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """The right-to-left block sweep behind the indexes over ``data``.

    It writes ``up[x]``, the first position after x one level above
    ``data[x]``, or n for none, for every x < n; ``up[n]`` must hold n.
    With ``ladders``, the tuple (valley, kappa, starts, ladder_data, jump)
    of :func:`_ladders`, it also writes every ladder entry and jump.

    Position x is at level data[x] - y_min and has the key
    level * w + x - a in its block [a, b), with w = BLOCK > x - a, so a
    key's level is key >> bits and x - a is key & (w - 1); a block's
    sorted keys run level by level, by position within a level.  The
    first position after x at level v is the first key at or above the
    needle v * w + x - a if that key is at level v, else next_at[v], the
    first position >= b at level v, carried from the blocks to the right.
    One slot beyond y_max keeps y_max + 1 addressable (always n).

    A block searches its keys once, for needles in groups that each
    ascend, so that each search starts near where the last one ended:
    its keys one level up, which give up; its jumps by lowbit class, as
    the jumps of one class climb alike; and the first key of each of its
    levels, the carry.  On a 1-difference sequence entry r + 1 of a
    ladder is up of entry r, so the first ``rows`` entries of each ladder
    are chained through up; only the tall entries past them are
    searched, in pieces of at most CHUNK, the last of which also holds
    the block's other needles.
    """
    n = len(data)
    size = y_max - y_min + 2
    next_at = np.full(size, n, dtype=np.int64)
    w = BLOCK
    bits = BLOCK.bit_length() - 1
    top = (size - 1) * w  # a needle at level y_max + 1, which no key reaches
    jumps = tall_count = 0
    if ladders is not None:
        valley, kappa, starts, ladder_data, jump = ladders
        # a jump climbs (kappa - 2) * lowbit(x) levels, at most to y_max + 1,
        # so kappa - 2 is cut to the level range first to stay in int64
        step = min(kappa - 2, size - 1)
        jump_keys = _LOWBIT[: min(n, BLOCK)] * (step * w)
        # entries 0 .. rows - 1 of each ladder are chained; one row at least,
        # even where the spread y_max - y_min, which no ladder passes, is 0
        rows = min(kappa - 1, CHAIN, max(size - 2, 1))
        row = _ROW[:rows, None]
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
        lo = int(sorted_keys[0]) >> bits
        hi = int(sorted_keys[m - 1]) >> bits  # a 1-difference block holds every level in [lo, hi]
        local = sorted_keys[:m] & (w - 1)  # x - a, in key order
        if ladders is not None:
            jumps = m
            # in int64: the needle of a tall entry r adds (r + 1) * w to a
            # key, by way of w times the entry's rank in the block, and
            # either passes 2^31 from 2^19 on
            st = starts[a : b + 1].astype(np.int64)
            heights = st[1:] - st[:-1]
            chained = row < heights  # [r, x]: entry r of ladder x is chained
            tall_count = int(st[m] - st[0]) - int(np.count_nonzero(chained))
            if tall_count:
                # the tall entries are ranked through the block: ladder x
                # holds ranks tall[x] to tall[x + 1], and rank q is its
                # entry q - tall[x] + rows
                tall = st - st[0]
                tall[1:] -= np.cumsum(np.minimum(heights, rows))
        for q0 in range(0, max(tall_count, 1), CHUNK):
            q1 = min(q0 + CHUNK, tall_count)
            t = q1 - q0
            last = q1 == tall_count
            needles = np.empty(t + m + jumps + hi - lo + 1 if last else t, dtype=np.int64)
            if t:
                # entry r of ladder x sits at st[x] + r and answers level
                # + r + 1, so its needle is key_x + (r + 1) * w
                cut = np.minimum(np.maximum(tall, q0), q1)
                counts = cut[1:] - cut[:-1]
                r0 = np.subtract(rows, tall[:m])  # r - q for the ranks q of ladder x
                dst = np.repeat(st[:m] + r0, counts)
                dst += np.arange(q0, q1)
                r0 += 1
                r0 *= w
                r0 += block_keys
                np.add(np.repeat(r0, counts), np.arange(q0 * w, q1 * w, w), out=needles[:t])
            if last:
                np.add(sorted_keys[:m], w, out=needles[t : t + m])
                if jumps:
                    jump_needles = block_keys + jump_keys[:m]
                    np.minimum(jump_needles, top, out=jump_needles)
                    # x = a climbs by lowbit(a), in Python integers: jump_keys[0] is 0
                    jump_needles[0] = min(int(block_keys[0]) + step * (a & -a) * w, top)
                    # by lowbit class, and in key order inside a class: the
                    # sort is stable, and x = a, in a class of its own, comes last
                    by_class = local[_CLASS[local].argsort(kind="stable")]
                    jump_needles.take(by_class, out=needles[t + m : t + 2 * m])
                needles[t + m + jumps :] = np.arange(lo * w, (hi + 1) * w, w)

            hit = sorted_keys[sorted_keys.searchsorted(needles)]
            hit_level = hit >> bits
            hit &= w - 1
            hit += a
            level = needles >> bits
            answers = np.where(hit_level == level, hit, next_at[level])
            if t:
                ladder_data[dst] = answers[:t]
        up[a:b][local] = answers[t : t + m]
        next_at[lo : hi + 1] = answers[t + m + jumps :]
        if ladders is None:
            continue
        # each jump as its base's own offset, start(b) + (y_max - data[b])
        # - 1, so that the base's entry for a target y sits at
        # jump[x] + y - y_max
        bases = valley[answers[t + m : t + 2 * m]]
        levels = data[bases]
        levels -= y_max
        levels += 1
        jump[a:b][by_class] = starts[bases] - levels
        del bases, levels  # not kept alive beside the chain's temporaries
        # row r holds entry r of every ladder of the block: up[x] for r = 0
        chain = np.empty((rows, m), dtype=up.dtype)
        chain[0] = up[a:b]
        for r in range(1, rows):
            up.take(chain[r - 1], out=chain[r], mode="clip")
        ladder_data[(st[:m] + row)[chained]] = chain[chained]


class OneLevelFL:
    """Find-larger index over a 1-difference sequence.

    The constructor runs the whole O(n) build, ``_ladders``: a valley
    sweep, per-valley weights, ladders of partial find-larger answers, and
    a jump table that sends any query too tall for its own ladder into a
    ladder tall enough to hold it.  ``query`` then answers in O(1).

    Ladders and jumps are filled by one right-to-left sweep over blocks of
    ``BLOCK`` positions.  A block sorts its positions by (value, position)
    and answers every "first position after x holding value v" it needs
    with one binary search over those keys; what the block cannot answer
    comes from the first position after it at that value, carried from
    the blocks to its right.  The needles run in ascending groups: every
    position one value up, which gives up[x], the next position one value
    higher than x; the jumps, by the power of two they climb by; and the
    carry to the next block.  As the sequence passes every value between
    two of its values, entry j + 1 of a ladder is up of entry j, so the
    first kappa - 1 entries of each ladder (at most ``CHAIN``) are chained
    through up, and only the taller entries are searched, in pieces of at
    most ``CHUNK``.  Temporaries stay at the size of one block, and the
    block's keys stay in cache.

    All ladders share one array, ``ladder_data``, and are named by
    offsets anchored at ``y_max``: the ladder an offset o names holds its
    entry for a target y at ``ladder_data[o + y - y_max]``, one read.
    ``own[x]`` names x's own ladder, whose entry j answers the target
    ``values[x] + j + 1``, and ``jump[x]`` is ``own[b]`` for the base b
    that x jumps to.  The offsets lie in [-1, len(ladder_data) + y_max -
    y_min).  ``own``, ``jump`` and ``ladder_data`` are memoryviews of
    ndarrays, cheaper to read one entry at a time; all three take the
    width :func:`position_dtype` picks for the larger of n and that
    bound, so int32 short of 2^31; the fill itself computes in int64.

    The structure is immutable after construction and safe to share
    between threads.

    Args:
        values: the sequence, as integers or as the int64 ndarray that
            :func:`validate_sequence` returns; such an array is read in
            place, not copied, so it must not change afterwards.
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
        "_values",
    )

    def __init__(self, values: Iterable[int], kappa: int = 5):
        check_kappa(kappa)
        data = validate_sequence(values)
        n = len(data)
        y_min = int(data.min())
        y_max = int(data.max())
        own, ladder_data, jump, self.build_stats = _ladders(data, kappa, y_min, y_max)

        self._values = memoryview(data)
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

        Total over all integer arguments: x may lie outside [0, n) and y
        outside the value range.  O(1).
        """
        n = self.n
        if x >= n or y > self.y_max:
            return n
        if x < 0:
            x = 0
        values = self._values
        yx = values[x]
        t = y - yx
        if t <= 0:
            return x
        if t < self.kappa:
            # own ladder is tall enough: heights are at least
            # min(kappa - 1, y_max - values[x]) everywhere
            o = self.own[x]
        else:
            # align x down to a multiple of p, the largest power of two at
            # most t // kappa, avoiding positions whose power-of-two weight
            # exceeds p
            p = t // self.kappa
            p = 1 << (p.bit_length() - 1)
            xh = x & -p
            if xh and not xh & p:
                xh -= p
            o = self.jump[xh]
        i = self.ladder_data[o + y - self.y_max]
        if __debug__:
            assert i == n or (i >= x and values[i] == y)
        return i

    def find_larger(self, x: int, y: int) -> int | None:
        """Like :meth:`query` but returns None when no position qualifies."""
        i = self.query(x, y)
        return None if i == self.n else i

    def space_report(self) -> SpaceReport:
        """Exact entry counts against the linear-space bound."""
        n = self.n
        own, values = self.own, self._values
        total = len(self.ladder_data)
        # all but the endpoint ladders 0 and n - 1: start(n - 1) - start(1)
        interior = own[n - 1] - own[1] + values[n - 1] - values[1] if n > 1 else 0
        # values + jump + own + ladder data
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
        """Bytes held by the stored arrays: the values, jumps, own-ladder
        offsets and ladder entries."""
        return sum(a.nbytes for a in self._arrays())

    def _arrays(self) -> tuple[memoryview, ...]:
        return (self._values, self.jump, self.own, self.ladder_data)


def fs_query(structure: OneLevelFL, x: int, d: int) -> int:
    """Find-smaller through a structure built over the negated sequence.

    If ``structure`` was built from [-v for v in values], this returns
    min { i >= x : values[i] <= d }, with ``structure.bottom`` for none.
    """
    return structure.query(x, -d)
