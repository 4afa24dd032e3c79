"""Doubling baseline: Theta(n log s) space, O(log s) query.

Classic comparison structure for the same find-larger problem.  Level k
of the table stores, for every position x, the first position to the
right where the value has risen by 2^k.  A query climbs greedily: from a
gap of t it takes the 2^(floor log2 t) level, which by the 1-difference
property lands exactly 2^k higher, never overshooting.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import _fill, position_dtype, validate_sequence

__all__ = ["DoublingFL"]


class DoublingFL:
    """Find-larger index with one table row per power-of-two rise.

    ``table``, which ``query`` reads, is a 2-D memoryview of ``levels``
    rows of n + 1 positions, of the width :func:`~findlarger.core.position_dtype`
    picks for n (int32 below 2^31); ``np.asarray(table)`` reads it as an ndarray.
    """

    __slots__ = ("n", "levels", "y_max", "bottom", "table", "_values")

    def __init__(self, values: Iterable[int]):
        data = validate_sequence(values)
        values = memoryview(data)
        n = len(data)
        y_min = int(data.min())
        y_max = int(data.max())
        spread = y_max - y_min
        # levels cover every gap t in 1..spread: floor(log2 t) <= levels - 1
        levels = max(spread.bit_length(), 1)

        # level 0 is the next position one level up, which the blocked
        # fill of the one-level index computes, written into the first row
        table = np.empty((levels, n + 1), dtype=position_dtype(n))
        table[:, n] = n  # bottom is absorbing
        _fill(data, y_min, y_max, table[0])
        for k in range(1, levels):
            # rising 2^k = rising 2^(k-1) twice; exact landing makes this compose
            prev = table[k - 1, :n]
            table[k, :n] = table[k - 1][prev]

        self._values = values
        self.n = n
        self.levels = levels
        self.y_max = y_max
        self.bottom = n
        self.table = memoryview(table)

    def query(self, x: int, y: int) -> int:
        """Least i >= x with values[i] >= y, or n.  O(log(y - values[x]))."""
        n = self.n
        if x >= n or y > self.y_max:
            return n
        if x < 0:
            x = 0
        values = self._values
        table = self.table
        cur = x
        t = y - values[cur]
        if __debug__:
            hops = 0
        while t > 0:
            cur = table[t.bit_length() - 1, cur]
            if cur == n:
                return n
            t = y - values[cur]
            if __debug__:
                hops += 1
                assert hops <= self.levels, "query exceeded its hop budget"
        return cur

    def entry_count(self) -> int:
        """Stored entries: the n values and levels * (n + 1) table entries."""
        return len(self._values) + self.levels * (self.n + 1)

    def resident_bytes(self) -> int:
        """Bytes held by the values and the table."""
        return self._values.nbytes + self.table.nbytes
