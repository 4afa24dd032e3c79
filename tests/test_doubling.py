"""Doubling baseline against the scan oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from findlarger import DoublingFL
from findlarger.core import BLOCK
from findlarger.gen import random_walk_values
from findlarger.oracle import enumerate_sequences, naive_fl

from conftest import full_grid, one_diff_lists


def test_frozen_staircase_table():
    d = DoublingFL([0, 1, 2, 3])
    assert d.levels == 2
    table = np.asarray(d.table)
    assert table[0, :4].tolist() == [1, 2, 3, 4]
    assert table[1, :4].tolist() == [2, 3, 4, 4]
    assert d.query(0, 3) == 3
    assert d.query(1, 3) == 3
    assert d.query(0, 4) == 4


def test_constant_sequence_has_one_level():
    d = DoublingFL([2, 2, 2])
    assert d.levels == 1
    assert d.query(0, 2) == 0
    assert d.query(1, 3) == 3
    assert d.query(-4, 2) == 0


def test_bottom_is_absorbing():
    d = DoublingFL([0, 1, 0, 1])
    assert d.query(2, 2) == 4
    assert d.query(9, 0) == 4


def test_exhaustive_small():
    for n in range(1, 8):
        for seq in enumerate_sequences(n, 0):
            d = DoublingFL(seq)
            xs, ys = full_grid(seq)
            for x in xs:
                for y in ys:
                    assert d.query(x, y) == naive_fl(seq, x, y)


@settings(max_examples=200, deadline=None)
@given(one_diff_lists(max_n=70))
def test_random_grid(values):
    d = DoublingFL(values)
    xs, ys = full_grid(values)
    for x in xs:
        for y in ys:
            assert d.query(x, y) == naive_fl(values, x, y)


def test_entry_count_and_bytes():
    d = DoublingFL(list(range(10)))
    assert d.levels == 4  # spread 9 needs rises of 1, 2, 4, 8
    assert d.entry_count() == 4 * 11 + 10  # the table and the values
    assert np.asarray(d.table).dtype == np.int32  # positions below 2^31
    assert d.resident_bytes() == d.table.nbytes + 8 * 10


def level_zero(values):
    """Level 0 of the table, the first position after x one value higher,
    by a right-to-left loop over "next position at value v"."""
    n = len(values)
    y_min = min(values)
    next_at = [n] * (max(values) - y_min + 2)
    row = [n] * (n + 1)
    for x in range(n - 1, -1, -1):
        i = values[x] - y_min
        next_at[i] = x
        row[x] = next_at[i + 1]
    return row


@pytest.mark.parametrize("n", [1, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("bias", [-0.6, 0.0, 0.6, None])
def test_level_zero_equals_the_per_position_loop(n, bias):
    if bias is None:  # a V of 2n values
        values = list(range(n, 0, -1)) + list(range(n))
    else:
        values = random_walk_values(n, seed=n, bias=bias)
    lo, hi = min(values), max(values)
    for shift in (0, -(2**63) - lo, 2**63 - 1 - hi):  # touch both int64 limits
        shifted = [v + shift for v in values]
        assert np.asarray(DoublingFL(shifted).table)[0].tolist() == level_zero(shifted), shift
