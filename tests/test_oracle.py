"""The oracles themselves: frozen answers and enumeration counts."""

import numpy as np
import pytest

from findlarger import parse_parent_array
from findlarger.oracle import (
    TooLargeError,
    enumerate_sequences,
    naive_fl,
    naive_fs,
    naive_la,
    naive_valley,
)
from findlarger.trees import DepthOutOfRangeError

V = [1, 0, 1, 2, 1, 2]


def test_naive_fl_frozen():
    assert naive_fl(V, 0, 2) == 3
    assert naive_fl(V, 4, 2) == 5
    assert naive_fl(V, 0, 3) == 6
    assert naive_fl(V, -5, 1) == 0
    assert naive_fl(V, 6, -1) == 6
    assert naive_fl([7], 0, 7) == 0


def test_naive_fs_frozen():
    assert naive_fs(V, 0, 0) == 1
    assert naive_fs(V, 2, 0) == 6
    assert naive_fs(V, 3, 2) == 3
    assert naive_fs(V, -3, 1) == 0


def test_fl_fs_mirror_under_negation():
    neg = [-v for v in V]
    for x in range(-1, 7):
        for d in range(-2, 4):
            assert naive_fs(V, x, d) == naive_fl(neg, x, -d)


def test_naive_valley_frozen():
    assert naive_valley(V, 5, 2) == 4
    assert naive_valley(V, 1, 0) == 1
    assert naive_valley(V, 3, 2) == 1
    # not 1-difference: equal height blocks the path, lower does not
    assert naive_valley([5, 0, 5], 2, 5) == 1
    assert naive_valley([5, 5, 5], 2, 5) == 2


def test_naive_valley_rejects_bad_point():
    with pytest.raises(ValueError):
        naive_valley(V, 6, 2)
    with pytest.raises(ValueError):
        naive_valley(V, 0, 0)  # y below the landscape at x
    with pytest.raises(ValueError):
        naive_valley([0, 5], 1, 2)


def test_naive_la_frozen():
    t = parse_parent_array("6\n-1 0 0 1 1 2")
    assert naive_la(t, 5, 1) == 2
    assert naive_la(t, 3, 1) == 1
    assert naive_la(t, 3, 0) == 0
    assert naive_la(t, 3, 2) == 3
    with pytest.raises(DepthOutOfRangeError):
        naive_la(t, 3, 3)
    with pytest.raises(DepthOutOfRangeError):
        naive_la(t, 3, -1)


def test_enumerate_counts_and_contents():
    for n, count in ((1, 1), (2, 3), (3, 9), (4, 27)):
        seqs = list(enumerate_sequences(n, 0))
        assert len(seqs) == count
        assert len(set(tuple(s) for s in seqs)) == count
        for s in seqs:
            assert isinstance(s, np.ndarray) and s.dtype == np.int64
            assert s[0] == 0 and len(s) == n


def test_enumerate_honors_start():
    assert all(s[0] == 5 for s in enumerate_sequences(3, 5))


def test_enumerate_limits():
    with pytest.raises(TooLargeError):
        next(enumerate_sequences(13, 0))
    with pytest.raises(ValueError):
        next(enumerate_sequences(0, 0))
