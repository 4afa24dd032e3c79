"""Valley sweep against the enumerating oracle."""

import itertools

import pytest
from hypothesis import given, settings

from findlarger import EmptySequenceError, compute_valleys
from findlarger.core import _sweep_valleys
from findlarger.oracle import naive_valley

from conftest import arbitrary_int_lists, one_diff_lists


def test_frozen_example():
    assert list(compute_valleys([1, 0, 1, 2, 1, 2])) == [0, 1, 1, 1, 4, 4, 5]


def test_closing_entry_is_n_minus_1():
    for values in ([3], [0, 0, 0], list(range(9)), [4, 1, -2, 5]):
        assert compute_valleys(values)[len(values)] == len(values) - 1


def test_empty_rejected():
    with pytest.raises(EmptySequenceError):
        compute_valleys([])


def test_monotone_shapes():
    # descending: every point is walled off at itself
    assert list(compute_valleys([5, 4, 3, 2, 1]))[:5] == [0, 1, 2, 3, 4]
    # ascending: everything drains to the start
    assert list(compute_valleys([1, 2, 3, 4, 5]))[:5] == [0, 0, 0, 0, 0]
    # constant: equal heights block the walk left, each point is its own valley
    assert list(compute_valleys([7, 7, 7, 7]))[:4] == [0, 1, 2, 3]


def test_exhaustive_small_alphabet():
    # all length <= 6 sequences over {0,1,2,3}, no 1-difference restriction
    for n in range(1, 7):
        for values in itertools.product((0, 1, 2, 3), repeat=n):
            valley = compute_valleys(values)
            for x in range(n):
                assert valley[x] == naive_valley(values, x, values[x])
            assert valley[n] == n - 1


@settings(max_examples=400, deadline=None)
@given(arbitrary_int_lists())
def test_random_arbitrary_integers(values):
    valley = compute_valleys(values)
    for x in range(len(values)):
        assert valley[x] == naive_valley(values, x, values[x])


@settings(max_examples=200, deadline=None)
@given(one_diff_lists(max_n=60))
def test_sweep_work_is_linear(values):
    _, pushes, pops = _sweep_valleys(values)
    assert 0 <= pops <= pushes <= len(values)


def test_valley_is_left_of_and_no_higher_than_its_point():
    for values in (list(range(10)), [3, 2, 2, 4, 0, 1, 0, 5], [0] * 12):
        valley = compute_valleys(values)
        for x in range(len(values)):
            assert valley[x] <= x
            assert values[valley[x]] <= values[x]
