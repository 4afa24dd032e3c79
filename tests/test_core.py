"""Unit tests for the one-level find-larger structure."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from findlarger import (
    DoublingFL,
    EmptySequenceError,
    InvalidKappaError,
    LevelAncestorIndex,
    NotOneDifferenceError,
    OneLevelFL,
    ValueOutOfRangeError,
    fs_query,
    validate_sequence,
)
from findlarger.bench import ScanFL
from findlarger import core
from findlarger.core import BLOCK, CHAIN, CHUNK, compute_valleys, position_dtype
from findlarger.gen import random_walk_values
from findlarger.oracle import naive_fl, naive_fs
from findlarger.trees import parse_parent_array

from conftest import full_grid, one_diff_lists

# worked example exercised throughout: two dips, two peaks
EXAMPLE = [1, 0, 1, 2, 1, 2]


def ladder_starts(s, values):
    """Where each ladder of a built structure starts in ``ladder_data``,
    then where the last one ends: own[x] = start(x) + (y_max - values[x]) - 1."""
    own = np.asarray(s.own, dtype=np.int64)
    return np.append(own - (s.y_max - np.asarray(values, dtype=np.int64)) + 1, len(s.ladder_data)).tolist()


def heights(s, values):
    """Ladder heights of a built structure, from its adjacent starts."""
    return np.diff(ladder_starts(s, values)).tolist()


class TestValidateSequence:
    def test_wraps_values(self):
        seq = validate_sequence(EXAMPLE)
        assert isinstance(seq, np.ndarray) and seq.dtype == np.int64 and seq.ndim == 1
        assert seq.tolist() == EXAMPLE
        assert len(seq) == 6
        assert seq[3] == 2

    def test_passthrough_when_already_validated(self):
        seq = validate_sequence(EXAMPLE)
        assert validate_sequence(seq) is seq

    def test_int64_array_is_kept_and_builds_like_its_list(self):
        arr = np.array(EXAMPLE, dtype=np.int64)
        assert validate_sequence(arr) is arr
        xs, ys = full_grid(EXAMPLE)
        for build in (OneLevelFL, DoublingFL, ScanFL):
            from_list, from_array = build(EXAMPLE), build(arr)
            for x in xs:
                for y in ys:
                    assert from_array.query(x, y) == from_list.query(x, y)

    @pytest.mark.parametrize("build", [OneLevelFL, DoublingFL])
    def test_an_index_does_not_read_its_callers_array(self, build):
        # the array is read during the build only: overwriting it
        # afterwards changes no answer
        values = random_walk_values(300, seed=7)
        arr = np.array(values, dtype=np.int64)
        s = build(arr)
        arr[:] = arr[::-1].copy()
        xs, ys = full_grid(values)
        for x in xs:
            for y in ys:
                assert s.query(x, y) == naive_fl(values, x, y)

    def test_steps_that_wrap_int64_are_rejected(self):
        # numpy computes the steps as -1 and 1 (both wrapped) and -2**63
        for values in ([-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)], [0, -(2**63)]):
            with pytest.raises(NotOneDifferenceError) as e:
                validate_sequence(values)
            assert e.value.index == 1

    def test_non_integers_rejected(self):
        for values in ([0, 1.5], ["0", "1"], np.array([0.0, 1.0])):
            with pytest.raises(TypeError):
                validate_sequence(values)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            validate_sequence([])

    def test_adjacent_gap_rejected_with_index(self):
        with pytest.raises(NotOneDifferenceError) as e:
            validate_sequence([0, 1, 3, 4])
        assert e.value.index == 2

    def test_negative_gap_rejected(self):
        with pytest.raises(NotOneDifferenceError):
            validate_sequence([5, 3])

    def test_values_must_fit_64_bits(self):
        with pytest.raises(OverflowError):
            validate_sequence([2**63, 2**63 - 1])

    def test_out_of_range_value_is_named(self):
        for build, values, index in (
            (validate_sequence, [2**63, 2**63 - 1], 0),
            (OneLevelFL, [-v for v in [-(2**63), -(2**63) + 1]], 0),
            (validate_sequence, iter([1, 2, -(2**63) - 1]), 2),
            (DoublingFL, [2**63 - 1, 2**63], 1),
            (ScanFL, [5, 4, -(2**63) - 1], 2),
        ):
            with pytest.raises(ValueOutOfRangeError) as e:
                build(values)
            assert e.value.index == index

    def test_single_element_is_fine(self):
        assert validate_sequence([41]).tolist() == [41]


class TestPow2Helpers:
    @given(st.integers(0, 10**9), st.integers(3, 16), st.integers(3, 10**6))
    def test_query_alignment_arithmetic(self, x, kappa, t):
        # the tall-query branch realigns x to xh; these ranges make the
        # redirected ladder provably tall enough
        if t < kappa:
            t += kappa
        p = 1 << ((t // kappa).bit_length() - 1)
        xh = x & -p
        if xh and not xh & p:
            xh -= p
        # the bit operations the queries use, against the arithmetic they stand for
        down = x - x % p
        assert xh == (down - p if down > 0 and down % (2 * p) == 0 else down)
        assert kappa * p <= t <= 2 * kappa * p - 1
        assert 0 <= x - xh <= 2 * p - 1
        assert xh == 0 or xh & -xh == p


class TestKappa:
    def test_kappa_below_3_rejected(self):
        for k in (2, 1, 0, -1):
            with pytest.raises(InvalidKappaError):
                OneLevelFL(EXAMPLE, k)

    @pytest.mark.parametrize("kappa", [4.5, 5.0, "5"])
    def test_kappa_that_is_not_an_int_rejected(self, kappa):
        with pytest.raises(InvalidKappaError):
            OneLevelFL(EXAMPLE, kappa)
        with pytest.raises(InvalidKappaError):
            LevelAncestorIndex(parse_parent_array("-1 0 0 1"), kappa)

    def test_kappa_prime_derivation(self):
        # ceil((2k+2)/(k-2)); per-position bound k-1+k' bottoms out at 8
        expected = {3: 8, 4: 5, 5: 4, 6: 4, 7: 4, 12: 3}
        for k, kp in expected.items():
            s = OneLevelFL(EXAMPLE, k)
            assert s.kappa_prime == kp
        assert min(k - 1 + OneLevelFL(EXAMPLE, k).kappa_prime for k in range(3, 13)) == 8
        assert OneLevelFL(EXAMPLE, 4).kappa - 1 + OneLevelFL(EXAMPLE, 4).kappa_prime == 8
        assert OneLevelFL(EXAMPLE, 5).kappa - 1 + OneLevelFL(EXAMPLE, 5).kappa_prime == 8


class TestBuildExample:
    def test_frozen_internals(self):
        s = OneLevelFL(EXAMPLE, 5)
        assert s.n == 6 and s.bottom == 6
        assert (s.y_min, s.y_max) == (0, 2)
        # own[x] = start(x) + (y_max - values[x]) - 1
        assert list(s.own) == [0, 2, 3, 3, 4, 4]
        assert ladder_starts(s, EXAMPLE) == [0, 1, 3, 4, 4, 5, 5]
        # position 0 jumps to its own ladder, every other one to ladder 5,
        # each stored as own[base]
        assert list(s.jump) == [s.own[b] for b in [0, 5, 5, 5, 5, 5]]
        assert list(s.jump) == [0, 4, 4, 4, 4, 4]
        # ladder x spans start(x) .. start(x + 1)
        assert heights(s, EXAMPLE) == [1, 2, 1, 0, 1, 0]
        # entries are full find-larger answers: L_0 = [3], L_1 = [2, 3], ...
        assert list(s.ladder_data) == [3, 2, 3, 3, 5]

    def test_every_ladder_entry_matches_the_oracle(self):
        for kappa in (3, 4, 5, 6):
            s = OneLevelFL(EXAMPLE, kappa)
            starts = ladder_starts(s, EXAMPLE)
            for x, h in enumerate(heights(s, EXAMPLE)):
                for j in range(h):
                    assert s.ladder_data[starts[x] + j] == naive_fl(EXAMPLE, x, EXAMPLE[x] + 1 + j)
                    # the own offset reads the same entry for its target
                    y = EXAMPLE[x] + 1 + j
                    assert s.ladder_data[s.own[x] + y - s.y_max] == s.ladder_data[starts[x] + j]

    def test_jump_of_zero_is_zero(self):
        # position 0 jumps to its own ladder
        for kappa in (3, 4, 5):
            for values in (EXAMPLE, list(range(16))):
                s = OneLevelFL(values, kappa)
                assert s.jump[0] == s.own[0] == s.y_max - values[0] - 1

    def test_endpoint_ladders_reach_the_top(self):
        s = OneLevelFL(EXAMPLE, 5)
        assert heights(s, EXAMPLE)[0] == s.y_max - EXAMPLE[0]
        assert heights(s, EXAMPLE)[5] == s.y_max - EXAMPLE[5]


def reference_build(values, kappa):
    """Own offsets, ladders and jumps by a per-position right-to-left
    loop over Python integers: the reference the blocked fill must equal.
    Each ladder is placed at a start summed from the heights, then named
    by the offset ``own[x] = starts[x] + (y_max - values[x]) - 1``; each
    jump is computed as its base position, then stored as ``own[base]``."""
    n = len(values)
    valley = compute_valleys(values).tolist()
    y_min, y_max = min(values), max(values)
    kappa_prime = -((2 * kappa + 2) // (2 - kappa))
    weight = [0] * n
    for v in valley[:n]:
        weight[v] += 1
    floor = min(kappa - 1, y_max - y_min)
    heights = [min(max(kappa_prime * (wt - 1) - 2, floor), y_max - y) for wt, y in zip(weight, values)]
    heights[0], heights[-1] = y_max - values[0], y_max - values[-1]
    starts = [0]
    for h in heights:
        starts.append(starts[-1] + h)
    ladder_data = [0] * starts[n]
    base = [0] * n
    # next_at[v - y_min] = least position >= x whose value is v; one extra
    # slot keeps y_max + 1 addressable (always n)
    size = y_max - y_min + 2
    next_at = [n] * size
    for x in range(n - 1, -1, -1):
        i = values[x] - y_min
        next_at[i] = x
        st = starts[x]
        h = starts[x + 1] - st
        ladder_data[st : st + h] = next_at[i + 1 : i + 1 + h]
        if x:
            t = min(i + (kappa - 2) * (x & -x), size - 1)
            base[x] = valley[next_at[t]]
    own = [st + (y_max - y) - 1 for st, y in zip(starts, values)]
    return own, ladder_data, [own[b] for b in base]


def path_tour(n):
    """0, 1, ..., m, ..., 1, 0 cut to n values."""
    m = n // 2
    return (list(range(m + 1)) + list(range(m - 1, -1, -1)))[:n]


SHAPES = {
    "walk-down": lambda n: random_walk_values(n, seed=n, bias=-0.6),
    "walk": lambda n: random_walk_values(n, seed=n),
    "walk-up": lambda n: random_walk_values(n, seed=n, bias=0.6),
    "increasing": lambda n: list(range(n)),
    "decreasing": lambda n: list(range(n, 0, -1)),
    "constant": lambda n: [3] * n,
    "path-tour": path_tour,
}


class TestBlockedFill:
    """The blocked fill against the per-position loop, across block edges."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_the_per_position_loop(self, n, shape):
        values = SHAPES[shape](n)
        # a huge kappa makes every ladder full height, n times the range in
        # all, so it runs only where the range is small
        kappas = (3, 5, 2**62, 2**70) if shape in ("walk", "constant") else (3, 5)
        lo, hi = min(values), max(values)
        for shift in (0, -(2**63) - lo, 2**63 - 1 - hi):  # touch both int64 limits
            shifted = [v + shift for v in values]
            for kappa in kappas:
                s = OneLevelFL(shifted, kappa)
                own, ladder_data, jump = reference_build(shifted, kappa)
                assert s.own.tolist() == own, (shift, kappa)
                assert s.ladder_data.tolist() == ladder_data, (shift, kappa)
                assert s.jump.tolist() == jump, (shift, kappa)

    def test_temporaries_do_not_grow_with_one_long_ladder(self):
        # ladder 0 of an increasing run, and ladder n - 1 of a decreasing
        # one, hold n - 1 entries: eight times CHUNK
        n = 8 * CHUNK
        for values in (np.arange(n, dtype=np.int64), np.arange(n, 0, -1, dtype=np.int64)):
            tracemalloc.start()
            try:
                s = OneLevelFL(values, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = s.resident_bytes()  # the index keeps heights, not the values
            # the valleys and the heights take about 20 bytes per position
            # beyond what the index keeps, more than a piece of CHUNK entries
            # adds later; a long ladder searched whole would take 48 more
            assert peak - kept < 5 * 8 * n


class TestPositionWidth:
    """Positions and offsets are int32 short of 2^31, filled in int64."""

    def test_rule_at_the_int32_limit(self):
        assert position_dtype(0) is np.int32
        assert position_dtype(2**31 - 1) is np.int32
        assert position_dtype(2**31) is np.int64
        assert position_dtype(2**62) is np.int64

    @pytest.mark.parametrize("n, kappa", [(1 << 17, 5), (3 * BLOCK + 5, 2**62)])
    def test_int32_arrays_equal_the_per_position_loop(self, n, kappa):
        values = random_walk_values(n, seed=n)
        s = OneLevelFL(values, kappa)
        own, ladder_data, jump = reference_build(values, kappa)
        # every block holds a ladder taller than its chained entries, so
        # both ways the fill writes an entry, chained through up and
        # searched, reach the int32 arrays in every block
        tall = np.diff(ladder_starts(s, values)) > min(kappa - 1, CHAIN)
        assert all(tall[a : a + BLOCK].any() for a in range(0, n, BLOCK))
        for got, want in ((s.own, own), (s.ladder_data, ladder_data), (s.jump, jump)):
            assert np.asarray(got).dtype == np.int32
            assert got.tobytes() == np.array(want, dtype=np.int32).tobytes()

    def test_tall_needles_past_int32(self):
        # ladders 0 and 1 hold n - 3 and n - 2 entries, nearly all searched:
        # the needle of entry r adds (r + 1) * BLOCK to a key, by way of
        # BLOCK times the entry's rank in the block, both past 2^31 here
        n = 2**31 // BLOCK + BLOCK
        values = np.arange(-1, n - 1, dtype=np.int64)
        values[0] = 1
        s = OneLevelFL(values, 5)
        starts = ladder_starts(s, values)
        assert np.asarray(s.ladder_data).dtype == np.int32
        assert np.array_equal(s.ladder_data[starts[0] : starts[1]], np.arange(3, n))
        assert np.array_equal(s.ladder_data[starts[1] : starts[2]], np.arange(2, n))


class TestQuery:
    def test_frozen_answers(self):
        s = OneLevelFL(EXAMPLE, 5)
        assert s.query(0, 2) == 3
        assert s.query(1, 1) == 2
        assert s.query(1, 2) == 3
        assert s.query(2, 2) == 3
        assert s.query(4, 2) == 5

    def test_total_over_all_integer_arguments(self):
        s = OneLevelFL(EXAMPLE, 5)
        assert s.query(-1, 1) == 0  # x below range clamps to 0
        assert s.query(-100, 2) == 3
        assert s.query(6, 0) == 6  # x at or past n is bottom
        assert s.query(100, -100) == 6
        assert s.query(0, 3) == 6  # y above y_max is bottom
        assert s.query(0, 10**17) == 6
        assert s.query(0, -10**17) == 0  # y at or below values[x] answers x
        assert s.query(3, 2) == 3

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_arguments(self, integer):
        # the jump branch takes numpy integers as the ints they hold
        s = OneLevelFL(range(100))
        for x, y in ((0, 50), (0, 2), (37, 99), (99, 50), (5, 120)):
            want = naive_fl(range(100), x, y)
            assert s.query(x, integer(y)) == s.query(integer(x), integer(y)) == s.query(integer(x), y) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "build",
        [lambda v: OneLevelFL(v, 3), lambda v: OneLevelFL(v, 30), DoublingFL],
        ids=["one-level-kappa-3", "one-level-kappa-30", "doubling"],
    )
    def test_numpy_integers_are_answered_as_their_ints(self, build):
        # numpy arithmetic would wrap at the int64 limits, and an int32
        # would not take the values past its range: every argument is
        # answered as the Python int it holds, and every answer is an int
        cases = [
            (range(2**63 - 20, 2**63), np.int64, [-(2**63), 2**63 - 1, 2**63 - 10, 2**63 - 20]),
            (range(-(2**63), -(2**63) + 20), np.int64, [-(2**63), 2**63 - 1, -(2**63) + 10, 0]),
            (range(2**40, 2**40 + 100), np.int32, [5, -(2**31), 2**31 - 1]),
            (range(-(2**40), -(2**40) + 100), np.int32, [5, -(2**31), 2**31 - 1]),
        ]
        for values, integer, ys in cases:
            s = build(values)
            for x in (0, 7, 19, len(values)):
                for y in ys:
                    want = naive_fl(values, x, y)
                    for got in (s.query(x, integer(y)), s.query(integer(x), integer(y)), s.query(integer(x), y)):
                        assert type(got) is int and got == want, (values, x, y)

    def test_staircase_jump_path(self):
        # ascending staircase forces the aligned-position branch
        s = OneLevelFL(list(range(16)), 5)
        assert s.jump[2] == s.own[0] == 14  # into ladder 0
        assert s.query(3, 15) == 15
        assert s.query(0, 15) == 15
        down = OneLevelFL(list(range(15, -1, -1)), 5)
        assert down.query(0, 15) == 0
        assert down.query(1, 15) == 16

    def test_find_larger_returns_none_for_bottom(self):
        s = OneLevelFL(EXAMPLE, 5)
        assert s.find_larger(0, 3) is None
        assert s.find_larger(0, 2) == 3

    def test_grid_equivalence_on_example_all_kappas(self):
        xs, ys = full_grid(EXAMPLE)
        for kappa in range(3, 9):
            s = OneLevelFL(EXAMPLE, kappa)
            for x in xs:
                for y in ys:
                    assert s.query(x, y) == naive_fl(EXAMPLE, x, y)

    @settings(max_examples=300, deadline=None)
    @given(one_diff_lists(), st.integers(3, 8))
    def test_grid_equivalence_random(self, values, kappa):
        s = OneLevelFL(values, kappa)
        xs, ys = full_grid(values)
        for x in xs:
            for y in ys:
                assert s.query(x, y) == naive_fl(values, x, y)


class TestFindSmaller:
    def test_frozen_answers(self):
        neg = OneLevelFL([-v for v in EXAMPLE], 5)
        assert fs_query(neg, 0, 0) == 1
        assert fs_query(neg, 2, 0) == 6
        assert fs_query(neg, 3, 2) == 3

    @settings(max_examples=200, deadline=None)
    @given(one_diff_lists(), st.integers(3, 6))
    def test_negation_duality(self, values, kappa):
        neg = OneLevelFL([-v for v in values], kappa)
        lo, hi = min(values), max(values)
        for x in range(-1, len(values) + 1):
            for d in range(lo - 1, hi + 2):
                assert fs_query(neg, x, d) == naive_fs(values, x, d)


class TestSpaceAndStats:
    def test_example_report(self):
        r = OneLevelFL(EXAMPLE, 5).space_report()
        assert r.total_ladder_entries == 5
        assert r.interior_ladder_entries == 4
        assert r.interior_bound == 48
        assert r.words == 3 * 6 + 5

    @settings(max_examples=150, deadline=None)
    @given(one_diff_lists(max_n=80), st.integers(3, 7))
    def test_interior_bound_always_holds(self, values, kappa):
        r = OneLevelFL(values, kappa).space_report()
        assert r.interior_ladder_entries <= r.interior_bound
        assert r.total_ladder_entries == r.interior_ladder_entries + (
            max(values) - values[0]
        ) + (max(values) - values[-1] if len(values) > 1 else 0)

    @settings(max_examples=150, deadline=None)
    @given(one_diff_lists(max_n=80), st.integers(3, 7))
    def test_counters_bounded_by_n(self, values, kappa):
        s = OneLevelFL(values, kappa)
        st_ = s.build_stats
        assert 0 <= st_.stack_pops <= st_.stack_pushes <= s.n
        assert st_.ladder_copies == len(s.ladder_data)

    def test_resident_bytes_are_the_arrays_nbytes(self):
        s = OneLevelFL(EXAMPLE, 5)
        r = s.space_report()
        # 6 heights, 6 jumps, 6 own offsets and 5 ladder entries in int32
        assert s.resident_bytes() == 4 * (6 + 6 + 6 + 5) == 92
        assert s.entry_count() == r.words == 6 + 6 + 6 + 5
        # kappa 2^62 makes every ladder full height, as tall as at kappa 5 here
        assert OneLevelFL(EXAMPLE, 2**62).resident_bytes() == 92

    def test_heights_take_the_width_of_n(self, monkeypatch):
        # under a width rule of int8 below 2^7, the 100 heights of this run
        # fit int8, but its offsets pass 2^7 and take int64
        values = list(range(100))
        want = OneLevelFL(values, 5), DoublingFL(values)
        monkeypatch.setattr(core, "position_dtype", lambda largest: np.int8 if largest < 2**7 else np.int64)
        s, d = OneLevelFL(values, 5), DoublingFL(values)
        total = len(s.ladder_data)
        assert total >= 2**7
        assert s.resident_bytes() == 1 * 100 + 8 * (100 + 100 + total)
        assert d.resident_bytes() == 1 * 100 + d.table.nbytes
        xs, ys = full_grid(values)
        for x in xs:
            for y in ys:
                assert s.query(x, y) == d.query(x, y) == want[0].query(x, y) == want[1].query(x, y)
