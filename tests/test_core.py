"""Unit tests for the one-level find-larger structure."""

import random
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
from findlarger.gen import random_parent_array, random_walk_values
from findlarger.oracle import enumerate_sequences, naive_fl, naive_fs
from findlarger.trees import Tree, euler_tour, parse_parent_array

from conftest import full_grid, one_diff_lists

# worked example exercised throughout: two dips, two peaks
EXAMPLE = [1, 0, 1, 2, 1, 2]


def run_starts(values):
    """b(x), the start of the run of rising steps that holds x: x itself
    where the values do not rise, at 0, and at n - 1."""
    n = len(values)
    b = []
    for x, v in enumerate(values):
        b.append(x if x in (0, n - 1) or v <= values[x - 1] else b[-1])
    return b


def runs(values):
    """(b, e) for each run b..e of rising steps, from its run start."""
    b = run_starts(values)
    ends = [x for x in range(len(b)) if x + 1 == len(b) or b[x + 1] != b[x]]
    return [(b[e], e) for e in ends]


def descents(values, rising_queries=True):
    """{z: (s, q)} for each descent end z, a run start whose next step
    rises, and n - 1: the top s of z's descent, the positions before z
    whose next step does not rise, and the last query start q of z's run
    z..e of rising steps (e, or z without rising queries)."""
    n = len(values)
    found = {}
    for z, e in runs(values):
        if z == n - 1 or values[z + 1] > values[z]:
            s = z
            while s > 0 and values[s] <= values[s - 1]:
                s -= 1
            found[z] = (s, e if rising_queries else z)
    return found


def readers(values):
    """d(x), the descent end whose ladder x reads: the start of x's run
    where the next step rises, else the end of x's descent."""
    d = run_starts(values)
    for x in range(len(values) - 2, -1, -1):
        if values[x + 1] <= values[x]:
            d[x] = d[x + 1]
    return d


def ladders(s, values):
    """{z: (start, height)} for every descent end z of a built structure:
    where z's ladder starts in ``ladder_data``, from own[z] =
    start(z) + (y_max - values[z]) - 1, and how many entries it holds,
    up to the next ladder's start."""
    ends = sorted(descents(values))
    starts = [int(s.own[z]) - (s.y_max - values[z]) + 1 for z in ends] + [len(s.ladder_data)]
    return {z: (a, b - a) for z, a, b in zip(ends, starts, starts[1:])}


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
        # runs start at 0, 1, 4 and 5; of these 1, 4 and 5 end descents,
        # 0..1 and 3..4.  2 rises and reads the ladder of 1, as 0 does;
        # 3, which falls, reads the ladder of 4
        assert run_starts(EXAMPLE) == [0, 1, 1, 1, 4, 5]
        assert descents(EXAMPLE) == {1: (0, 3), 4: (3, 4), 5: (5, 5)}
        assert readers(EXAMPLE) == [1, 1, 1, 4, 4, 5]
        # own[z] = start(z) + (y_max - values[z]) - 1, and every reader of
        # z's ladder stores own[z]; 4's ladder reaches the top, so the empty
        # ladder of 5 after it has the same offset
        assert list(s.own) == [1, 1, 1, 2, 2, 2]
        # position 0 jumps to its own ladder, every other one to ladder 5,
        # each stored as own[base]
        assert list(s.jump) == [s.own[b] for b in [0, 5, 5, 5, 5, 5]]
        assert list(s.jump) == [1, 2, 2, 2, 2, 2]
        # 1 and 2 hold one entry of ladder 1 each and 3 none: 1's ladder
        # reaches the top, and 2 .. 3 rise by two
        assert ladders(s, EXAMPLE) == {1: (0, 2), 4: (2, 1), 5: (3, 0)}
        # entries are full find-larger answers: L_1 = [2, 3], L_4 = [5]
        assert list(s.ladder_data) == [2, 3, 5]
        # the endpoint ladders are L_1, of 0's descent end, and the empty
        # L_5, so L_4 alone is interior
        r = s.space_report()
        assert (r.total_ladder_entries, r.interior_ladder_entries) == (3, 1)

    def test_every_ladder_entry_matches_the_oracle(self):
        for kappa in (3, 4, 5, 6):
            s = OneLevelFL(EXAMPLE, kappa)
            found = ladders(s, EXAMPLE)
            for x, z in enumerate(readers(EXAMPLE)):
                start, height = found[z]
                for j in range(height):
                    y = EXAMPLE[z] + 1 + j
                    assert s.ladder_data[start + j] == naive_fl(EXAMPLE, z, y)
                    # every reader's own offset reads the same entry for
                    # each target above its own value
                    if y > EXAMPLE[x]:
                        assert s.ladder_data[s.own[x] + y - s.y_max] == naive_fl(EXAMPLE, x, y)

    def test_jump_of_zero_is_zero(self):
        # position 0 jumps to its own ladder, that of its descent's end
        for kappa in (3, 4, 5):
            for values in (EXAMPLE, list(range(16)), list(range(16, 0, -1))):
                s = OneLevelFL(values, kappa)
                z0 = readers(values)[0]
                assert s.jump[0] == s.own[0] == s.y_max - values[z0] - 1

    def test_endpoint_ladders_reach_the_top(self):
        # the ladder of 0's descent end and that of n - 1, which ends a
        # descent of its own, also where the values rise into it
        for values in (EXAMPLE, [2, 3, 4, 3, 2, 3, 4, 5, 6], list(range(9)), [5, 4, 4, 3, 4, 5, 4]):
            s = OneLevelFL(values, 5)
            found = ladders(s, values)
            n = len(values)
            z0 = readers(values)[0]
            assert found[z0][1] == s.y_max - values[z0]
            assert found[n - 1][1] == s.y_max - values[n - 1]


def reference_build(values, kappa, rising_queries=True):
    """Own offsets, ladders and jumps by per-position loops over Python
    integers: the reference the blocked build must equal.

    A ladder goes at each descent end z: a run start (0, n - 1, and each
    x where the values do not rise) whose next step rises, and n - 1.
    It is shared by z's descent s..z, the positions before z whose next
    step does not rise, and by z's run of rising steps z..e: the
    positions z .. q - 1 hold one entry each and q the rest, for q the
    run's last query start (e, or z without rising queries).  It holds
    z's weight term, but at least the floor plus the larger of q - z and
    values[s] - values[z], and at most z's height below the top, which
    the ladders of 0's descent end and of n - 1 reach.  The entries are
    placed at starts summed from what each position holds, then named by
    the offset ``own[x] = starts[x] + (y_max - values[x]) - 1``, which a
    position of a descent takes from the next position; each jump is
    computed as its base position, then stored as ``own[base]``."""
    n = len(values)
    valley = compute_valleys(values).tolist()
    y_min, y_max = min(values), max(values)
    kappa_prime = -((2 * kappa + 2) // (2 - kappa))
    weight = [0] * n
    for v in valley[:n]:
        weight[v] += 1
    floor = min(kappa - 1, y_max - y_min)
    held = [0] * n
    for z, (s, q) in descents(values, rising_queries).items():
        top = y_max - values[z]
        if s == 0 or z == n - 1:
            h = top
        else:
            h = min(max(kappa_prime * (weight[z] - 1) - 2, floor + max(q - z, values[s] - values[z])), top)
        for x in range(z, q):
            held[x] = 1
        held[q] = h - (q - z)
    starts = [0]
    for h in held:
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
    for x in range(n - 2, -1, -1):
        if values[x + 1] <= values[x]:
            own[x] = own[x + 1]
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
    # down, then up into n - 1 from below the start: at n = BLOCK + 1 the
    # rise into n - 1 crosses a block edge
    "v": lambda n: list(range(n // 2 + 1, 0, -1)) + list(range(n - n // 2 - 1)),
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


def rising(values):
    """The positions reached by a rising step, n - 1 excepted."""
    v = np.asarray(values, dtype=np.int64)
    return np.flatnonzero(v[1:-1] > v[:-2]) + 1


def at_the_limits(values):
    """``values`` as int64 arrays, as they are and shifted to touch each
    int64 limit."""
    lo, hi = min(values), max(values)
    return [np.array([v + shift for v in values], dtype=np.int64) for shift in (0, -(2**63) - lo, 2**63 - 1 - hi)]


def climb_answers(values, climbs):
    """For each x, the first position at or after x at each height
    ``values[x] + t``, t in ``climbs``: one right-to-left sweep keeping
    the first position of each value, the answer of a 1-difference
    sequence to a target above ``values[x]``."""
    n = len(values)
    first = {}
    answers = [None] * n
    for x in range(n - 1, -1, -1):
        first[values[x]] = x
        answers[x] = [first.get(values[x] + t, n) for t in climbs]
    return answers


def staircase(run, count):
    """``count`` runs of ``run`` rising steps, each after one falling step."""
    values = [0]
    for _ in range(count):
        values.append(values[-1] - 1)
        values += range(values[-1] + 1, values[-1] + 1 + run)
    return values


class TestRunLadders:
    """Ladders go at descent ends; a position on a rising step reads the
    ladder of its run's start, and one on a non-rising step that of its
    descent's end."""

    @settings(max_examples=150, deadline=None)
    @given(one_diff_lists(max_n=80))
    def test_no_valley_lies_on_a_rising_step(self, values):
        for v in at_the_limits(values):
            weight = np.bincount(compute_valleys(memoryview(v))[: len(v)], minlength=len(v))
            assert not weight[rising(v)].any()

    @pytest.mark.parametrize("seed", range(6))
    def test_no_valley_of_a_tour_lies_on_a_rising_step(self, seed):
        tree = parse_parent_array(" ".join(map(str, random_parent_array(400, seed, 0.2 * seed))))
        values = -euler_tour(tree).depths
        weight = np.bincount(compute_valleys(values.tolist())[: len(values)], minlength=len(values))
        assert not weight[rising(values)].any()

    @settings(max_examples=100, deadline=None)
    @given(one_diff_lists(max_n=80), st.sampled_from([3, 4, 5, 9, 30, 2**62]))
    def test_a_rising_position_reads_its_runs_ladder(self, values, kappa):
        d = readers(values)
        for v in at_the_limits(values):
            own = OneLevelFL(v, kappa).own.tolist()
            assert own == [own[d[x]] for x in range(len(values))]

    @pytest.mark.parametrize("kappa", [3, 5, 9, 30, 2**62])
    @pytest.mark.parametrize("shape", ["runs-of-5000", "increasing-12293"])
    def test_runs_across_blocks_match_the_oracle(self, shape, kappa):
        # rising runs that cross block edges: from every position, every
        # climb up to kappa + 1, the short ones read from the run's ladder,
        # and three taller ones
        values = staircase(5000, 3) if shape == "runs-of-5000" else list(range(12293))
        assert len(values) > 3 * BLOCK
        s = OneLevelFL(values, kappa)
        own, ladder_data, jump = reference_build(values, kappa)
        assert (s.own.tolist(), s.ladder_data.tolist(), s.jump.tolist()) == (own, ladder_data, jump)
        climbs = list(range(1, min(kappa + 1, 32) + 1)) + [kappa + 2, 3 * kappa, 4999]
        want = climb_answers(values, climbs)
        for x in range(0, len(values), 97):
            assert want[x] == [naive_fl(values, x, values[x] + t) for t in climbs]
        for x in range(len(values)):
            assert [s.query(x, values[x] + t) for t in climbs] == want[x], x


def run_start_entries(values, kappa):
    """The ladder entries of the run-start rule, which ladders followed
    before they moved to descent ends, by a per-position loop: a ladder
    at each run start b, shared by b's run of rising steps b..e, holds
    b's weight term, but at least the floor plus e - b, and at most b's
    height below the top, which the ladders of 0's run and of n - 1
    reach."""
    n = len(values)
    y_max = max(values)
    kappa_prime = -((2 * kappa + 2) // (2 - kappa))
    floor = min(kappa - 1, y_max - min(values))
    weight = [0] * n
    for v in compute_valleys(values).tolist()[:n]:
        weight[v] += 1
    total = 0
    for start, e in runs(values):
        top = y_max - values[start]
        total += top if start in (0, n - 1) else min(max(kappa_prime * (weight[start] - 1) - 2, floor + e - start), top)
    return total


def sawtooth(n, period):
    return [abs(x % period - period // 2) for x in range(n)]


def comb(n, depth):
    """V-shaped teeth ``depth`` deep, each one step lower than the last."""
    values = [0]
    while len(values) < n:
        base = values[-1]
        values += range(base - 1, base - depth - 1, -1)
        values += range(base - depth + 1, base + 1)
        values.append(base - 1)
    return values[:n]


def ruler(n):
    """Minus the trailing zeros of 1, 2, 3, ..., filled in by steps of one."""
    values = [0]
    for i in range(2, n + 1):
        target = -((i & -i).bit_length() - 1)  # never that of i - 1
        step = 1 if target > values[-1] else -1
        values += range(values[-1] + step, target + step, step)
    return values[:n]


def binary_tree_tour(n):
    """The negated depths of the Euler tour of a complete binary tree of
    (n + 1) // 2 nodes, n stops for odd n."""
    parent = [-1] + [(v - 1) // 2 for v in range(1, (n + 1) // 2)]
    return (-euler_tour(Tree.from_parents(parent)).depths).tolist()


FAMILIES = {
    "sawtooth-4": lambda n: sawtooth(n, 4),
    "sawtooth-64": lambda n: sawtooth(n, 64),
    "sawtooth-1024": lambda n: sawtooth(n, 1024),
    "comb-8": lambda n: comb(n, 8),
    "comb-64": lambda n: comb(n, 64),
    "ruler": ruler,
    "binary-tree-tour": lambda n: binary_tree_tour(n - 1),
}


class TestNoBuildGrows:
    """Descent-end ladders never hold more entries than the run-start
    ladders they replaced."""

    def test_every_short_sequence(self):
        for n in range(1, 11):
            for values in enumerate_sequences(n):
                values = values.tolist()
                for kappa in (3, 4, 5, 2**62):
                    assert len(OneLevelFL(values, kappa).ladder_data) <= run_start_entries(values, kappa), (values, kappa)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_structured_families(self, family):
        values = FAMILIES[family](1 << 16)
        assert all(abs(a - b) <= 1 for a, b in zip(values, values[1:]))
        rng = random.Random(family)
        lo, hi = min(values), max(values)
        queries = [(rng.randrange(len(values)), rng.randrange(lo - 1, hi + 2)) for _ in range(2000)]
        want = [naive_fl(values, x, y) for x, y in queries]
        for kappa in (3, 5):
            s = OneLevelFL(values, kappa)
            assert len(s.ladder_data) <= run_start_entries(values, kappa)
            r = s.space_report()
            assert r.interior_ladder_entries <= r.interior_bound
            assert [s.query(x, y) for x, y in queries] == want


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
        # every block holds a ladder's last holder q with entries past its
        # chained ones that are searched, and every full block one with
        # such entries gathered from its descent, up to one above the top
        # s, so the three ways an entry is written, chained through up,
        # searched and gathered, reach the int32 arrays in every block
        rows = min(kappa - 1, CHAIN)
        found = ladders(s, values)
        gathered, searched = [0] * n, [0] * n
        for z, (top, q) in descents(values).items():
            held = found[z][1] - (q - z)
            below = min(values[top] + 1 - values[q], held)
            gathered[q] = below - rows
            searched[q] = held - max(rows, below)
        assert all(max(searched[a : a + BLOCK]) > 0 for a in range(0, n, BLOCK))
        assert all(max(gathered[a : a + BLOCK]) > 0 for a in range(0, n - BLOCK + 1, BLOCK))
        for got, want in ((s.own, own), (s.ladder_data, ladder_data), (s.jump, jump)):
            assert np.asarray(got).dtype == np.int32
            assert got.tobytes() == np.array(want, dtype=np.int32).tobytes()

    def test_tall_needles_past_int32(self):
        # 0, 1, 0, 1, 2, ...: ladder 0, of the run 0 .. 1, reaches the top,
        # and 1 holds n - 4 entries of it, nearly all searched: the needle
        # of entry r adds (r + 1) * BLOCK to a key, by way of BLOCK times
        # the entry's rank in the block, both past 2^31 here.  Ladder 2, of
        # the run 2 .. n - 2, holds n - 3 entries, one at each position of
        # it and the last at n - 2
        n = 2**31 // BLOCK + BLOCK
        values = np.arange(-2, n - 2, dtype=np.int64)
        values[:3] = [0, 1, 0]
        s = OneLevelFL(values, 5)
        found = ladders(s, values.tolist())
        assert np.asarray(s.ladder_data).dtype == np.int32
        assert list(found) == [0, 2, n - 1]
        (a, h), (b, g) = found[0], found[2]
        assert np.array_equal(s.ladder_data[a : a + h], np.append(1, np.arange(4, n)))
        assert np.array_equal(s.ladder_data[b : b + g], np.arange(3, n))


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
        # the endpoint ladders are L_1 of 0's descent end 1, two entries,
        # and the empty L_5: L_4 is interior
        r = OneLevelFL(EXAMPLE, 5).space_report()
        assert r.total_ladder_entries == 3
        assert r.interior_ladder_entries == 1
        assert r.interior_bound == 48
        assert r.words == 3 * 6 + 3

    @settings(max_examples=150, deadline=None)
    @given(one_diff_lists(max_n=80), st.integers(3, 7))
    def test_interior_bound_always_holds(self, values, kappa):
        r = OneLevelFL(values, kappa).space_report()
        assert r.interior_ladder_entries <= r.interior_bound
        # the ladders of 0's descent end and of n - 1, one ladder where
        # the descent from 0 ends at n - 1, reach the top
        n, z0 = len(values), readers(values)[0]
        assert r.total_ladder_entries == r.interior_ladder_entries + (
            max(values) - values[z0]
        ) + (max(values) - values[-1] if z0 != n - 1 else 0)

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
        # 6 heights, 6 jumps, 6 own offsets and 3 ladder entries in int32
        assert s.resident_bytes() == 4 * (6 + 6 + 6 + 3) == 84
        assert s.entry_count() == r.words == 6 + 6 + 6 + 3
        # kappa 2^62 makes every ladder full height, as tall as at kappa 5 here
        assert OneLevelFL(EXAMPLE, 2**62).resident_bytes() == 84

    def test_heights_take_the_width_of_n(self, monkeypatch):
        # under a width rule of int8 below 2^7, the 100 heights of this run
        # fit int8, but its offsets' bound, ladder entries plus the spread
        # 99, passes 2^7, so they take int64
        values = list(range(100))
        want = OneLevelFL(values, 5), DoublingFL(values)
        monkeypatch.setattr(core, "position_dtype", lambda largest: np.int8 if largest < 2**7 else np.int64)
        s, d = OneLevelFL(values, 5), DoublingFL(values)
        total = len(s.ladder_data)
        assert total < 2**7 <= total + 99
        assert s.resident_bytes() == 1 * 100 + 8 * (100 + 100 + total)
        assert d.resident_bytes() == 1 * 100 + d.table.nbytes
        xs, ys = full_grid(values)
        for x in xs:
            for y in ys:
                assert s.query(x, y) == d.query(x, y) == want[0].query(x, y) == want[1].query(x, y)
