"""Text formats and the seeded generators."""

import io

import pytest

from findlarger import euler_tour, validate_sequence
from findlarger.formats import (
    SequenceParseError,
    read_sequence,
    read_tree,
    write_parent_array,
    write_sequence,
)
from findlarger.gen import BadSpecError, random_parent_array, random_walk_values


class TestSequenceFormat:
    def test_round_trip_with_header(self):
        buf = io.StringIO()
        write_sequence([3, 4, 5, 4], buf)
        assert buf.getvalue() == "4\n3 4 5 4\n"
        assert read_sequence(buf.getvalue()) == [3, 4, 5, 4]

    def test_headerless(self):
        assert read_sequence("7 8 9") == [7, 8, 9]
        assert read_sequence("-1 0 1") == [-1, 0, 1]
        assert read_sequence("5") == [5]

    def test_header_detection_needs_matching_count(self):
        # a header is a first line holding only a count that matches the rest
        assert read_sequence("4\n3 4 5 4") == [3, 4, 5, 4]
        assert read_sequence("9 8 9") == [9, 8, 9]
        assert read_sequence("3\n8 9") == [3, 8, 9]
        # a one-line input never has a header, even when its first value matches
        assert read_sequence("2 3 2") == [2, 3, 2]
        assert read_sequence("2 1 2") == [2, 1, 2]
        assert read_sequence("2 1 2\n") == [2, 1, 2]
        assert read_sequence("2 1\n2") == [2, 1, 2]

    def test_errors(self):
        with pytest.raises(SequenceParseError):
            read_sequence("")
        with pytest.raises(SequenceParseError):
            read_sequence("1 2 x")

    def test_error_names_the_first_bad_token_and_its_index(self):
        # the index counts the header among the tokens
        for text, index, token in (
            ("1 2 x", 2, "'x'"),
            ("4\n0 1 1.5 y", 3, "'1.5'"),
            ("0x10 0", 0, "'0x10'"),
        ):
            with pytest.raises(SequenceParseError, match=f"^token {index} is not an integer: {token}$"):
                read_sequence(text)


class TestTreeFormat:
    def test_read_tree_dispatch(self):
        assert euler_tour(read_tree("3\n-1 0 0", "parent")).nodes.tolist() == [0, 1, 0, 2, 0]
        assert euler_tour(read_tree("(()())", "parens")).nodes.tolist() == [0, 1, 0, 2, 0]
        with pytest.raises(ValueError):
            read_tree("-1", "seq")

    def test_parent_round_trip(self):
        t = read_tree("5\n-1 0 0 2 2", "parent")
        buf = io.StringIO()
        write_parent_array(t, buf)
        assert buf.getvalue() == "5\n-1 0 0 2 2\n"


class TestGeneratorArguments:
    def test_valid(self):
        random_walk_values(10, bias=0.5)
        random_parent_array(10, path_bias=1.0, max_degree=2)

    def test_invalid(self):
        with pytest.raises(BadSpecError):
            random_walk_values(0)
        with pytest.raises(BadSpecError):
            random_walk_values(5, bias=1.0)
        with pytest.raises(BadSpecError):
            random_parent_array(0)
        with pytest.raises(BadSpecError):
            random_parent_array(5, path_bias=-0.1)
        with pytest.raises(BadSpecError):
            random_parent_array(5, max_degree=0)


class TestWalkGenerator:
    def test_deterministic(self):
        assert random_walk_values(50, seed=9) == random_walk_values(50, seed=9)
        assert random_walk_values(50, seed=9) != random_walk_values(50, seed=10)

    def test_valid_walk_from_zero(self):
        v = random_walk_values(500, seed=3)
        assert v[0] == 0 and len(v) == 500
        validate_sequence(v)  # raises if any step exceeds 1

    def test_bias_drifts(self):
        up = random_walk_values(4000, seed=1, bias=0.7)
        down = random_walk_values(4000, seed=1, bias=-0.7)
        assert up[-1] > 200 and down[-1] < -200

    def test_n_1(self):
        assert random_walk_values(1, seed=0) == [0]


class TestTreeGenerator:
    def test_deterministic_rooted_at_zero(self):
        a = random_parent_array(40, seed=4, path_bias=0.6)
        assert a == random_parent_array(40, seed=4, path_bias=0.6)
        assert a[0] == -1
        assert all(0 <= a[v] < v for v in range(1, 40))

    def test_path_bias_one_is_a_path(self):
        assert random_parent_array(10, seed=0, path_bias=1.0) == [-1] + list(range(9))

    def test_max_degree_respected(self):
        for seed in range(10):
            a = random_parent_array(200, seed=seed, path_bias=0.0, max_degree=2)
            counts = [0] * 200
            for v in range(1, 200):
                counts[a[v]] += 1
            assert max(counts) <= 2

    def test_max_degree_one_is_a_path(self):
        a = random_parent_array(30, seed=7, path_bias=0.0, max_degree=1)
        counts = [0] * 30
        for v in range(1, 30):
            counts[a[v]] += 1
        assert max(counts) == 1
