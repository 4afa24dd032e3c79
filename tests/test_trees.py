"""Tree parsing, Euler tours, and the level-ancestor index."""

import gc
import io
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from findlarger import (
    CycleError,
    DepthOutOfRangeError,
    EmptyTreeError,
    InvalidKappaError,
    LevelAncestorIndex,
    MalformedTreeError,
    MultipleRootsError,
    Tree,
    UnbalancedParensError,
    UnknownNodeError,
    euler_tour,
    parse_balanced_parens,
    parse_parent_array,
)
from findlarger.formats import write_parens
from findlarger.gen import random_parent_array
from findlarger.oracle import naive_la


def tree_from(parent):
    return parse_parent_array(" ".join(map(str, parent)))


class TestParentArrayParsing:
    def test_chain_with_header(self):
        t = parse_parent_array("4\n-1 0 1 2")
        assert t.parent.tolist() == [-1, 0, 1, 2]
        assert t.root == 0
        assert euler_tour(t).nodes.tolist() == [0, 1, 2, 3, 2, 1, 0]

    def test_star_without_header(self):
        t = parse_parent_array("-1 0 0")
        assert t.parent.tolist() == [-1, 0, 0]
        assert euler_tour(t).nodes.tolist() == [0, 1, 0, 2, 0]

    def test_root_anywhere(self):
        t = parse_parent_array("3\n2 2 -1")
        assert t.root == 2
        assert euler_tour(t).nodes.tolist() == [2, 0, 2, 1, 2]

    def test_single_node(self):
        assert parse_parent_array("-1").n_nodes == 1

    def test_trees_compare_by_value(self):
        t = parse_parent_array("-1 0 0 1")
        assert t == Tree.from_parents([-1, 0, 0, 1])
        assert t != Tree.from_parents([-1, 0, 0, 2])
        assert t != Tree.from_parents([1, -1, 0, 1])

    def test_matching_first_value_on_one_line_is_not_a_header(self):
        t = parse_parent_array("1 -1")
        assert t.parent.tolist() == [1, -1] and t.root == 1
        assert parse_parent_array("2\n1 -1").parent.tolist() == [1, -1]

    def test_malformed(self):
        for text in ("", "a b", "3\n-1 0 x", "-1 7", "-1 -2"):
            with pytest.raises(MalformedTreeError):
                parse_parent_array(text)
        for parent in ([-1, 7], [-1, -2]):
            with pytest.raises(MalformedTreeError):
                Tree.from_parents(parent)
        # non-integers and values past int64 are typed errors naming the node
        for parent in ([-1, 0.5], [-1, "0"], [-1, 2**70], [-1, None, 0]):
            with pytest.raises(MalformedTreeError, match=r"\bnode 1\b"):
                Tree.from_parents(parent)

    def test_self_loops_are_cycles(self):
        with pytest.raises(CycleError):
            parse_parent_array("2\n0 1")
        with pytest.raises(CycleError):
            Tree.from_parents([0, 1])

    def test_longer_cycle(self):
        with pytest.raises(CycleError):
            parse_parent_array("-1 2 3 1")
        with pytest.raises(CycleError):
            Tree.from_parents([-1, 2, 3, 1])
        # a cycle is reported before the root count is checked
        with pytest.raises(CycleError):
            Tree.from_parents([-1, -1, 3, 2])

    def test_cycle_error_names_a_node_on_the_cycle(self):
        n = 1 << 16
        tail_into_pair = list(range(1, n)) + [n - 2]  # 0 -> 1 -> ... -> n-1 -> n-2
        cases = [
            ([-1, 2, 3, 4, 2], {2, 3, 4}),
            ([0, 1], {0, 1}),
            ([-1, -1, 3, 2], {2, 3}),
            (tail_into_pair, {n - 2, n - 1}),
            ([n - 1] + list(range(n - 1)), set(range(n))),  # one cycle through every node
        ]
        for parent, cycle in cases:
            with pytest.raises(CycleError) as err:
                Tree.from_parents(parent)
            m = re.search(r"loops through node (\d+)", str(err.value))
            assert m and int(m.group(1)) in cycle, str(err.value)

    def test_multiple_roots(self):
        with pytest.raises(MultipleRootsError):
            parse_parent_array("-1 -1 0")
        with pytest.raises(MultipleRootsError):
            Tree.from_parents([-1, -1, 0])


class TestParensParsing:
    def test_nested(self):
        t = parse_balanced_parens("((())())")
        assert t.parent.tolist() == [-1, 0, 1, 0]
        assert euler_tour(t).nodes.tolist() == [0, 1, 2, 1, 0, 3, 0]
        assert t.root == 0

    def test_whitespace_ignored(self):
        assert parse_balanced_parens(" ( ( ) ) \n").parent.tolist() == [-1, 0]

    def test_unbalanced(self):
        for text in ("(()", "())", ")("):
            with pytest.raises(UnbalancedParensError):
                parse_balanced_parens(text)

    def test_forest_rejected(self):
        with pytest.raises(MultipleRootsError):
            parse_balanced_parens("()()")

    def test_empty(self):
        for text in ("", "   \n"):
            with pytest.raises(EmptyTreeError):
                parse_balanced_parens(text)

    def test_garbage_char(self):
        with pytest.raises(MalformedTreeError):
            parse_balanced_parens("(a)")

    def test_write_then_parse_is_stable(self):
        for seed in range(20):
            t = tree_from(random_parent_array(random.Random(seed).randrange(1, 40), seed))
            buf = io.StringIO()
            write_parens(t, buf)
            s1 = buf.getvalue()
            buf2 = io.StringIO()
            write_parens(parse_balanced_parens(s1), buf2)
            assert buf2.getvalue() == s1


class TestEulerTour:
    def test_frozen_star(self):
        tour = euler_tour(parse_parent_array("3\n-1 0 0"))
        assert list(tour.nodes) == [0, 1, 0, 2, 0]
        assert list(tour.depths) == [0, 1, 0, 1, 0]
        assert list(tour.first_pos) == [0, 1, 3]
        assert list(tour.depth) == [0, 1, 1]

    def test_frozen_bigger(self):
        tour = euler_tour(parse_parent_array("6\n-1 0 0 1 1 2"))
        assert list(tour.nodes) == [0, 1, 3, 1, 4, 1, 0, 2, 5, 2, 0]
        assert list(tour.depths) == [0, 1, 2, 1, 2, 1, 0, 1, 2, 1, 0]
        assert list(tour.first_pos) == [0, 1, 7, 2, 4, 8]

    def test_single_node(self):
        tour = euler_tour(parse_parent_array("-1"))
        assert list(tour.nodes) == [0] and list(tour.depths) == [0]

    def test_equality_compares_the_arrays(self):
        star = euler_tour(parse_parent_array("3\n-1 0 0"))
        assert star == euler_tour(Tree.from_parents([-1, 0, 0]))
        assert star != euler_tour(Tree.from_parents([1, -1, 1]))  # same depths, other nodes
        assert star != euler_tour(parse_parent_array("3\n-1 0 1"))
        assert star != "tour"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 120), st.integers(0, 10**6), st.floats(0.0, 1.0), st.booleans())
    def test_tour_shape(self, n, seed, path_bias, relabel):
        parent = random_parent_array(n, seed, path_bias)
        if relabel:  # the root anywhere, parents higher-numbered as often as not
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            relabelled = [0] * n
            for v, p in enumerate(parent):
                relabelled[perm[v]] = -1 if p == -1 else perm[p]
            parent = relabelled
        tree = tree_from(parent)
        tour = euler_tour(tree)
        assert len(tour.nodes) == len(tour.depths) == 2 * n - 1
        assert tour.nodes[0] == tree.root and tour.nodes[-1] == tree.root
        assert tour.depths[0] == 0 and tour.depths[-1] == 0
        # adjacent stops are parent/child: depth moves by exactly one
        for j in range(1, 2 * n - 1):
            assert abs(tour.depths[j] - tour.depths[j - 1]) == 1
        seen = set()
        for j, v in enumerate(tour.nodes):
            assert tour.depths[j] == tour.depth[v]
            if v not in seen:
                seen.add(v)
                assert tour.first_pos[v] == j
        assert len(seen) == n
        # stored depths agree with parent walks
        for v in range(n):
            d, u = 0, v
            while parent[u] != -1:
                u = parent[u]
                d += 1
            assert tour.depth[v] == d
        # each step down enters a child of the stop before it, in ascending order
        visited = [[] for _ in range(n)]
        for j in range(1, 2 * n - 1):
            if tour.depths[j] > tour.depths[j - 1]:
                visited[tour.nodes[j - 1]].append(int(tour.nodes[j]))
        assert visited == [[w for w in range(n) if parent[w] == v] for v in range(n)]

    def test_large_path_and_star(self):
        n = 1 << 16
        # a path rooted at its highest node: every parent is higher-numbered
        tour = euler_tour(Tree.from_parents(list(range(1, n)) + [-1]))
        down = list(range(n - 1, -1, -1))
        assert tour.nodes.tolist() == down + down[-2::-1]
        assert tour.depths.tolist() == list(range(n)) + list(range(n - 2, -1, -1))
        assert tour.first_pos.tolist() == down
        assert tour.depth.tolist() == down
        star = euler_tour(Tree.from_parents([-1] + [0] * (n - 1)))
        assert star.nodes[1::2].tolist() == list(range(1, n))
        assert star.nodes[::2].tolist() == [0] * n
        assert star.depths.tolist() == [0, 1] * (n - 1) + [0]
        assert star.first_pos.tolist() == [0] + list(range(1, 2 * n - 2, 2))


class TestLevelAncestorIndex:
    def test_frozen_example(self):
        idx = LevelAncestorIndex(parse_parent_array("6\n-1 0 0 1 1 2"))
        assert idx.query(5, 1) == 2
        assert idx.query(5, 2) == 5
        assert idx.query(5, 0) == 0
        assert idx.query(3, 1) == 1

    def test_errors(self):
        idx = LevelAncestorIndex(parse_parent_array("3\n-1 0 0"))
        with pytest.raises(UnknownNodeError):
            idx.query(3, 0)
        with pytest.raises(UnknownNodeError):
            idx.query(-1, 0)
        with pytest.raises(DepthOutOfRangeError):
            idx.query(1, 2)
        with pytest.raises(DepthOutOfRangeError):
            idx.query(1, -1)

    def test_index_does_not_keep_its_tree(self):
        tree = parse_parent_array("6\n-1 0 0 1 1 2")
        ref = weakref.ref(tree)
        idx = LevelAncestorIndex(tree)
        del tree
        gc.collect()
        assert ref() is None
        assert idx.query(5, 1) == 2

    def test_bad_kappa_propagates(self):
        with pytest.raises(InvalidKappaError):
            LevelAncestorIndex(parse_parent_array("-1 0"), kappa=2)

    def test_path_and_star_and_singleton(self):
        for parent in ([-1] + list(range(30)), [-1] + [0] * 30, [-1]):
            tree = tree_from(parent)
            idx = LevelAncestorIndex(tree)
            for v in range(tree.n_nodes):
                for d in range(idx.depth[v] + 1):
                    assert idx.query(v, d) == naive_la(tree, v, d)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 90), st.integers(0, 10**6), st.floats(0.0, 1.0), st.integers(3, 6))
    def test_random_trees_all_pairs(self, n, seed, path_bias, kappa):
        tree = tree_from(random_parent_array(n, seed, path_bias))
        idx = LevelAncestorIndex(tree, kappa)
        depth = idx.depth
        for v in range(n):
            for d in range(depth[v] + 1):
                a = idx.query(v, d)
                assert a == naive_la(tree, v, d)
                assert depth[a] == d
            assert idx.query(v, depth[v]) == v
            assert idx.query(v, 0) == tree.root
