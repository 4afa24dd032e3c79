"""Tree parsing, Euler tours, and the level-ancestor index."""

import gc
import io
import random
import re
import weakref

import numpy as np
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
    TreeTooLargeError,
    UnbalancedParensError,
    UnknownNodeError,
    euler_tour,
    parse_balanced_parens,
    parse_parent_array,
)
from findlarger import compute_valleys, core, trees
from findlarger.core import BLOCK, _ladders
from findlarger.formats import write_parens
from findlarger.gen import random_parent_array
from findlarger.oracle import naive_la

from test_core import absolute, descents, reference_build


def tree_from(parent):
    return parse_parent_array(" ".join(map(str, parent)))


def relabelled(parent, seed):
    """The same tree with its nodes renumbered by a random permutation."""
    perm = list(range(len(parent)))
    random.Random(seed).shuffle(perm)
    out = [0] * len(parent)
    for v, p in enumerate(parent):
        out[perm[v]] = -1 if p == -1 else perm[p]
    return out


def reference_tour(parent):
    """Nodes, depths, first_pos and depth of the Euler tour by a plain
    iterative DFS that enters children in ascending order."""
    n = len(parent)
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p != -1:
            children[p].append(v)
    root = parent.index(-1)
    first_pos, depth = [0] * n, [0] * n
    nodes, depths = [root], [0]
    stack = [[root, 0]]  # a node and the index of its next child
    while stack:
        top = stack[-1]
        v, i = top
        if i < len(children[v]):
            top[1] += 1
            w = children[v][i]
            depth[w] = depth[v] + 1
            first_pos[w] = len(nodes)
            nodes.append(w)
            depths.append(depth[w])
            stack.append([w, 0])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                nodes.append(u)
                depths.append(depth[u])
    return nodes, depths, first_pos, depth


def shapes(n):
    """Parent arrays of n nodes: a path, a star and two random trees, with
    the root at the end, in the middle, first and anywhere."""
    return [
        list(range(1, n)) + [-1],
        [n // 2 if v != n // 2 else -1 for v in range(n)],
        random_parent_array(n, n, 0.5),
        relabelled(random_parent_array(n, n + 1, 0.2), n),
    ]


def assert_reference_tour(parent):
    tour = euler_tour(Tree.from_parents(parent))
    got = tour.nodes, tour.depths, tour.first_pos, tour.depth
    for a, b in zip(got, reference_tour(parent)):
        assert a.tolist() == b


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
        # a bad token is named with its index, the header's counted
        with pytest.raises(MalformedTreeError, match=r"^token 3 is not an integer: 'x'$"):
            parse_parent_array("3\n-1 0 x")
        # an integer too long for int() is out of range, and quoted in part
        with pytest.raises(MalformedTreeError, match=r"^token 2 lies outside the signed 64-bit range: '-9{39}'\.\.\. \(5001 characters\)$"):
            parse_parent_array("2\n-1 -" + "9" * 5000)
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

    @pytest.mark.parametrize(
        "length, tail, through",
        [(1, 0, 31), (2, 0, 31), (3, 0, 32), (4, 0, 31), (8, 0, 31), (4, 5, 39)],
    )
    def test_cycle_error_text(self, length, tail, through):
        # a root with 30 children, then nodes 31.. form a tail of `tail` nodes
        # that runs into a cycle of `length` nodes; the named node is where
        # 2^k steps from node 31 land, k = (n - 1).bit_length(), even when the
        # pointer jumping reaches its fixed point in fewer rounds
        parent = [-1] + [0] * 30 + list(range(32, 32 + tail))
        start = len(parent)
        parent += [start + (i + 1) % length for i in range(length)]
        with pytest.raises(CycleError) as err:
            Tree.from_parents(parent)
        assert str(err.value) == (
            f"parent chain from node 31 never reaches a root: it loops through node {through}"
        )

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

    def test_errors_name_the_character_position(self):
        # positions count every character of the text, whitespace too
        for text, error, position in (
            ("())", UnbalancedParensError, 2),
            ("( )\n )", UnbalancedParensError, 5),
            ("(())  (", MultipleRootsError, 6),
            ("(()) x", MalformedTreeError, 5),
            ("(a)", MalformedTreeError, 1),
        ):
            with pytest.raises(error, match=rf"\bat position {position}\b"):
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
            parent = relabelled(parent, seed)
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

    @pytest.mark.parametrize(
        "n", sorted({(1 << k) + d for k in range(1, 13) for d in (-1, 0, 1)})
    )
    def test_matches_reference_dfs(self, n):
        # sizes on both sides of each power of two move the number of
        # pointer-jumping rounds and the number of rulers across their boundaries
        for parent in shapes(n):
            assert_reference_tour(parent)

    @pytest.mark.parametrize("spacing", [1, 3, 32, 10**9])
    def test_any_rulers_give_the_reference_tour(self, monkeypatch, spacing):
        # from most edges rulers, so that pointer jumping ranks nearly all
        # of them, to none but the list heads, so that the walk passes every edge
        monkeypatch.setattr(trees, "RULER_SPACING", spacing)
        for n in (1, 2, 3, 17, 100, 1000):
            for parent in shapes(n):
                assert_reference_tour(parent)

    @staticmethod
    def ranked_lengths(monkeypatch):
        """The lengths of the lists handed to pointer jumping, as they come."""
        lengths = []
        rank = trees._rank

        def counting(succ, dist):
            lengths.append(len(succ))
            return rank(succ, dist)

        monkeypatch.setattr(trees, "_rank", counting)
        return lengths

    def test_walk_leaves_only_the_rulers_to_pointer_jumping(self, monkeypatch):
        lengths = self.ranked_lengths(monkeypatch)
        n = 2000
        for parent in shapes(n):
            lengths.clear()
            assert_reference_tour(parent)
            assert len(lengths) == 1 and lengths[0] < (2 * n + 1) // 16

    def test_a_run_built_against_the_rulers_is_ranked_whole(self, monkeypatch):
        # every node whose two edges both miss the rulers goes on one path
        # below the root, so the tour holds a run of about 1.9n edges that
        # no ruler breaks; the rest hang off the root as leaves
        lengths = self.ranked_lengths(monkeypatch)
        n = 2000
        size = 2 * n + 1
        is_ruler = np.zeros(size, dtype=bool)
        is_ruler[np.random.default_rng(0).integers(0, size, size // trees.RULER_SPACING)] = True
        parent, last = [-1] + [0] * (n - 1), 0
        for w in range(1, n):
            if not is_ruler[w] and not is_ruler[n + w]:
                parent[w], last = last, w
        below_top = sum(p != 0 for p in parent[1:])  # path nodes but the top one
        assert 2 * below_top > 2 * trees.RULER_SPACING * size.bit_length()
        assert_reference_tour(parent)
        assert lengths == [size]

    def test_node_limit(self, monkeypatch):
        # two numbers of at most 2n share an int64 word up to the limit, not past it
        n = trees.MAX_TOUR_NODES
        assert 2 * (2 * n).bit_length() <= 63 < 2 * (2 * n + 2).bit_length()
        monkeypatch.setattr(trees, "MAX_TOUR_NODES", 4)
        assert euler_tour(Tree.from_parents([-1, 0, 0, 1])).nodes.tolist() == [0, 1, 3, 1, 0, 2, 0]
        with pytest.raises(TreeTooLargeError, match=r"^5 nodes"):
            euler_tour(Tree.from_parents([-1, 0, 0, 1, 1]))
        with pytest.raises(TreeTooLargeError):
            LevelAncestorIndex(Tree.from_parents([-1, 0, 0, 1, 1]))

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

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_arguments(self, integer):
        idx = LevelAncestorIndex(Tree.from_parents(range(-1, 99)))  # a path: node v at depth v
        for v, d in ((99, 3), (99, 0), (60, 58), (10, 7)):
            assert idx.query(v, integer(d)) == idx.query(integer(v), integer(d)) == idx.query(integer(v), d) == d

    @pytest.mark.filterwarnings("error")
    def test_numpy_integers_are_answered_as_their_ints(self):
        # numpy arithmetic would wrap at the limits of its width: every
        # argument is answered as the Python int it holds
        idx = LevelAncestorIndex(Tree.from_parents(range(-1, 99)))  # a path: node v at depth v
        for integer in (np.int64, np.int32):
            info = np.iinfo(integer)
            for v in (0, 50, 99):
                for d in (info.min, info.max):
                    for args in ((v, integer(d)), (integer(v), integer(d))):
                        with pytest.raises(DepthOutOfRangeError, match=f"requested {d}$"):
                            idx.query(*args)
                for args in ((integer(v), v), (integer(v), integer(v // 2))):
                    got = idx.query(*args)
                    assert type(got) is int and got == int(args[1])
            for v in (info.min, info.max):
                with pytest.raises(UnknownNodeError, match=f"node {v} "):
                    idx.query(integer(v), 0)

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

    def test_bad_kappa_propagates(self, monkeypatch):
        def no_tour(tree):
            raise AssertionError("the tour was built before kappa was checked")

        monkeypatch.setattr(trees, "euler_tour", no_tour)
        with pytest.raises(InvalidKappaError):
            LevelAncestorIndex(parse_parent_array("-1 0"), kappa=2)

    def test_int32_arrays_on_the_deepest_tour(self):
        n = 1 << 16
        tree = Tree.from_parents(np.arange(-1, n - 1))  # a path: node v at depth v
        idx = LevelAncestorIndex(tree)
        for view in (idx.first_pos, idx.depth, idx.own_base, idx.jump, idx.ladder_data):
            assert np.asarray(view).dtype == np.int32
        # a block of first visits down the path reads ladders that lie
        # within a few blocks' length of each other
        assert np.asarray(idx.own).dtype == np.int16
        assert idx.depth.tolist() == list(range(n))
        assert all(idx.query(v, v) == v for v in range(n))
        rng = random.Random(16)
        deep = [n - 1, n - 2] + [rng.randrange(n) for _ in range(60)]
        for v in deep:
            for d in (0, v // 2, v, rng.randrange(v + 1)):
                assert idx.query(v, d) == naive_la(tree, v, d) == d

    def test_storage_is_six_int8_arrays(self):
        idx = LevelAncestorIndex(parse_parent_array("6\n-1 0 0 1 1 2"))
        # 6 nodes, 11 tour stops; the ladder entries are node ids
        assert len(idx.first_pos) == len(idx.depth) == len(idx.own) == 6
        assert len(idx.jump) == 11
        # of the tour 0 1 3 1 4 1 0 2 5 2 0, only the leaves hold a ladder
        # of the ancestors above them, nearest first: [1, 0] for node 3,
        # [1, 0] for node 4 and [2, 0] for node 5; the last stop's is empty
        assert idx.ladder_data.tolist() == [1, 0, 1, 0, 2, 0]
        # own[v] = start of the ladder of the leaf that v's chain of first
        # visits reaches + depth(leaf) - 1: nodes 0, 1 and 3 share node 3's;
        # kept as deltas from the least, the one block's base
        assert absolute(idx.own, idx.own_base, idx.first_pos).tolist() == [1, 1, 5, 1, 3, 5]
        assert idx.own.tolist() == [0, 0, 4, 0, 2, 4] and idx.own_base.tolist() == [1]
        assert idx.entry_count() == 6 + 6 + 6 + 1 + 11 + 6
        assert idx.resident_bytes() == 1 * (6 + 6 + 6 + 1 + 11 + 6) == 36
        for name in ("nodes", "depths", "ladder_start", "_fs"):
            assert not hasattr(idx, name)
        kept = [getattr(idx, name) for name in idx.__slots__]
        assert all(view.format == "b" for view in kept if isinstance(view, memoryview))

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


def caterpillar(spine, legs):
    """A path of ``spine`` nodes, each with ``legs`` leaves hung on it."""
    return [-1] + list(range(spine - 1)) + [v for v in range(spine) for _ in range(legs)]


def fork(p, chain):
    """A path to node p, whose first child starts a chain of ``chain``
    nodes and whose last child is a leaf."""
    return [-1] + list(range(p)) + [p] + list(range(p + 1, p + chain)) + [p]


@pytest.mark.parametrize(
    "parent",
    [
        [-1] + list(range(119)),  # path
        [-1] + [0] * 2499,  # star, a tour of 4999 stops
        caterpillar(40, 60),  # 2440 nodes, a tour of 4879 stops
        random_parent_array(2200, 13, 0.0),
        random_parent_array(2200, 14, 0.3),
        random_parent_array(400, 15, 0.9),
        fork(28, 40),  # at kappa 3 a jump offset passes the end of the ladders
    ],
    ids=["path", "star", "caterpillar", "random", "random-deeper", "random-deepest", "fork"],
)
def test_every_pair_matches_the_oracle(parent):
    tree = Tree.from_parents(parent)
    depth = euler_tour(tree).depth.tolist()
    want = [[naive_la(tree, v, d) for d in range(depth[v] + 1)] for v in range(len(parent))]
    for kappa in (3, 4, 5, 6, 2**62):
        idx = LevelAncestorIndex(tree, kappa)
        got = [[idx.query(v, d) for d in range(depth[v] + 1)] for v in range(len(parent))]
        assert got == want, kappa
        # the offsets lie in [-1, ladder entries + largest depth)
        bound = len(idx.ladder_data) + max(depth)
        for offsets in (np.asarray(idx.jump), absolute(idx.own, idx.own_base, idx.first_pos)):
            assert offsets.min() >= -1 and offsets.max() < bound


def test_a_jump_offset_passes_the_end_of_the_ladders():
    # the return stops after a jump's base hold no ladder entries, so its
    # offset, though never read there, lies beyond the last entry
    idx = LevelAncestorIndex(Tree.from_parents(fork(28, 40)), 3)
    assert max(idx.jump) >= len(idx.ladder_data)


def test_offsets_take_the_width_of_their_bound(monkeypatch):
    # under a width rule of int8 below 2^7, this tour (107 stops) and its
    # ladders (124 entries) fit int8, but an offset reaches 130: the width
    # must come from the offsets' bound, entries plus the largest depth
    tree = Tree.from_parents(random_parent_array(54, 96, 0.95))
    want = LevelAncestorIndex(tree, 3)
    monkeypatch.setattr(core, "position_dtype", lambda largest: np.int8 if largest < 2**7 else np.int64)
    got = LevelAncestorIndex(tree, 3)
    assert len(want.jump) < 2**7 and len(want.ladder_data) < 2**7 <= max(want.jump)
    for name in ("own", "own_base", "jump", "ladder_data"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    depth = want.depth.tolist()
    for v in range(len(depth)):
        for d in range(depth[v] + 1):
            assert got.query(v, d) == want.query(v, d) == naive_la(tree, v, d)


@pytest.mark.parametrize(
    "parent",
    [
        [-1],
        [-1] + list(range(49)),
        [-1] + [0] * 49,
        caterpillar(7, 6),
        fork(5, 9),
        random_parent_array(300, 7, 0.0),
        random_parent_array(300, 8, 0.5),
        relabelled(random_parent_array(300, 9, 0.9), 9),
    ],
)
def test_first_visits_and_the_last_stop_hold_every_valley(parent):
    tour = euler_tour(Tree.from_parents(parent))
    kept = set(tour.first_pos.tolist()) | {len(tour.depths) - 1}
    assert set(compute_valleys((-tour.depths).tolist()).tolist()) <= kept


def jump_bases(values, valley, kappa):
    """The position each jump of the find-larger build over ``values``
    lands on, by a per-position right-to-left loop over Python integers."""
    n = len(values)
    y_min = min(values)
    size = max(values) - y_min + 2
    next_at = [n] * size  # the first position >= x at each level
    base = [0] * n
    for x in range(n - 1, -1, -1):
        i = values[x] - y_min
        next_at[i] = x
        base[x] = valley[next_at[min(i + (kappa - 2) * (x & -x), size - 1)]]
    return base


@pytest.mark.parametrize("kappa", [3, 5, 2**62])
def test_masked_ladders_are_the_full_ones_less_the_dropped(kappa):
    # the negated depths of a tour of more than 3 blocks, built as
    # LevelAncestorIndex builds them, with queries at first visits only,
    # against the build with queries at every stop: the ladders sit at the
    # same descent ends, the leaves and the last stop, and each is the
    # full one cut to its own height
    tour = euler_tour(Tree.from_parents(random_parent_array(6500, 21, 0.5)))
    values = -tour.depths
    n = len(values)
    assert n > 3 * BLOCK
    valley = compute_valleys(values.tolist())
    y_min = int(values.min())
    full_own, full_base, full_data, full_jump, _ = _ladders(values, kappa, y_min, 0)
    own, own_base, ladder_data, jump, _ = _ladders(values, kappa, y_min, 0, rising_queries=False)
    full_own, own = absolute(full_own, full_base), absolute(own, own_base)

    # the descent ends: the last stop, and the stops that a step rises
    # from and none rises into, which are the leaves
    rise = values[1:] > values[:-1]
    ends = np.append(np.flatnonzero(rise & ~np.append(False, rise[:-1])), n - 1)
    leaves = np.sort(tour.first_pos[np.bincount(tour.nodes, minlength=len(tour.first_pos)) == 1])
    assert np.array_equal(ends[:-1], leaves)
    # own[z] = start(z) + (y_max - values[z]) - 1, with y_max = 0
    full_starts = np.append(full_own[ends] + values[ends] + 1, len(full_data))
    starts = np.append(own[ends] + values[ends] + 1, len(ladder_data))
    full_heights = np.diff(full_starts)
    heights = np.diff(starts)
    assert (heights <= full_heights).all()
    # at kappa 2^62 every ladder reaches the top in both builds
    assert (heights < full_heights).any() == (kappa < 2**62)
    assert heights[-1] == full_heights[-1] == 0  # the last stop is the root
    want_data = np.concatenate([full_data[a : a + h] for a, h in zip(full_starts, heights)])
    want_starts = np.cumsum(np.append(0, heights))[:-1]
    # a jump is its base's own offset, so it moves down by the entries
    # dropped before its base, a descent end, or 0, which reads the
    # ladder of its own descent's end
    base = np.array(jump_bases(values.tolist(), valley.tolist(), kappa))
    assert base[0] == 0 and np.isin(base[1:], ends).all()
    assert (full_jump == full_own[base]).all()
    want_jump = full_jump - (full_own - own)[base]
    assert 0 < len(ladder_data) <= len(full_data)
    # the offsets' bound, ladder entries plus the largest depth, passes
    # 2^15 only where every ladder reaches the top
    width = core.position_dtype(max(n, len(ladder_data) - y_min))
    assert width is (np.int16 if kappa < 2**62 else np.int32)
    assert own_base.dtype == width
    assert (own[ends] == want_starts - values[ends] - 1).all()
    for got, want in ((ladder_data, want_data), (jump, want_jump)):
        assert got.dtype == width
        assert got.tobytes() == want.astype(width).tobytes()


def top_measured_entries(values, kappa):
    """The ladder entries of the build without rising queries when each
    ladder's least height was measured from the top of its descent, by a
    per-position loop: a ladder at each descent end z holds z's weight
    term, but at least the floor plus values[s] - values[z] for the top s
    of z's descent, and at most z's height below the top, which the
    ladders of 0's descent end and of n - 1 reach."""
    n = len(values)
    y_max = max(values)
    kappa_prime = -((2 * kappa + 2) // (2 - kappa))
    floor = min(kappa - 1, y_max - min(values))
    weight = [0] * n
    for v in compute_valleys(values).tolist()[:n]:
        weight[v] += 1
    total = 0
    for z, (s, _) in descents(values, rising_queries=False).items():
        top = y_max - values[z]
        if s == 0 or z == n - 1:
            total += top
        else:
            total += min(max(kappa_prime * (weight[z] - 1) - 2, floor + values[s] - values[z]), top)
    return total


@pytest.mark.parametrize("seed", range(4))
def test_trees_build_as_the_per_position_loop(seed):
    # the build LevelAncestorIndex runs, at the first visits and the last
    # stop, the run starts, against the per-position loop of the sequence
    # tests
    values = (-euler_tour(Tree.from_parents(random_parent_array(2000, seed, 0.3 * seed))).depths).tolist()
    lead = [x for x in range(len(values)) if x in (0, len(values) - 1) or values[x] <= values[x - 1]]
    for kappa in (3, 5, 2**62):
        own, own_base, ladder_data, jump, _ = _ladders(np.array(values), kappa, min(values), 0, rising_queries=False)
        want_own, want_data, want_jump = reference_build(values, kappa, rising_queries=False)
        assert absolute(own, own_base)[lead].tolist() == [want_own[x] for x in lead]
        assert ladder_data.tolist() == want_data
        assert jump.tolist() == want_jump
        # no query starts at the top of a descent, a return stop, so no
        # ladder is taller than when its drop was measured from there, and
        # some are shorter unless every ladder reaches the top
        measured = top_measured_entries(values, kappa)
        assert len(ladder_data) <= measured
        assert (len(ladder_data) < measured) == (kappa < 2**62)
