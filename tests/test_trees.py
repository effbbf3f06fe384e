import gc
import itertools
import re
from random import Random

import pytest

from helpers import (
    collections_during,
    path_tree,
    read_result,
    rooted_isomorphic,
    spider,
    star_tree,
    text_mode_read,
)
from treefit.errors import ParseError
from treefit.generate import random_tree
from treefit.graph import Graph
from treefit.paper.lemmas import (
    RootedView,
    canonical_code,
    find_separable_edge,
    leaf_degree,
    maximal_trivial_paths,
    minimal_spanning_subtree,
    tree_diameter,
)
from treefit.seeds import rng_from
from treefit import graph as graph_module
from treefit import trees as trees_module
from treefit.trees import Tree, _parse_tree_lines, format_tree, parse_tree, read_tree


def h_shape(bridge_edges: int) -> Tree:
    """Two degree-3 vertices joined by a bridge path, two pendants each."""
    edges = [(0, 1), (0, 2)]
    prev, nxt = 0, 3
    for _ in range(bridge_edges):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    hub2 = prev
    edges += [(hub2, nxt), (hub2, nxt + 1)]
    return Tree(nxt + 2, edges)


class TestConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_disconnected(self):
        # n - 1 distinct edges that miss a vertex close a cycle
        with pytest.raises(ValueError, match="tree edges do not form a connected graph"):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 1)], "self-loop at vertex 1"),
            ([(0, 1), (1, 3)], "edge (1,3) out of range for n=3"),
            ([(0, 1), (1, 0)], "duplicate edge (1,0)"),
        ],
        ids=["loop", "out-of-range", "repeated"],
    )
    def test_rejects_bad_edge_as_a_graph_does(self, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Tree(3, edges)

    def test_parsed_tree_is_a_graph(self):
        t = parse_tree("4\n0 1\n1 2\n1 3\n")
        assert isinstance(t, Graph) and t.edge_count == t.n - 1 == 3


class TestLeafDegree:
    def test_star(self):
        assert leaf_degree(star_tree(5)) == (5, 0)

    def test_path(self):
        ld, witness = leaf_degree(path_tree(6))
        assert ld == 1 and witness in (1, 4)

    def test_spider(self):
        ld, witness = leaf_degree(spider(3, 2))
        assert ld == 1

    def test_single_vertex_error(self):
        with pytest.raises(ValueError):
            leaf_degree(Tree(1, []))


class TestSeparableEdge:
    def test_path_middle(self):
        assert find_separable_edge(path_tree(10), 5) == (4, 5)

    def test_star_absent(self):
        assert find_separable_edge(star_tree(5), 2) is None

    def test_half_diameter_always_present(self, small_trees):
        for n in range(2, 11):
            for t in small_trees[n]:
                q = tree_diameter(t) // 2
                assert find_separable_edge(t, q) is not None

    def test_split_sizes(self):
        t = h_shape(4)
        edge = find_separable_edge(t, 3)
        assert edge is not None
        u, v = edge
        # check by explicit component count after edge removal
        view = RootedView.build(t, u)
        child = v if view.parent[v] == u else u
        side = view.size[child] if view.parent[v] == u else t.n - view.size[u]
        assert min(side, t.n - side) >= 3


class TestTrivialPaths:
    def test_path_is_one_piece(self):
        paths = maximal_trivial_paths(path_tree(7))
        assert len(paths) == 1 and len(paths[0]) == 7

    def test_star_pieces(self):
        paths = maximal_trivial_paths(star_tree(3))
        assert len(paths) == 3 and all(len(p) == 2 for p in paths)

    def test_h_shape_partition(self):
        t = h_shape(4)
        paths = maximal_trivial_paths(t)
        assert len(paths) == 5
        covered = sorted(
            tuple(sorted(e)) for p in paths for e in zip(p, p[1:])
        )
        assert covered == sorted(tuple(sorted(e)) for e in t.edges())

    def test_partition_property_random(self):
        rng = rng_from(23)
        for _ in range(40):
            t = random_tree(rng.randint(2, 18), rng)
            paths = maximal_trivial_paths(t)
            covered = sorted(tuple(sorted(e)) for p in paths for e in zip(p, p[1:]))
            assert covered == sorted(tuple(sorted(e)) for e in t.edges())
            for p in paths:
                for inner in p[1:-1]:
                    assert t.degree(inner) == 2

    def test_breaks_become_endpoints(self):
        t = path_tree(9)
        paths = maximal_trivial_paths(t, breaks=[4])
        assert sorted(len(p) - 1 for p in paths) == [4, 4]
        assert all(p[0] in (0, 4, 8) and p[-1] in (0, 4, 8) for p in paths)


class TestMinimalSpanningSubtree:
    def test_path_ends(self):
        assert minimal_spanning_subtree(path_tree(6), {0, 5}) == set(range(6))

    def test_star_two_leaves(self):
        assert minimal_spanning_subtree(star_tree(4), {1, 2}) == {0, 1, 2}

    def test_minimality_exhaustive(self):
        rng = rng_from(24)
        for _ in range(30):
            t = random_tree(rng.randint(2, 10), rng)
            size = rng.randint(1, t.n)
            w = set(rng.sample(range(t.n), size))
            result = minimal_spanning_subtree(t, w)
            assert w <= result
            deg = {v: len(t.adj(v) & result) for v in result}
            if len(result) > 1:
                for v in result:
                    if deg[v] == 1:
                        assert v in w  # leaves of the result lie in w
            # exhaustive minimality: no proper connected superset of w is smaller
            for size2 in range(len(w), len(result)):
                for cand in itertools.combinations(sorted(range(t.n)), size2):
                    chosen = set(cand)
                    if not w <= chosen:
                        continue
                    deg2 = {v: len(t.adj(v) & chosen) for v in chosen}
                    reach = {min(chosen)}
                    stack = [min(chosen)]
                    while stack:
                        x = stack.pop()
                        for y in t.adj(x) & chosen:
                            if y not in reach:
                                reach.add(y)
                                stack.append(y)
                    assert len(reach) != len(chosen), "smaller connected cover exists"


def inline_sorted_bfs(t: Tree, root: int, active: frozenset[int]):
    """The sorted BFS the guest searches used to inline, as a reference."""
    parent = {root: -1}
    order = [root]
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(t.adj(u) & active):
            if v not in parent:
                parent[v] = u
                order.append(v)
                queue.append(v)
    children = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    return order, parent, children


class TestRootedView:
    def assert_matches_inline(self, t, root, within):
        view = RootedView.build(t, root, within)
        active = frozenset(range(t.n)) if within is None else within
        order, parent, children = inline_sorted_bfs(t, root, active)
        assert view.order == tuple(order)
        for v in range(t.n):
            assert view.parent[v] == parent.get(v, -1)
            assert view.children[v] == tuple(children.get(v, ()))
        assert view.size[root] == len(order)

    def test_whole_trees_match_inline_bfs(self, small_trees):
        for n in range(1, 8):
            for t in small_trees[n]:
                for root in range(t.n):
                    self.assert_matches_inline(t, root, None)

    def test_subsets_match_inline_bfs(self):
        # connected subsets grown from the root, and arbitrary ones that
        # may split (the view then covers the root's piece only)
        rng = rng_from(27)
        for _ in range(200):
            t = random_tree(rng.randint(2, 20), rng)
            root = rng.randrange(t.n)
            grown = {root}
            for _ in range(rng.randint(0, t.n - 1)):
                frontier = sorted({v for u in grown for v in t.adj(u)} - grown)
                grown.add(rng.choice(frontier))
            self.assert_matches_inline(t, root, frozenset(grown))
            scattered = {root} | {v for v in range(t.n) if rng.random() < 0.5}
            self.assert_matches_inline(t, root, frozenset(scattered))

    def test_root_outside_rejected(self):
        with pytest.raises(ValueError):
            RootedView.build(path_tree(3), 3)
        with pytest.raises(ValueError):
            RootedView.build(path_tree(3), 0, frozenset({1, 2}))


class TestCanonicalCode:
    def test_path_root_matters(self):
        t = path_tree(3)
        assert canonical_code(t, 0) != canonical_code(t, 1)

    def test_relabeling_invariant(self):
        a = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        b = Tree(5, [(4, 3), (3, 2), (3, 0), (0, 1)])  # same shape, relabeled
        assert canonical_code(a, 0) == canonical_code(b, 4)

    def test_codes_realize_rooted_classes(self, small_trees):
        # exhaustive over all rooted trees on up to 7 vertices
        rooted = []
        for n in range(1, 8):
            for t in small_trees[n]:
                for root in range(t.n):
                    rooted.append((t, root))
        codes = [canonical_code(t, r) for t, r in rooted]
        for i, j in itertools.combinations(range(len(rooted)), 2):
            t1, r1 = rooted[i]
            t2, r2 = rooted[j]
            same_iso = rooted_isomorphic(t1, r1, t2, r2)
            assert (codes[i] == codes[j]) == same_iso


class TestTextFormat:
    def test_round_trip(self):
        t = spider(3, 2)
        assert format_tree(parse_tree(format_tree(t))) == format_tree(t)

    def test_rejects_cycle(self):
        with pytest.raises(ParseError):
            parse_tree("3\n0 1\n1 2\n2 0\n")

    def test_rejects_disconnection(self):
        with pytest.raises(ParseError):
            parse_tree("4\n0 1\n2 3\n")


# (text, message, line) of the line-by-line reader, for every kind of bad input
MALFORMED_TREES = [
    ("", "empty input", 1),
    ("x\n", "expected vertex count", 1),
    ("0\n", "a tree has at least one vertex", 1),
    ("0\n0 1\n", "a tree has at least one vertex", 1),
    ("3\n0 1\n1 2\n2 0\n", "tree on 3 vertices needs 2 edges, got 3", 4),
    ("5\n0 1\n1 2\n2 0\n3 4\n", "tree edges do not form a connected graph", 5),
    ("2\n1 1\n", "bad tree edge (1,1)", 2),
    ("2\n0 2\n", "bad tree edge (0,2)", 2),
    ("3\n0 1\n1 0\n", "duplicate tree edge (1,0)", 3),
    ("3\n0 1 2\n1 2\n", "expected `u v`", 2),
    ("3\n0\n1 2\n", "expected `u v`", 2),
    ("3\n0 1\n", "tree on 3 vertices needs 2 edges, got 1", 2),
    ("3\n0 1\n\n\n", "tree on 3 vertices needs 2 edges, got 1", 4),
    ("3\n0 1\n1 2\n2 0", "tree on 3 vertices needs 2 edges, got 3", 4),
    ("3\r\n0 1\r\n1 0\r\n", "duplicate tree edge (1,0)", 3),
    ("3\n0 -1\n1 2\n", "bad tree edge (0,-1)", 2),
    ("4\n0 1\n0 1\n2 3\n", "duplicate tree edge (0,1)", 3),
    ("3\n0 0\n1 2\n", "bad tree edge (0,0)", 2),
    # `int` takes `_` digit separators; the reader does not
    ("1_1\n", "expected vertex count", 1),
    ("11\n0 1_0\n", "non-integer endpoint", 2),
]

# texts outside the written form that still parse: (text, n, edges)
LOOSE_TREES = [
    ("3\n0 1\n2 1", 3, [(0, 1), (2, 1)]),
    ("3\r\n0 1\r\n2 1\r\n", 3, [(0, 1), (2, 1)]),
    ("3\n\n0 1\n\n2 1\n\n", 3, [(0, 1), (2, 1)]),
    (" 3\n0\t1\n 2  1 \n", 3, [(0, 1), (2, 1)]),
    ("+3\n+0 +1\n2 +1\n", 3, [(0, 1), (2, 1)]),
    ("1", 1, []),
]


def _same_tree(a: Tree, b: Tree) -> bool:
    return a.n == b.n and a._adj == b._adj


def _tree_error(n: int, edges: list[tuple[int, int]], exc: ValueError) -> tuple[str, int]:
    """The ParseError (text, line) of the tree text `n` then `edges`, one a
    line, that `Tree(n, edges)` rejects with `exc`: the first edge that a
    graph rejects, on its own line, else `exc` on the last line."""
    for i, (u, v) in enumerate(edges):
        try:
            Graph(n, edges[: i + 1])
        except ValueError as bad:
            kind = "duplicate tree edge" if "duplicate" in str(bad) else "bad tree edge"
            return f"line {i + 2}: {kind} ({u},{v})", i + 2
    return f"line {len(edges) + 1}: {exc}", len(edges) + 1


def _bulk_path_only(monkeypatch) -> None:
    """Make the tree readers fail unless they take the bulk path: the one
    line reader run with the collector paused, building the tree from one
    check of each edge, without Graph(n, edges)'s edge sets. Turns the
    collector on, so the pause is seen."""

    def built(n, edges):
        raise AssertionError(f"neighbour sets built for n={n}")

    line_reader = trees_module._parse_tree_lines

    def paused_line_reader(text):
        assert not gc.isenabled()
        return line_reader(text)

    monkeypatch.setattr(graph_module, "_edge_sets", built)
    monkeypatch.setattr(trees_module, "_parse_tree_lines", paused_line_reader)
    gc.enable()


class TestBulkParse:
    """parse_tree against Tree(n, edges), on well-formed, loose, malformed
    and corrupted texts."""

    def test_well_formed_texts_take_the_bulk_path(self, monkeypatch, gc_state):
        rng = Random(4)
        cases = []
        for _ in range(400):
            t = random_tree(rng.randint(1, 40), rng)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges()]
            rng.shuffle(edges)
            text = f"{t.n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
            cases += [(text, Tree(t.n, edges)), (format_tree(t), t)]
        _bulk_path_only(monkeypatch)
        for text, expected in cases:
            assert _same_tree(parse_tree(text), expected)
        assert gc.isenabled()

    @pytest.mark.parametrize("text,n,edges", LOOSE_TREES)
    def test_loose_texts_parse_as_before(self, text, n, edges):
        assert _same_tree(parse_tree(text), Tree(n, edges))
        assert _same_tree(_parse_tree_lines(text), Tree(n, edges))

    @pytest.mark.parametrize("text,message,line", MALFORMED_TREES)
    def test_errors_match_the_line_reader(self, text, message, line):
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("3000000\n", "tree on 3000000 vertices needs 2999999 edges, got 0", 1),
            ("1000000000\n", "tree on 1000000000 vertices needs 999999999 edges, got 0", 1),
            (" 1000000000\n0 1\n", "tree on 1000000000 vertices needs 999999999 edges, got 1", 2),
            ("3\n0 1\n1 2\n2 0\n", "tree on 3 vertices needs 2 edges, got 3", 4),
            ("3\n0 1\n\n\n", "tree on 3 vertices needs 2 edges, got 1", 4),
        ],
    )
    def test_edge_count_checked_before_the_tree_is_built(self, monkeypatch, text, message, line):
        # a header of a billion vertices and no edges is refused at once,
        # without neighbour sets for every vertex
        def built(n, edges):
            raise AssertionError(f"neighbour sets built for n={n}")

        monkeypatch.setattr(graph_module, "_edge_sets", built)
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)

    def test_random_corruptions_match_the_line_reader(self):
        rng = Random(5)
        for _ in range(600):
            n = rng.randint(1, 8)
            rows = [list(e) for e in random_tree(n, rng).edges()]
            if rows and rng.random() < 0.3:
                rows.pop(rng.randrange(len(rows)))
            if rng.random() < 0.3:
                rows.append([rng.randrange(n), rng.randrange(n)])  # cycle, loop or repeat
            for row in rows:
                if rng.random() < 0.05:
                    row[1] = n + rng.randint(0, 2)
            text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in rows)
            edges = [tuple(row) for row in rows]
            try:
                expected = Tree(n, edges)
            except ValueError as exc:
                with pytest.raises(ParseError) as got:
                    parse_tree(text)
                assert (str(got.value), got.value.line) == _tree_error(n, edges, exc)
            else:
                assert _same_tree(parse_tree(text), expected)


# (file bytes, what read_tree gives: (n, edges) or (ParseError text, line))
TREE_FILES = {
    "written-form": (b"4\n0 1\n1 2\n1 3\n", (4, [(0, 1), (1, 2), (1, 3)])),
    "crlf": (b"4\r\n0 1\r\n1 2\r\n1 3\r\n", (4, [(0, 1), (1, 2), (1, 3)])),
    "lone-cr": (b"4\r0 1\r1 2\r1 3\r", (4, [(0, 1), (1, 2), (1, 3)])),
    "mixed-endings": (b"4\r\n0 1\n1 2\r1 3\r\n", (4, [(0, 1), (1, 2), (1, 3)])),
    "blank-tab-sign": (b"+4\n\n0\t1\n 1 +2 \n\n1 3", (4, [(0, 1), (1, 2), (1, 3)])),
    "leading-zeros": (b"004\n00 01\n1 002\n01 3\n", (4, [(0, 1), (1, 2), (1, 3)])),
    "one-vertex": (b"1\n", (1, [])),
    "empty": (b"", ("line 1: empty input", 1)),
    "crlf-duplicate": (b"3\r\n0 1\r\n1 0\r\n", ("line 3: duplicate tree edge (1,0)", 3)),
    "lone-cr-cycle": (b"3\r0 1\r1 2\r2 0\r", ("line 4: tree on 3 vertices needs 2 edges, got 3", 4)),
    "non-ascii-line-3": (b"4\n0 1\n1 \xe9\n1 3\n", ("line 3: non-ASCII byte 0xe9", 3)),
    "non-ascii-after-crlf": (b"4\r\n0 1\r\n\xff 2\r\n", ("line 3: non-ASCII byte 0xff", 3)),
}


class TestReadTreeFile:
    """read_tree reads bytes and gives what a text-mode read did: the same
    adjacency in the same iteration order, or the same error and line."""

    @pytest.mark.parametrize("data,expected", TREE_FILES.values(), ids=TREE_FILES.keys())
    def test_same_result_as_a_text_mode_read(self, tmp_path, data, expected):
        path = tmp_path / "t.tree"
        path.write_bytes(data)
        got = read_result(read_tree, path)
        if isinstance(expected[0], str):
            assert got == expected
        else:
            n, edges = expected
            assert _same_tree(read_tree(path), Tree(n, edges))
        if data.isascii():
            assert got == read_result(text_mode_read(parse_tree), path)

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_well_formed_files_take_the_bulk_path(self, tmp_path, monkeypatch, gc_state, ending):
        files = []
        for data, (n, edges) in (TREE_FILES[k] for k in ("written-form", "leading-zeros", "one-vertex")):
            path = tmp_path / f"{len(files)}.tree"
            path.write_bytes(data.replace(b"\n", ending))
            files.append((path, Tree(n, edges)))
        _bulk_path_only(monkeypatch)
        for path, expected in files:
            assert _same_tree(read_tree(path), expected)
        assert gc.isenabled()

    def test_a_directory_is_an_os_error_naming_it(self, tmp_path):
        path = tmp_path / "d.tree"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            read_tree(path)
        assert str(path) in str(exc.value)


class TestCollectorPause:
    """The reader runs with the cyclic collector paused, and leaves it on or
    off as it found it, also when it raises."""

    def test_readers_run_paused_and_build_no_edge_sets(self, monkeypatch, gc_state):
        # the loose forms take the same path as the written form (in
        # TestBulkParse and TestReadTreeFile): there is one reader
        cases = [(text, Tree(n, edges)) for text, n, edges in LOOSE_TREES]
        _bulk_path_only(monkeypatch)
        for text, expected in cases:
            assert _same_tree(parse_tree(text), expected)
        assert gc.isenabled()

    def test_bulk_read_runs_no_collection(self, gc_state):
        gc.enable()
        text = "2000\n" + "".join(f"{v} {v + 1}\n" for v in range(1999))
        assert collections_during(parse_tree, text) == 0
        # the line reader called directly runs unpaused: the counter counts
        assert collections_during(_parse_tree_lines, text) > 0

    @pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "build,error",
        [
            pytest.param(lambda: parse_tree("3\n0 1\n1 2\n"), None, id="bulk-read"),
            pytest.param(lambda: parse_tree("3\n0 0\n1 2\n"), ParseError, id="line-reader-raises"),
            pytest.param(lambda: Tree(3, [(0, 1), (1, 2)]), None, id="constructor"),
            pytest.param(lambda: Tree(3, [(0, 1), (1, 1)]), ValueError, id="constructor-raises"),
        ],
    )
    def test_collector_left_as_found(self, gc_state, build, error, on):
        (gc.enable if on else gc.disable)()
        if error is None:
            build()
        else:
            with pytest.raises(error):
                build()
        assert gc.isenabled() is on
