import gc
import itertools
from collections import deque
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    collections_during,
    complete,
    cycle,
    path_graph,
    petersen,
    read_result,
    text_mode_read,
    to_networkx,
)
from treefit.errors import EmptyGraphError, ParseError
from treefit import graph as graph_module
from treefit.graph import Graph, _parse_graph_lines, format_graph, parse_graph, read_graph
from treefit.generate import random_graph
from treefit.hardness import ThreePartitionInstance, generate_hardness_instance
from treefit.paper.lemmas import (
    IsEscapeVertexError,
    TooSmallError,
    bfs_distances,
    is_q_escape,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
    neighbor_deficiency,
    components_avoiding,
    nonescape_separator,
    shortest_path_between,
)
from treefit.seeds import rng_from


def k4_minus_edge():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestMinDegree:
    def test_cycle(self):
        assert cycle(6).min_degree() == 2

    def test_petersen(self):
        assert petersen().min_degree() == 3

    def test_k4_minus_edge(self):
        assert k4_minus_edge().min_degree() == 2

    def test_empty(self):
        with pytest.raises(EmptyGraphError):
            Graph(0, []).min_degree()


class TestNeighborDeficiency:
    def test_k4(self):
        g = complete(4)
        for v in range(4):
            assert neighbor_deficiency(g, v, 2) == 1

    def test_regular_k1(self):
        for g in (cycle(6), petersen()):
            for v in range(g.n):
                assert neighbor_deficiency(g, v, 1) == 0

    def test_chord_endpoint(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        assert neighbor_deficiency(g, 0, 2) == 0
        assert neighbor_deficiency(g, 1, 2) == 1


class TestMatching:
    def test_single_left_vertex(self):
        assert len(max_bipartite_matching(complete(4), {0}, {1, 2, 3})) == 1

    def test_cycle_cut(self):
        # edges crossing {0,1,2}|{3,4,5} in C_6 are (2,3) and (5,0)
        assert len(max_bipartite_matching(cycle(6), {0, 1, 2}, {3, 4, 5})) == 2

    def test_no_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert max_bipartite_matching(g, {0, 1}, set()) == []
        assert max_bipartite_matching(g, {0}, {2}) == []

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            max_bipartite_matching(cycle(4), {0, 1}, {1, 2})

    def test_matching_is_valid(self):
        rng = rng_from(11)
        for trial in range(50):
            g = random_graph(10, 0.4, rng)
            left = {v for v in range(10) if rng.random() < 0.5}
            right = set(range(10)) - left
            matching = max_bipartite_matching(g, left, right)
            seen = set()
            for u, v in matching:
                assert u in left and v in right and v in g.adj(u)
                assert u not in seen and v not in seen
                seen |= {u, v}

    def test_konig_equality_exhaustive_small(self):
        # cover size == matching size, and the cover is exhaustively minimal
        rng = rng_from(12)
        for trial in range(40):
            n = rng.randint(4, 12)
            g = random_graph(n, 0.5, rng)
            left = {v for v in range(n) if v % 2 == 0}
            right = set(range(n)) - left
            matching = max_bipartite_matching(g, left, right)
            cover = min_vertex_cover_bipartite(g, left, right)
            assert len(cover) == len(matching)
            cross = [
                (u, v) for u in left for v in g.adj(u) & right
            ]
            assert all(u in cover or v in cover for u, v in cross)
            for size in range(len(cover)):
                for cand in itertools.combinations(sorted(left | right), size):
                    chosen = set(cand)
                    assert not all(u in chosen or v in chosen for u, v in cross)


class TestEscape:
    def test_complete_graph_never_escapes(self):
        g = complete(5)
        for v in range(5):
            assert not is_q_escape(g, v, 1)

    def test_petersen_three_escape(self):
        g = petersen()
        for v in range(10):
            assert is_q_escape(g, v, 3)

    def test_zero_escape_always(self):
        for g in (complete(3), cycle(5), petersen()):
            for v in range(g.n):
                assert is_q_escape(g, v, 0)

    def test_monotone(self):
        rng = rng_from(13)
        for trial in range(30):
            g = random_graph(9, 0.35, rng)
            if g.n == 0:
                continue
            for v in range(g.n):
                flags = [is_q_escape(g, v, q) for q in range(5)]
                for small, big in zip(flags, flags[1:]):
                    assert small or not big


class TestNonescapeSeparator:
    def test_two_cliques_shared_vertex(self):
        # two K_5's glued at vertex 4
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, j) for i in range(4, 9) for j in range(i + 1, 9)]
        g = Graph(9, edges)
        s = nonescape_separator(g, 0, 2)
        assert s == {4}

    def test_complete_too_small(self):
        with pytest.raises(TooSmallError):
            nonescape_separator(complete(5), 0, 1)

    def test_barbell(self):
        # two K_6's joined by the edge (5, 6); v interior to the first clique
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        edges.append((5, 6))
        g = Graph(12, edges)
        s = nonescape_separator(g, 0, 2)
        assert len(s) == 1 and s <= {5, 6}

    def test_escape_vertex_rejected(self):
        g = petersen()
        with pytest.raises(IsEscapeVertexError):
            nonescape_separator(g, 0, 2)

    def test_separator_disconnects(self):
        rng = rng_from(14)
        found = 0
        for trial in range(300):
            g = random_graph(9, 0.25, rng)
            if len(g.components()) > 1:
                continue
            for v in range(g.n):
                for q in (1, 2, 3):
                    try:
                        s = nonescape_separator(g, v, q)
                    except (IsEscapeVertexError, TooSmallError):
                        continue
                    found += 1
                    assert len(s) < q
                    remainder = [u for u in range(g.n) if u not in s]
                    comp = {remainder[0]}
                    stack = [remainder[0]]
                    while stack:
                        x = stack.pop()
                        for y in g.adj(x):
                            if y not in s and y not in comp:
                                comp.add(y)
                                stack.append(y)
                    assert len(comp) < len(remainder)
        assert found > 10


class TestBfsAndDiameter:
    def test_path_distances(self):
        assert bfs_distances(path_graph(4), 0) == [0, 1, 2, 3]

    def test_cycle_distances(self):
        assert bfs_distances(cycle(6), 0) == [0, 1, 2, 3, 2, 1]

    def test_unreachable_sentinel(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert bfs_distances(g, 0) == [0, 1, 4, 4]

    def test_triangle_inequality_over_edges(self):
        rng = rng_from(15)
        for trial in range(30):
            g = random_graph(10, 0.3, rng)
            for src in range(g.n):
                dist = bfs_distances(g, src)
                for u, v in g.edges():
                    if dist[u] < g.n and dist[v] < g.n:
                        assert abs(dist[u] - dist[v]) <= 1


class TestShortestPathAvoiding:
    def test_cycle_around(self):
        assert shortest_path_between(cycle(6), [0], [3], {1, 2}) == [0, 5, 4, 3]

    def test_blocked_both_ways(self):
        assert shortest_path_between(cycle(6), [0], [3], {1, 4}) is None

    def test_direct_edge(self):
        assert shortest_path_between(complete(4), [0], [3], set()) == [0, 3]

    def test_lengths_match_networkx(self):
        rng = rng_from(91)
        for _ in range(300):
            g = random_graph(rng.randint(2, 14), rng.uniform(0.1, 0.5), rng)
            sources = rng.sample(range(g.n), rng.randint(1, g.n))
            targets = rng.sample(range(g.n), rng.randint(1, g.n))
            free = [v for v in range(g.n) if v not in sources and v not in targets]
            forbidden = set(rng.sample(free, rng.randint(0, len(free))))
            path = shortest_path_between(g, sources, targets, forbidden)
            nxg = to_networkx(g)
            nxg.remove_nodes_from(forbidden)
            nxg.add_edges_from(("s", v) for v in sources)
            nxg.add_edges_from((v, "t") for v in targets)
            if not nx.has_path(nxg, "s", "t"):
                assert path is None
                continue
            assert len(path) == nx.shortest_path_length(nxg, "s", "t") - 1
            assert path[0] in sources and path[-1] in targets
            assert not forbidden & set(path) and len(set(path)) == len(path)
            assert all(b in g.adj(a) for a, b in zip(path, path[1:]))

    def test_ties_go_to_the_lowest_ids(self):
        # C_8 from {0, 4} to {2, 6}: four shortest paths of two edges, and
        # a source that is a target is a path of its own
        g = cycle(8)
        assert shortest_path_between(g, [4, 0], [6, 2]) == [0, 1, 2]
        assert shortest_path_between(g, [4, 0], [6, 2], {1}) == [0, 7, 6]
        assert shortest_path_between(g, [5, 3], [3, 5]) == [3]

    def test_forbidden_endpoint_rejected(self):
        for sources, targets in (([0, 1], [3]), ([0], [3, 1])):
            with pytest.raises(ValueError, match="endpoints"):
                shortest_path_between(cycle(6), sources, targets, {1})

    def test_matches_exhaustive_enumeration(self):
        g = cycle(6)
        # every simple 0-3 path avoiding {1,4} must use both arcs; none exists
        vertices = set(range(6)) - {1, 4}
        found = []
        for perm_len in range(2, 7):
            for perm in itertools.permutations(sorted(vertices - {0, 3}), perm_len - 2):
                cand = [0, *perm, 3]
                if all(b in g.adj(a) for a, b in zip(cand, cand[1:])):
                    found.append(cand)
        assert not found


class TestComponentsAvoiding:
    def test_matches_networkx(self):
        rng = rng_from(92)
        for _ in range(300):
            g = random_graph(rng.randint(1, 16), rng.uniform(0.05, 0.4), rng)
            s = set(rng.sample(range(g.n), rng.randint(0, g.n)))
            nxg = to_networkx(g)
            nxg.remove_nodes_from(s)
            expected = sorted(sorted(c) for c in nx.connected_components(nxg))
            assert components_avoiding(g, s) == expected


class TestTextFormat:
    def test_parse_round_trip(self):
        g = petersen()
        assert format_graph(parse_graph(format_graph(g))) == format_graph(g)

    def test_rejects_loop(self):
        with pytest.raises(ParseError):
            parse_graph("2 1\n1 1\n")

    def test_rejects_duplicate(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n0 1\n")

    def test_rejects_out_of_order(self):
        with pytest.raises(ParseError):
            parse_graph("3 1\n1 0\n")

    def test_reports_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_graph("3 2\n0 1\nbad line\n")
        assert err.value.line == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**30))
    def test_round_trip_random(self, n, seed):
        g = random_graph(n, 0.5, rng_from(seed))
        text = format_graph(g)
        back = parse_graph(text)
        assert back.n == g.n and sorted(back.edges()) == sorted(g.edges())


# (text, message, line) of the line-by-line reader, for every kind of bad input
MALFORMED_GRAPHS = [
    ("", "empty input", 1),
    ("3\n", "expected header `n m`", 1),
    ("a b\n", "non-integer header", 1),
    ("-1 0\n", "negative counts in header", 1),
    ("3 1\n1 1\n", "loop edge (1,1)", 2),
    ("3 2\n0 1\n0 1\n", "duplicate edge (0,1)", 3),
    ("4 3\n0 1\n0 2\n0 1\n", "duplicate edge (0,1)", 4),
    ("3 1\n1 0\n", "edge (1,0) violates 0 <= u < v < n", 2),
    ("3 1\n0 3\n", "edge (0,3) violates 0 <= u < v < n", 2),
    ("0 1\n0 1\n", "edge (0,1) violates 0 <= u < v < n", 2),
    ("3 1\n0 1 2\n", "expected `u v`", 2),
    ("3 1\n0\n", "expected `u v`", 2),
    ("3 1\n0 x\n", "non-integer endpoint", 2),
    ("3 1\n0 1\n1 2\n", "header claims 1 edges, found 2", 3),
    ("3 2\n0 1\n", "header claims 2 edges, found 1", 2),
    ("3 2\n0 1", "header claims 2 edges, found 1", 2),
    ("3 2\n0 1\n\n", "header claims 2 edges, found 1", 3),
    ("3 2\r\n0 1\r\n0 1\r\n", "duplicate edge (0,1)", 3),
    ("300 3\n0 299\n5 300\n1 2\n", "edge (5,300) violates 0 <= u < v < n", 3),
    ("3 0\n0 5\n", "edge (0,5) violates 0 <= u < v < n", 2),
    ("3 0\n0 01\n", "header claims 0 edges, found 1", 2),
    # `int` takes `_` digit separators; the readers do not
    ("1_0 0\n", "non-integer header", 1),
    ("11 1\n0 1_0\n", "non-integer endpoint", 2),
]

# texts outside the written form that still parse: (text, n, edges)
LOOSE_GRAPHS = [
    ("3 2\n0 1\n1 2", 3, [(0, 1), (1, 2)]),
    ("3 2\r\n0 1\r\n1 2\r\n", 3, [(0, 1), (1, 2)]),
    ("3 2\n\n0 1\n\n1 2\n\n", 3, [(0, 1), (1, 2)]),
    ("3\t2\n0\t1\n 1  2 \n", 3, [(0, 1), (1, 2)]),
    ("+3 +2\n+0 +1\n1 +2\n", 3, [(0, 1), (1, 2)]),
    ("3 0", 3, []),
    ("03 1\n00 02\n", 3, [(0, 2)]),
    ("3 2\n0 01\n1 2\n", 3, [(0, 1), (1, 2)]),
    ("300 2\n0 0299\n007 8\n", 300, [(0, 299), (7, 8)]),
]


def _same_graph(a: Graph, b: Graph) -> bool:
    return a.n == b.n and a.edge_count == b.edge_count and a.adjacency() == b.adjacency()


def _graph_text(n: int, edges, rng: Random) -> str:
    lines = [f"{u} {v}\n" for u, v in edges]
    rng.shuffle(lines)
    return f"{n} {len(edges)}\n" + "".join(lines)


def _text_over_chunks() -> str:
    """The shuffled written form of a 2,500-vertex host with 15,000 edges,
    which spans several default-size chunks."""
    rng = Random(12)
    n = 2500
    edges = set()
    while len(edges) < 15000:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    text = _graph_text(n, sorted(edges), rng)
    assert len(text) > 2 << 16
    return text


def _late_defects():
    """(text, message, line) with the defect past the first default-size
    chunk: a header, about 88 KB of valid edges, then the bad line(s)."""
    n = 3000
    prefix = [(i, i + d) for d in (1, 2, 3) for i in range(n - d)]
    body = "".join(f"{u} {v}\n" for u, v in prefix)
    assert len(body) > 1 << 16
    m = len(prefix)
    last = m + 2  # the line after the valid edges
    cases = {  # id: (edges the header claims, bad tail, message, line)
        "loop": (m + 1, "7 7\n", "loop edge (7,7)", last),
        "reversed": (m + 1, "9 4\n", "edge (9,4) violates 0 <= u < v < n", last),
        "out-of-range": (m + 1, f"5 {n}\n", f"edge (5,{n}) violates 0 <= u < v < n", last),
        "leading-zero": (m + 1, "0 02\n", "duplicate edge (0,2)", last),
        "duplicate": (m + 1, "0 1\n", "duplicate edge (0,1)", last),
        "crlf": (m + 2, "4 9\r\n1 2\n", "duplicate edge (1,2)", last + 1),
        "token-count": (m + 2, "4 8 9\n20\n", "expected `u v`", last),
        "no-final-newline": (m + 1, "2 2", "loop edge (2,2)", last),
        "header-m-plus-one": (m + 1, "", f"header claims {m + 1} edges, found {m}", last - 1),
        "header-m-minus-one": (m - 1, "", f"header claims {m - 1} edges, found {m}", last - 1),
    }
    return [
        pytest.param(f"{n} {claimed}\n{body}{tail}", message, line, id=key)
        for key, (claimed, tail, message, line) in cases.items()
    ]


class TestBulkParse:
    """parse_graph's bulk passes against Graph(n, edges) and the line reader."""

    def test_well_formed_texts_take_the_bulk_path(self, monkeypatch):
        def line_reader_called(text):
            raise AssertionError(f"line reader used for {text!r}")

        monkeypatch.setattr(graph_module, "_parse_graph_lines", line_reader_called)
        rng = Random(4)
        for _ in range(400):
            n = rng.randint(0, 30)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            expected = Graph(n, edges)
            assert _same_graph(parse_graph(_graph_text(n, edges, rng)), expected)
            assert _same_graph(parse_graph(format_graph(expected)), expected)

    def test_neighbour_sets_share_one_int_per_vertex(self):
        # ids above 256 are not cached by the interpreter, so a set of
        # objects larger than n means one object per edge end; the text
        # spans several default-size chunks, which share one id table
        rng = Random(9)
        n = 600
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, 30000)
        text = _graph_text(n, edges, rng)
        assert len(text) > 3 << 16
        g = parse_graph(text)
        assert _same_graph(g, Graph(n, edges))
        assert len({id(v) for s in g.adjacency() for v in s}) <= g.n
        assert _same_graph(_parse_graph_lines(text), g)

    @staticmethod
    def _large_graphs(seed: int, count: int):
        """(n, edges, text) with n from 300 to 3000, so most ids lie above
        the interpreter's cached small ints, and shuffled written-form text."""
        rng = Random(seed)
        for _ in range(count):
            n = rng.randint(300, 3000)
            edges = set()
            for _ in range(rng.randint(0, 4 * n)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            edges = sorted(edges)
            yield n, edges, _graph_text(n, edges, rng)

    def test_large_well_formed_texts_take_the_bulk_path(self, monkeypatch):
        def line_reader_called(text):
            raise AssertionError("line reader used")

        monkeypatch.setattr(graph_module, "_parse_graph_lines", line_reader_called)
        for n, edges, text in self._large_graphs(6, 8):
            expected = Graph(n, edges)
            assert _same_graph(parse_graph(text), expected)
            assert _same_graph(parse_graph(format_graph(expected)), expected)

    def test_bulk_and_line_readers_iterate_alike(self):
        # equal sets may still iterate in different orders, and the search
        # walks neighbour sets in their iteration order
        texts = [text for _, _, text in self._large_graphs(7, 6)]
        texts.append(_text_over_chunks())
        rng = Random(8)
        for _ in range(200):
            n = rng.randint(0, 40)
            pairs = list(itertools.combinations(range(n), 2))
            texts.append(_graph_text(n, rng.sample(pairs, rng.randint(0, len(pairs))), rng))
        for text in texts:
            bulk = [list(s) for s in parse_graph(text).adjacency()]
            assert bulk == [list(s) for s in _parse_graph_lines(text).adjacency()]

    @pytest.mark.parametrize("text,n,edges", LOOSE_GRAPHS)
    def test_loose_texts_parse_as_before(self, text, n, edges):
        assert _same_graph(parse_graph(text), Graph(n, edges))
        assert _same_graph(_parse_graph_lines(text), Graph(n, edges))

    @pytest.mark.parametrize("text,message,line", MALFORMED_GRAPHS + _late_defects())
    def test_errors_match_the_line_reader(self, text, message, line):
        with pytest.raises(ParseError) as bulk:
            parse_graph(text)
        with pytest.raises(ParseError) as lines:
            _parse_graph_lines(text)
        assert (str(bulk.value), bulk.value.line) == (str(lines.value), lines.value.line)
        assert (str(bulk.value), bulk.value.line) == (f"line {line}: {message}", line)

    def test_random_corruptions_match_the_line_reader(self):
        rng = Random(5)
        for _ in range(600):
            n = rng.randint(1, 8)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            rows = [[u, v] for u, v in edges]
            if rows and rng.random() < 0.5:
                rows.append(list(rng.choice(rows)))  # duplicate
            for row in rows:
                if rng.random() < 0.1:
                    row.reverse()
                if rng.random() < 0.05:
                    row[1] = row[0]
                if rng.random() < 0.05:
                    row[1] = n + rng.randint(0, 2)
            m = len(rows) + rng.choice((0, 0, 0, -1, 1))
            text = f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in rows)
            try:
                expected = _parse_graph_lines(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as bulk:
                    parse_graph(text)
                assert (str(bulk.value), bulk.value.line) == (str(exc), exc.line)
            else:
                assert _same_graph(parse_graph(text), expected)

    def test_non_ascii_digits_go_to_the_line_reader(self):
        # int() reads Arabic-Indic digits, but a str reads as the file of its
        # UTF-8 bytes: the first byte of U+0663 is 0xd9, refused on its line
        text = "\u0663 \u0662\n\u0660 \u0661\n\u0661 \u0662\n"
        for read in (parse_graph, _parse_graph_lines):
            with pytest.raises(ParseError) as exc:
                read(text)
            assert (str(exc.value), exc.value.line) == ("line 1: non-ASCII byte 0xd9", 1)
        with pytest.raises(ParseError) as bulk:
            parse_graph("3 1\n\u0661 \u0661\n")
        assert (str(bulk.value), bulk.value.line) == ("line 2: non-ASCII byte 0xd9", 2)


class TestBulkParseInSmallChunks(TestBulkParse):
    """Every bulk-parse case again, with chunks of a few bytes, so that
    every text crosses many chunk boundaries."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK", 6)


# (file bytes, what read_graph gives: (n, edges) or (ParseError text, line))
GRAPH_FILES = {
    "written-form": (b"4 3\n0 1\n1 2\n2 3\n", (4, [(0, 1), (1, 2), (2, 3)])),
    "crlf": (b"4 3\r\n0 1\r\n1 2\r\n2 3\r\n", (4, [(0, 1), (1, 2), (2, 3)])),
    "lone-cr": (b"4 3\r0 1\r1 2\r2 3\r", (4, [(0, 1), (1, 2), (2, 3)])),
    "mixed-endings": (b"4 3\r\n0 1\n1 2\r2 3\r\n", (4, [(0, 1), (1, 2), (2, 3)])),
    "blank-tab-sign": (b"+4 3\n\n0\t1\n 1 +2 \n\n2 3", (4, [(0, 1), (1, 2), (2, 3)])),
    "id-007": (b"8 2\n0 007\n1 2\n", (8, [(0, 7), (1, 2)])),
    "no-edges": (b"3 0\n", (3, [])),
    "empty": (b"", ("line 1: empty input", 1)),
    "crlf-duplicate": (b"3 2\r\n0 1\r\n0 1\r\n", ("line 3: duplicate edge (0,1)", 3)),
    "lone-cr-reversed": (b"3 1\r1 0\r", ("line 2: edge (1,0) violates 0 <= u < v < n", 2)),
    "non-ascii-line-3": (b"4 3\n0 1\n1 \xc3\xa92\n2 3\n", ("line 3: non-ASCII byte 0xc3", 3)),
    "non-ascii-after-crlf": (b"4 3\r\n0 1\r\n\xff 2\r\n", ("line 3: non-ASCII byte 0xff", 3)),
    "non-ascii-after-cr": (b"4 3\r0 1\r1 2\xff\r", ("line 3: non-ASCII byte 0xff", 3)),
}


class TestReadGraphFile:
    """read_graph reads bytes and gives what a text-mode read did: the same
    adjacency in the same iteration order, or the same error and line."""

    @pytest.mark.parametrize("data,expected", GRAPH_FILES.values(), ids=GRAPH_FILES.keys())
    def test_same_result_as_a_text_mode_read(self, tmp_path, data, expected):
        path = tmp_path / "g.graph"
        path.write_bytes(data)
        got = read_result(read_graph, path)
        if isinstance(expected[0], str):
            assert got == expected
        else:
            n, edges = expected
            assert _same_graph(read_graph(path), Graph(n, edges))
        if data.isascii():
            assert got == read_result(text_mode_read(parse_graph), path)

    def test_crlf_written_form_takes_the_bulk_path(self, tmp_path, monkeypatch):
        def line_reader_called(text):
            raise AssertionError(f"line reader used for {text!r}")

        monkeypatch.setattr(graph_module, "_parse_graph_lines", line_reader_called)
        text = _text_over_chunks()
        path = tmp_path / "g.graph"
        path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        assert [list(s) for s in read_graph(path).adjacency()] == [
            list(s) for s in parse_graph(text).adjacency()
        ]

    def test_a_directory_is_an_os_error_naming_it(self, tmp_path):
        path = tmp_path / "d.graph"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            read_graph(path)
        assert str(path) in str(exc.value)


class TestCollectorPause:
    """Bulk builds run with the cyclic collector paused, and leave it on or
    off as they found it, also when they raise."""

    def test_bulk_read_runs_no_collection(self, gc_state):
        gc.enable()
        text = _text_over_chunks()
        assert collections_during(parse_graph, text) == 0
        # the line reader's own passes run unpaused: the counter counts
        assert collections_during(_parse_graph_lines, text) > 0

    @pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "build,error",
        [
            pytest.param(lambda: parse_graph("3 2\n0 1\n1 2\n"), None, id="bulk-read"),
            pytest.param(lambda: parse_graph("2 1\n0 0\n"), ParseError, id="line-reader-raises"),
            pytest.param(lambda: Graph(3, [(0, 1)]), None, id="constructor"),
            pytest.param(lambda: Graph(3, [(0, 0)]), ValueError, id="constructor-raises"),
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


def _reference_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Plain BFS, one neighbour at a time."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp, queue = [s], deque([s])
        while queue:
            for v in g.adj(queue.popleft()):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def _random_split_graph(rng: Random) -> Graph:
    """Random blocks (some single vertices) on shuffled vertex ids."""
    n = rng.randint(1, 40)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    start = 0
    while start < n:
        size = rng.choice((1, 1, 2, 3, rng.randint(1, n)))
        block = ids[start:start + size]
        p = rng.choice((0.1, 0.3, 0.8))
        edges += [(min(a, b), max(a, b)) for a, b in itertools.combinations(block, 2) if rng.random() < p]
        start += size
    return Graph(n, edges)


class TestComponents:
    def _check(self, g: Graph) -> None:
        assert g.components() == _reference_components(g)

    def test_random_graphs_match_plain_bfs(self):
        rng = Random(6)
        for _ in range(3000):
            self._check(_random_split_graph(rng))

    def test_isolated_vertices_and_empty_graph(self):
        self._check(Graph(0, []))
        self._check(Graph(7, []))
        self._check(Graph(7, [(2, 5)]))
        assert Graph(4, []).components() == ((0,), (1,), (2,), (3,))

    def test_dense_two_block_host(self):
        rng = Random(7)
        ids = list(range(300))
        rng.shuffle(ids)
        blocks = (ids[:180], ids[180:])
        edges = [
            (min(a, b), max(a, b))
            for block in blocks
            for a, b in itertools.combinations(block, 2)
            if rng.random() < 0.9
        ]
        g = Graph(300, edges)
        assert g.components() == tuple(sorted(tuple(sorted(b)) for b in blocks))
        self._check(g)

    def test_minimum_degree_threshold(self):
        # 2 * min_degree >= n - 1 proves a graph connected; random graphs
        # on one or two dense blocks, some with an isolated vertex, put the
        # minimum degree on both sides of that threshold, where the split
        # must find one component above it and may find several below
        for g in (Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]), Graph(3, [(0, 1)])):
            self._check(g)
        rng = Random(9)
        near = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(1, 24)
            ids = list(range(n))
            rng.shuffle(ids)
            cut = rng.choice((0, rng.randint(0, n)))
            p_in, p_out = rng.uniform(0.5, 1.0), rng.choice((0.0, 0.05, 0.3))
            lone = rng.choice(ids) if n > 1 and rng.random() < 0.1 else None
            edges = [
                (min(a, b), max(a, b))
                for i, j in itertools.combinations(range(n), 2)
                for a, b in [(ids[i], ids[j])]
                if lone not in (a, b) and rng.random() < (p_in if (i < cut) == (j < cut) else p_out)
            ]
            g = Graph(n, edges)
            self._check(g)
            if abs(2 * g.min_degree() - (n - 1)) <= 2:
                near[2 * g.min_degree() >= n - 1] += 1
        assert min(near.values()) >= 100, near

    def test_matches_networkx(self):
        # seeded random hosts: split blocks, sparse and dense G(n, p) with
        # isolated vertices, hosts whose minimum degree alone proves them
        # connected (2 * min_degree >= n - 1), and n = 0 and n = 1
        rng = Random(10)
        graphs = [Graph(0, []), Graph(1, []), Graph(5, []), complete(6), cycle(7)]
        graphs += [_random_split_graph(rng) for _ in range(300)]
        graphs += [random_graph(rng.randint(0, 30), rng.choice((0.02, 0.1, 0.3, 0.9)), rng) for _ in range(300)]
        above = 0
        for g in graphs:
            expected = tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(to_networkx(g))))
            assert g.components() == expected
            above += g.n > 0 and 2 * g.min_degree() >= g.n - 1
        assert above >= 20 and any(0 in g.degrees() for g in graphs if g.n > 1)


class TestHostTables:
    """The degree table and the component split: lazy, once per Graph."""

    def test_computed_once(self):
        rng = Random(11)
        for g in (Graph(0, []), Graph(1, []), complete(5), _random_split_graph(rng), random_graph(20, 0.1, rng)):
            first = g.components()
            assert type(first) is tuple and all(type(c) is tuple for c in first)
            assert g.components() is first
            degrees = g.degrees()
            assert type(degrees) is tuple and degrees == tuple(g.degree(v) for v in range(g.n))
            assert g.degrees() is degrees

    def test_every_construction_path_sets_every_slot(self, monkeypatch):
        # an unset slot would raise AttributeError only when its lazy table
        # is first read
        def unset(g: Graph) -> list[str]:
            return [name for name in Graph.__slots__ if not hasattr(g, name)]

        text = "4 3\n0 1\n0 2\n1 2\n"
        graphs = {
            "Graph(n, edges)": Graph(4, [(0, 1), (0, 2), (1, 2)]),
            "line reader": parse_graph(text.replace(" ", "\t")),
            "hardness reduction": generate_hardness_instance(
                ThreePartitionInstance((1, 1, 1), 3), 3.0, strict_bounds=False
            ).graph,
        }
        with monkeypatch.context() as m:
            m.setattr(graph_module, "_parse_graph_lines", None)  # the bulk path alone
            graphs["bulk path"] = parse_graph(text)
        for path, g in graphs.items():
            assert unset(g) == [], path
        for path, g in graphs.items():
            assert g.components() and g.degrees() and g.min_degree() <= g.max_degree(), path


def _reference_is_connected(g: Graph) -> bool:
    """Every vertex reached by a plain BFS from vertex 0."""
    if g.n == 0:
        return True
    seen, queue = {0}, deque([0])
    while queue:
        for v in g.adj(queue.popleft()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


class TestIsConnected:
    def test_small_cases(self):
        assert Graph(0, []).components() == ()
        assert Graph(1, []).components() == ((0,),)
        assert Graph(2, []).components() == ((0,), (1,))
        assert Graph(2, [(0, 1)]).components() == ((0, 1),)
        assert Graph(4, [(0, 1), (1, 2)]).components() == ((0, 1, 2), (3,))  # 3 is isolated
        assert Graph(4, [(1, 2), (2, 3)]).components() == ((0,), (1, 2, 3))  # 0 is isolated
        assert cycle(5).components() == (tuple(range(5)),)
        assert petersen().components() == (tuple(range(10)),)

    def test_random_graphs_match_plain_bfs(self):
        rng = Random(8)
        graphs = [_random_split_graph(rng) for _ in range(1500)]
        graphs += [random_graph(rng.randint(0, 25), rng.choice((0.05, 0.15, 0.4)), rng) for _ in range(1500)]
        connected = 0
        for g in graphs:
            expected = _reference_is_connected(g)
            assert (len(g.components()) <= 1) == expected
            connected += expected
        assert 0 < connected < len(graphs)
