import pytest

from helpers import path_tree
from treefit.embedding import PartialEmbedding, verify
from treefit.errors import PreconditionViolated
from treefit.generate import circulant
from treefit.graph import Graph
from treefit.paper.lemmas import tree_diameter
from treefit.paper.medium import (
    embed_or_separator,
    embed_via_escape,
    embed_via_trivial_paths,
    embed_with_separator,
    solve_medium,
)
from treefit.trees import Tree


def clique(edges, lo, hi):
    edges.extend((i, j) for i in range(lo, hi) for j in range(i + 1, hi))


def bridge_host(block: int) -> Graph:
    """Two K_block cliques D1, D2 joined only through a K_3 bridge {0,1,2}
    that is adjacent to everything; the greedy spine swallows the bridge."""
    edges = [(0, 1), (0, 2), (1, 2)]
    d1 = range(3, 3 + block)
    d2 = range(3 + block, 3 + 2 * block)
    clique(edges, 3, 3 + block)
    clique(edges, 3 + block, 3 + 2 * block)
    for b in (0, 1, 2):
        edges.extend((b, v) for v in d1)
        edges.extend((b, v) for v in d2)
    return Graph(3 + 2 * block, edges)


def spider_with_tail(legs: int, leg_len: int, tail: int, n: int) -> Tree:
    """Hub with `legs` legs plus one long tail, padded to n via the tail."""
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    prev = 0
    while nxt < n:
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    return Tree(n, edges)


def bushy_split_tree(n: int, legs: int) -> Tree:
    """Hub with `legs` length-2 legs plus a path of the remaining vertices:
    max degree legs+1, leaf degree 1, split at the hub-path edge."""
    edges = []
    nxt = 1
    for _ in range(legs):
        edges.extend([(0, nxt), (nxt, nxt + 1)])
        nxt += 2
    prev = 0
    while nxt < n:
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    return Tree(n, edges)


class TestTrivialPaths:
    def test_circulant_long_path(self):
        g = circulant(70, list(range(1, 21)))  # 40-regular
        assert g.min_degree() == 40
        t = path_tree(43)
        out = embed_via_trivial_paths(g, t, 3, min_delta=40, min_diam=10)
        assert verify(out, g, t, require_full=True)

    def test_caterpillar_guest(self):
        g = circulant(70, list(range(1, 21)))
        # path with two extra leaves deep inside: still diameter-heavy
        edges = [(i, i + 1) for i in range(40)]
        edges += [(10, 41), (30, 42)]
        t = Tree(43, edges)
        out = embed_via_trivial_paths(g, t, 3, min_delta=40, min_diam=10)
        assert verify(out, g, t, require_full=True)

    def test_bottleneck_diverts_to_preserving_path(self):
        g = bridge_host(40)
        assert g.min_degree() == 42
        t = path_tree(45)
        out = embed_via_trivial_paths(g, t, 3, min_delta=42, min_diam=10)
        assert verify(out, g, t, require_full=True)

    def test_preconditions(self):
        g = circulant(70, list(range(1, 21)))
        with pytest.raises(PreconditionViolated):
            embed_via_trivial_paths(g, path_tree(43), 3)  # literal thresholds


class TestEscape:
    @staticmethod
    def escape_host(m: int, cross: int) -> Graph:
        """Two K_m cliques plus a matching of size `cross`: matched pairs
        certify escape via the matching, and degrees stay near-regular."""
        edges = []
        clique(edges, 0, m)
        clique(edges, m, 2 * m)
        edges.extend((i, m + i) for i in range(cross))
        return Graph(2 * m, edges)

    def test_spider_guest(self):
        g = self.escape_host(10, 6)
        assert g.min_degree() == 9
        t = spider_with_tail(5, 2, 0, 11)  # hub degree 5 >= k^2 = 4
        out = embed_via_escape(g, t, 2, q=5)
        assert verify(out, g, t, require_full=True)

    def test_matching_based_escape(self):
        g = self.escape_host(10, 6)
        # degree-based escape needs deg >= min_degree + q; here max degree is
        # min_degree+1, so any q >= 2 escape certificate is matching-based
        assert g.max_degree() == g.min_degree() + 1
        t = spider_with_tail(5, 2, 0, 11)
        out = embed_via_escape(g, t, 2, q=4)
        assert verify(out, g, t, require_full=True)

    def test_no_escape_vertex_rejected(self):
        g = self.escape_host(10, 6)
        with pytest.raises(PreconditionViolated):
            embed_via_escape(g, spider_with_tail(5, 2, 0, 11), 2, q=8)


class TestEmbedOrSeparator:
    @staticmethod
    def feeler_tree(n: int, branches: int = 7) -> Tree:
        """Path spine with `branches` pendant 3-chains on its low end: the
        chain roots are height-2 subtrees (rooted at 0), max degree 3,
        leaf degree 1."""
        spine_len = n - 3 * branches
        assert spine_len > branches
        edges = [(i, i + 1) for i in range(spine_len - 1)]
        nxt = spine_len
        for i in range(branches):
            a, b, c = nxt, nxt + 1, nxt + 2
            edges.extend([(i, a), (a, b), (b, c)])
            nxt += 3
        return Tree(n, edges)

    def test_expansion_succeeds_on_circulant(self):
        g = circulant(60, list(range(1, 16)))  # 30-regular
        t = self.feeler_tree(33)
        assert max(t.degree(v) for v in range(t.n)) < 9
        out = embed_or_separator(g, t, 3, min_delta=30)
        assert isinstance(out, PartialEmbedding)
        assert verify(out, g, t, require_full=True)

    @staticmethod
    def apex_host() -> Graph:
        """Apex vertex 0 over two disjoint K_30 cliques.  The greedy spine
        seeds on the apex and then sinks into the first clique, whose
        closed-off neighborhood blocks every feeler."""
        edges = []
        clique(edges, 1, 31)     # B
        clique(edges, 31, 61)    # A
        edges.extend((0, v) for v in range(1, 61))
        return Graph(61, edges)

    def test_bottleneck_returns_separator(self):
        g = self.apex_host()
        assert g.min_degree() == 30
        t = self.feeler_tree(33)
        out = embed_or_separator(g, t, 3, min_delta=30)
        assert isinstance(out, set)
        rest = set(range(g.n)) - out
        comp = {min(rest)}
        stack = [min(rest)]
        while stack:
            u = stack.pop()
            for v in g.adj(u):
                if v in rest and v not in comp:
                    comp.add(v)
                    stack.append(v)
        assert len(comp) < len(rest)
        diam_t = tree_diameter(t)
        assert len(out) <= 2 * 3 * 2 * (diam_t + 2)


class TestEmbedWithSeparator:
    def test_barbell_broom(self):
        edges = []
        clique(edges, 0, 35)
        clique(edges, 34, 69)  # share vertex 34
        g = Graph(69, edges)
        assert g.min_degree() == 34
        t = bushy_split_tree(36, 4)
        out = embed_with_separator(g, t, 2, {34})
        assert verify(out, g, t, require_full=True)

    def test_unseparable_guest_rejected(self):
        edges = []
        clique(edges, 0, 35)
        clique(edges, 34, 69)
        g = Graph(69, edges)
        star = Tree(36, [(0, i) for i in range(1, 36)])
        with pytest.raises(PreconditionViolated):
            embed_with_separator(g, star, 2, {34}, enforce=False)

    def test_separator_minimalized(self):
        edges = []
        clique(edges, 0, 35)
        clique(edges, 34, 69)
        g = Graph(69, edges)
        t = bushy_split_tree(36, 4)
        # a bloated separator shrinks to the cut vertex and still works
        out = embed_with_separator(g, t, 2, {34, 2, 40}, enforce=False)
        assert verify(out, g, t, require_full=True)


class TestSolveMediumDispatch:
    def test_long_diameter_branch(self):
        g = circulant(70, list(range(1, 21)))
        t = path_tree(43)
        out = solve_medium(
            g, t, 3,
            diam_branch=20, escape_q=50, separable_q=99, enforce=False,
        )
        assert verify(out, g, t, require_full=True)

    def test_small_max_degree_separator_handoff(self):
        g = TestEmbedOrSeparator.apex_host()
        t = TestEmbedOrSeparator.feeler_tree(33)
        out = solve_medium(
            g, t, 3,
            diam_branch=99, escape_q=40, separable_q=4, enforce=False,
        )
        assert verify(out, g, t, require_full=True)

    def test_escape_branch(self):
        g = TestEscape.escape_host(10, 6)
        t = spider_with_tail(5, 2, 0, 11)
        out = solve_medium(
            g, t, 2,
            diam_branch=99, escape_q=5, separable_q=99, enforce=False,
        )
        assert verify(out, g, t, require_full=True)

    def test_separable_branch_via_nonescape_separator(self):
        edges = []
        clique(edges, 0, 31)
        clique(edges, 30, 61)  # share vertex 30
        g = Graph(61, edges)
        assert g.min_degree() == 30
        t = bushy_split_tree(33, 9)  # max degree 10 >= k^2, split 19/14
        assert max(t.degree(v) for v in range(t.n)) >= 9
        out = solve_medium(
            g, t, 3,
            diam_branch=99, escape_q=31, separable_q=12, enforce=False,
        )
        assert verify(out, g, t, require_full=True)

    def test_no_branch_applies(self):
        g = circulant(70, list(range(1, 21)))
        # big hub degree (skips the feeler branch), short diameter, no
        # separable split at the threshold, and no 50-escape vertices
        t = spider_with_tail(9, 2, 0, 43)
        assert max(t.degree(v) for v in range(t.n)) >= 9
        with pytest.raises(PreconditionViolated):
            solve_medium(
                g, t, 3,
                diam_branch=99, escape_q=50, separable_q=99, enforce=False,
            )
