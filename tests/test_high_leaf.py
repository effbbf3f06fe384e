import pytest

from helpers import complete, cycle, petersen, star_tree
from treefit.embedding import verify
from treefit.errors import PreconditionViolated
from treefit.generate import random_graph
from treefit.graph import Graph
from treefit.outcome import Contains, NotContained
from treefit.paper.high_leaf import (
    _embed_dense_close_pair,
    _embed_dense_far_pair,
    build_expanding_walk,
    embed_high_leaf_degree_unconditional,
    expanding_vertices,
    solve_high_leaf_degree,
)
from treefit.paper.lemmas import HypothesisNotMet, leaf_degree
from treefit.pipeline import brute_force_contains
from treefit.seeds import rng_from
from treefit.trees import Tree


def two_cluster_host(m: int, pairs: int, cross: int = 1) -> Graph:
    """Two K_m cliques with `cross` edges per matched vertex; degrees evened
    out by deleting internal edges inside each matched block, keeping the
    host regular of degree m-1."""
    if cross not in (1, 2) or (cross == 1 and pairs % 2):
        raise ValueError("cross must be 1 (even pairs) or 2")
    edges = set()
    for base in (0, m):
        for i in range(base, base + m):
            for j in range(i + 1, base + m):
                edges.add((i, j))
    for i in range(pairs):
        for c in range(cross):
            edges.add((i, m + (i + c) % pairs))
    for base in (0, m):
        if cross == 1:
            for i in range(base, base + pairs - 1, 2):
                edges.discard((i, i + 1))
        else:
            for i in range(pairs):
                a = base + i
                b = base + (i + 1) % pairs
                edges.discard((min(a, b), max(a, b)))
    return Graph(2 * m, sorted(edges))


def star_with_tail(n: int, leaf_count: int, tail_len: int) -> Tree:
    """Vertex 0 with pendant leaves and a long tail; filler hangs off an
    inner tail vertex as length-2 chains so vertex 0 stays the (lowest)
    maximum-leaf-degree witness."""
    edges = [(0, i) for i in range(1, leaf_count + 1)]
    prev, nxt = 0, leaf_count + 1
    for _ in range(tail_len):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    anchor = leaf_count + 2  # inner tail vertex collects the filler
    while nxt < n:
        if nxt + 1 < n:
            edges.extend([(anchor, nxt), (nxt, nxt + 1)])
            nxt += 2
        else:
            edges.append((anchor, nxt))
            nxt += 1
    return Tree(n, edges)


class TestExpandingWalk:
    def test_two_cluster_walk(self):
        k = 3
        g = two_cluster_host(14, 12, cross=2)
        # unmatched vertex 12 keeps its full clique: 12 expanding neighbors
        assert len(expanding_vertices(g, 12, k)) >= 3 * k
        walk = build_expanding_walk(g, 12, 3 * k, k)
        assert walk[0] == 12
        assert len(set(walk)) == len(walk)
        for a, b in zip(walk, walk[1:]):
            assert b in g.adj(a)
        closed = g.adj(12) | {12}
        outside = [w for w in walk if w not in closed]
        assert len(outside) >= k - 1
        # rule structure: every expanding step is followed by an outer vertex
        expanding = expanding_vertices(g, 12, k)
        for cur, nxt in zip(walk, walk[1:]):
            if cur in expanding:
                assert nxt not in closed
        if len(walk) == 3 * k + 1:
            assert len(outside) >= -(-(len(walk) - 1) // 3)

    def test_complete_graph_rejected(self):
        with pytest.raises(HypothesisNotMet):
            build_expanding_walk(complete(10), 0, 6, 2)

    def test_random_planted_expander(self):
        rng = rng_from(61)
        k = 3
        for _ in range(10):
            g = two_cluster_host(rng.randint(13, 16), 12, cross=2)
            v = 12  # unmatched, even degree
            walk = build_expanding_walk(g, v, 3 * k, k)
            closed = g.adj(v) | {v}
            assert sum(1 for w in walk if w not in closed) >= k - 1


class TestUnconditionalEmbedding:
    def test_case_a_high_degree_vertex(self):
        # K_14 minus a perfect matching on vertices 2..13: those drop to
        # degree 12, vertices 0 and 1 keep 13 = min_degree + k - 1 for k=2
        edges = [(i, j) for i in range(14) for j in range(i + 1, 14)]
        removed = {(i, i + 1) for i in range(2, 14, 2)}
        g = Graph(14, [e for e in edges if e not in removed])
        assert g.min_degree() == 12 and g.max_degree() == 13
        t = star_with_tail(14, 1, 6)
        out = embed_high_leaf_degree_unconditional(g, t, 0, 2, min_delta=12)
        assert verify(out, g, t, require_full=True)

    def test_case_b_expanding_walk(self):
        k = 2
        g = two_cluster_host(24, 12)
        assert g.min_degree() == 23
        t = star_with_tail(25, k - 1, 3 * k)
        out = embed_high_leaf_degree_unconditional(g, t, 0, k, min_delta=23)
        assert verify(out, g, t, require_full=True)

    def test_case_b_literal_thresholds(self):
        # k=2 with the literal bound min_degree >= 11k^2 = 44
        k = 2
        g = two_cluster_host(45, 12)
        assert g.min_degree() == 44
        t = star_with_tail(46, k - 1, 3 * k)
        out = embed_high_leaf_degree_unconditional(g, t, 0, k)
        assert verify(out, g, t, require_full=True)

    def test_no_long_path_rejected(self):
        g = two_cluster_host(24, 12)
        t = star_tree(24)  # no path of length 6 from the center
        with pytest.raises(PreconditionViolated):
            embed_high_leaf_degree_unconditional(g, t, 0, 2, min_delta=23)


class TestDenseHelpers:
    def test_far_pair_helper(self):
        # clique A - connector a - connector b - clique B, distance 3 pairs
        m = 12
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        edges += [(i, j) for i in range(m, 2 * m) for j in range(i + 1, 2 * m)]
        a, b = 2 * m, 2 * m + 1
        edges += [(i, a) for i in range(m)]
        edges += [(i, b) for i in range(m, 2 * m)]
        edges.append((a, b))
        g = Graph(2 * m + 2, edges)
        k = 3
        prefix = list(range(k + 1))
        t = star_with_tail(g.min_degree() + k, k - 1, 3 * k)
        emb = _embed_dense_far_pair(g, t, k, prefix)
        assert emb is not None
        u0 = emb.mapping[prefix[0]]
        outside = [
            gv for tv, gv in emb.mapping.items() if gv not in (g.adj(u0) | {u0})
        ]
        assert len(outside) >= k - 1

    def test_close_pair_helper(self):
        # core K_8 joined to two triangles A and B with a partial matching
        c, a = 8, 3
        edges = [(i, j) for i in range(c) for j in range(i + 1, c)]
        A = list(range(c, c + a))
        B = list(range(c + a, c + 2 * a))
        for block in (A, B):
            edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1 :]]
            edges += [(u, v) for u in range(c) for v in block]
        edges.append((A[0], B[0]))  # partial matching of one edge
        g = Graph(c + 2 * a, edges)
        k = 3
        prefix = list(range(k + 1))
        t = star_with_tail(g.min_degree() + k, k - 1, 3 * k)
        emb = _embed_dense_close_pair(g, t, k, prefix)
        assert emb is not None
        v0 = emb.mapping[prefix[0]]
        outside = [
            gv for tv, gv in emb.mapping.items() if gv not in (g.adj(v0) | {v0})
        ]
        assert len(outside) >= k - 1


class TestSolveHighLeafDegree:
    def test_petersen_star_exact(self):
        out = solve_high_leaf_degree(petersen(), star_tree(4), 2, 10, rng_from(1))
        assert isinstance(out, NotContained)

    def test_anchored_branch_no(self):
        # C_8 with K_{1,3}: no vertex has degree 3, anchored search is exact
        g = cycle(8)
        t = star_tree(3)
        out = solve_high_leaf_degree(
            g, t, 2, 10, rng_from(2), min_delta=2, path_length=6
        )
        assert isinstance(out, NotContained)
        assert isinstance(brute_force_contains(g, t), NotContained)

    def test_anchored_branch_yes(self):
        # wheel on 7: hub has degree 6, rim min degree 3, k=2 guest K_{1,4}
        g = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)])
        t = star_tree(4)
        out = solve_high_leaf_degree(
            g, t, 2, 10, rng_from(3), min_delta=3, path_length=6
        )
        assert isinstance(out, Contains)
        assert verify(out.embedding, g, t, require_full=True)

    def test_walk_branch(self):
        k = 2
        g = two_cluster_host(24, 12)
        t = star_with_tail(25, k - 1, 3 * k)
        out = solve_high_leaf_degree(g, t, k, 10, rng_from(4), min_delta=23)
        assert isinstance(out, Contains)
        assert out.branch == "high-leaf-walk"

    def test_oracle_sweep(self):
        rng = rng_from(62)
        checked = 0
        for trial in range(2000):
            if checked >= 300:
                break
            n = rng.randint(3, 12)
            g = random_graph(n, rng.uniform(0.25, 0.85), rng)
            if g.n < 2:
                continue
            delta = g.min_degree()
            k = rng.randint(2, 3)
            size = delta + k
            if size < 2 or size > n:
                continue
            from treefit.generate import random_tree

            t = random_tree(size, rng)
            if leaf_degree(t)[0] < k - 1:
                continue
            checked += 1
            out = solve_high_leaf_degree(g, t, k, 10, rng_from(62, trial))
            oracle = brute_force_contains(g, t)
            if isinstance(out, Contains):
                assert isinstance(oracle, Contains)
                assert verify(out.embedding, g, t, require_full=True)
            elif isinstance(out, NotContained):
                assert isinstance(oracle, NotContained)
            else:
                assert isinstance(oracle, NotContained)
        assert checked >= 300
