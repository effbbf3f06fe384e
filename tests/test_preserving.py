import math
from fractions import Fraction

import pytest

from helpers import complete, cycle, path_tree
from treefit.embedding import verify
from treefit.errors import PreconditionViolated
from treefit.generate import circulant, random_graph_min_degree
from treefit.graph import Graph
from treefit.paper.lemmas import bfs_distances
from treefit.paper.preserving import (
    PreservingPath,
    anti_dominating_set,
    build_preserving_set,
    embed_via_preserving_path,
    is_k_preserving,
    modulator_to_preserving_path,
    preserving_violator,
    set_to_preserving_path,
    solve_large_diameter,
)
from treefit.seeds import rng_from
from treefit.trees import Tree


def core_fringe_host(n: int, core: int, delta: int, rng) -> Graph:
    """Clique core plus `n-core` fringe vertices of degree exactly delta."""
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    for v in range(core, n):
        for u in rng.sample(range(core), delta):
            edges.append((u, v))
    return Graph(n, edges)


def caterpillar(spine: int, pendants: int) -> Tree:
    """Path plus pendants on distinct inner spine vertices (leaf degree 1)."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(pendants):
        host = 2 + 2 * i
        if host >= spine - 2:
            raise ValueError("not enough spine room")
        edges.append((host, nxt))
        nxt += 1
    return Tree(nxt, edges)


class TestIsPreserving:
    def test_regular_k1_anything(self):
        g = cycle(6)
        assert is_k_preserving(g, set(), 1)
        assert is_k_preserving(g, {0}, 1)

    def test_c6_k2(self):
        g = cycle(6)
        assert is_k_preserving(g, {0, 3}, 2)

    def test_k4_failure(self):
        g = complete(4)
        assert not is_k_preserving(g, {0}, 3)
        assert preserving_violator(g, {0}, 3) == 1


class TestEmbedViaPreservingPath:
    def test_single_vertex_path_k1(self):
        g = cycle(6)
        t = path_tree(3)
        p = PreservingPath((0,), 1)
        out = embed_via_preserving_path(g, t, p, 1)
        assert verify(out, g, t, require_full=True)

    def test_circulant_k2(self):
        g = circulant(20, [1, 2, 3, 4])  # 8-regular
        assert g.min_degree() == 8
        t = path_tree(10)
        p = PreservingPath(tuple(range(5)), 2)
        assert is_k_preserving(g, p.vertices, 2)
        out = embed_via_preserving_path(g, t, p, 2)
        assert verify(out, g, t, require_full=True)

    def test_caterpillar_guest(self):
        g = circulant(20, [1, 2, 3, 4])
        t = caterpillar(10, 0)
        p = PreservingPath(tuple(range(5)), 2)
        out = embed_via_preserving_path(g, t, p, 2)
        assert verify(out, g, t, require_full=True)

    def test_diameter_too_small(self):
        g = circulant(20, [1, 2, 3, 4])
        t = Tree(10, [(0, i) for i in range(1, 10)])  # star, diameter 2
        p = PreservingPath(tuple(range(5)), 2)
        with pytest.raises(PreconditionViolated):
            embed_via_preserving_path(g, t, p, 2)


class TestModulator:
    def test_long_cycle_no_modulator(self):
        g = cycle(30)
        p = modulator_to_preserving_path(g, set(), 3)
        assert is_k_preserving(g, p.vertices, 3)
        assert len(p.vertices) - 1 <= 4 * 3 - 2

    def test_bridged_cliques_disconnected_branch(self):
        # two K_8's bridged by an edge; the bridge endpoint is the modulator
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        edges += [(i, j) for i in range(8, 16) for j in range(i + 1, 16)]
        edges.append((7, 8))
        g = Graph(16, edges)
        p = modulator_to_preserving_path(g, {7}, 2)
        assert is_k_preserving(g, p.vertices, 2)
        assert len(p.vertices) - 1 <= 4 * 2 - 2 + 1

    def test_insertion_of_modulator_vertex(self):
        # C_30 plus an apex over 0..10; k=2 so the degree precondition holds
        edges = [(i, (i + 1) % 30) for i in range(30)]
        edges += [(i, 30) for i in range(11)]
        g = Graph(31, edges)
        p = modulator_to_preserving_path(g, {30}, 2)
        assert is_k_preserving(g, p.vertices, 2)
        assert 30 in p.vertices  # the apex has consecutive neighbors and joins

    def test_redirect_when_host_has_long_paths(self):
        # remainder disconnected but the host itself has diameter >= 2k
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        edges += [(i, j) for i in range(8, 16) for j in range(i + 1, 16)]
        bridge = [(7, 16), (16, 17), (17, 18), (18, 19), (19, 8)]
        g = Graph(20, edges + bridge)
        # removing 17 disconnects; host diameter is 7 >= 2k for k=2
        p = modulator_to_preserving_path(g, {17}, 2)
        assert is_k_preserving(g, p.vertices, 2)

    def test_fuzz(self):
        rng = rng_from(71)
        done = 0
        while done < 500:
            n = rng.randint(16, 40)
            d = rng.randint(1, 3)
            g = circulant(n, list(range(1, d + 1)))
            k = rng.randint(1, 3)
            s_size = rng.randint(0, 2)
            s = set(rng.sample(range(n), s_size))
            if g.min_degree() < len(s) + k - 1:
                continue
            remainder = [v for v in range(n) if v not in s]
            dist_ok = False
            forb = frozenset(s)
            for u in remainder:
                dd = bfs_distances(g, u, forb)
                if any(2 * k <= dd[v] < g.n for v in remainder) or any(
                    dd[v] >= g.n for v in remainder
                ):
                    dist_ok = True
                    break
            if not dist_ok:
                continue
            p = modulator_to_preserving_path(g, s, k)
            assert is_k_preserving(g, p.vertices, k)
            assert len(p.vertices) - 1 <= 4 * k - 2 + len(s)
            done += 1


class TestSetToPath:
    def test_already_a_path(self):
        # with k=1 every set preserves, so a consecutive run comes back as-is
        g = circulant(40, [1, 2])
        s = [0, 1, 2]
        assert is_k_preserving(g, s, 1)
        p = set_to_preserving_path(g, s, 1)
        assert p.vertices == (0, 1, 2)

    def test_concatenated_arcs(self):
        g = circulant(60, [1, 2, 3, 4, 5])
        s = {0, 12, 24}
        assert is_k_preserving(g, s, 2)
        p = set_to_preserving_path(g, s, 2)
        assert set(s) <= set(p.vertices)
        assert is_k_preserving(g, p.vertices, 2)
        assert len(p.vertices) - 1 <= (2 * 2 - 1) * len(s)

    def test_fallback_on_long_hop(self):
        g = circulant(40, [1, 2, 3])
        s = {0, 20}
        assert is_k_preserving(g, s, 2)
        p = set_to_preserving_path(g, s, 2)  # distance 7 > 3 forces fallback
        assert is_k_preserving(g, p.vertices, 2)
        assert len(p.vertices) - 1 <= (2 * 2 - 1) * len(s)

    def test_fuzz(self):
        rng = rng_from(72)
        done = 0
        while done < 500:
            n = rng.randint(24, 60)
            d = rng.randint(2, 4)
            g = circulant(n, list(range(1, d + 1)))
            k = rng.randint(1, 2)
            size = rng.randint(1, 3)
            s = set(rng.sample(range(n), size))
            if not is_k_preserving(g, s, k) or g.min_degree() < (2 * k - 1) * len(s):
                continue
            p = set_to_preserving_path(g, s, k)
            assert is_k_preserving(g, p.vertices, k)
            assert len(p.vertices) - 1 <= (2 * k - 1) * len(s)
            done += 1


class TestAntiDominatingSet:
    def test_no_deficient_vertices(self):
        # fringe-free: every degree well above (1+eps)*delta is impossible,
        # so use a host whose min-degree vertices are still above the line
        g = complete(12)
        with pytest.raises(PreconditionViolated):
            # complete graphs leave no room: n < (1+eps)^2 * delta
            anti_dominating_set(g, Fraction(1, 4))

    def test_cycle_c12(self):
        g = cycle(12)
        eps = 0.4
        s = anti_dominating_set(g, Fraction(2, 5))
        bound = 4 * math.log2(2) / math.log2(1.4) + 1
        assert len(s) < bound
        for v in range(12):
            if v not in s:
                assert s - g.adj(v) - {v}

    def test_random_host(self):
        rng = rng_from(73)
        g = random_graph_min_degree(60, 10, rng, p=0.2)
        eps = Fraction(1, 2)
        s = anti_dominating_set(g, eps)
        delta = g.min_degree()
        threshold = (1 + eps) * delta
        for v in range(g.n):
            if v in s or g.degree(v) >= threshold:
                continue
            assert s - g.adj(v) - {v}, f"uncovered low-degree vertex {v}"
        assert len(s) < 4 * math.log2(delta) / math.log2(1.5) + 1

    def test_fuzz(self):
        rng = rng_from(74)
        done = 0
        while done < 500:
            n = rng.randint(20, 70)
            delta = rng.randint(4, 10)
            g = random_graph_min_degree(n, delta, rng, p=rng.uniform(0.1, 0.35))
            eps = rng.choice(
                [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)]
            )
            delta_actual = g.min_degree()
            if n < (1 + eps) ** 2 * delta_actual + 2:
                continue
            if float(eps) * delta_actual < 2:
                continue
            s = anti_dominating_set(g, eps)
            threshold = (1 + eps) * delta_actual
            for v in range(g.n):
                if v in s or g.degree(v) >= threshold:
                    continue
                assert s - g.adj(v) - {v}
            assert len(s) < 4 * math.log2(delta_actual) / math.log2(float(1 + eps)) + 1
            done += 1


class TestBuildPreservingSet:
    def test_k1_empty(self):
        g = circulant(30, [1, 2])
        assert build_preserving_set(g, 1, 1, enforce=False) == set()

    def test_core_fringe_literal(self):
        rng = rng_from(75)
        delta = 448
        n = 1280
        g = core_fringe_host(n, n - 20, delta, rng)
        s = build_preserving_set(g, 2, 1)
        q = 4 * 2 * math.log2(g.min_degree())
        assert len(s) <= q * 2
        assert is_k_preserving(g, s, 2)

    def test_precondition_failure(self):
        g = circulant(30, [1, 2])
        with pytest.raises(PreconditionViolated):
            build_preserving_set(g, 2, 1)

    def test_fuzz(self):
        rng = rng_from(76)
        hosts = []
        for _ in range(5):
            delta = rng.randint(440, 452)
            n = rng.randint(1310, 1350)
            hosts.append((core_fringe_host(n, n - rng.randint(12, 24), delta, rng)))
        done = 0
        while done < 500:
            g = hosts[done % len(hosts)]
            s = build_preserving_set(g, 2, 1)
            q = 4 * 2 * math.log2(g.min_degree())
            assert len(s) <= q * 2
            assert is_k_preserving(g, s, 2)
            done += 1


class TestSolveLargeDiameter:
    def test_relaxed_pipeline(self):
        rng = rng_from(77)
        delta = 40
        g = core_fringe_host(200, 180, delta, rng)
        assert g.min_degree() == 40
        t = caterpillar(38, 2)  # 40 vertices <= delta + 2
        out = solve_large_diameter(g, t, 2, p=1, enforce=False)
        assert verify(out, g, t, require_full=True)

    def test_strict_preconditions(self):
        g = circulant(30, [1, 2])
        with pytest.raises(PreconditionViolated):
            solve_large_diameter(g, path_tree(7), 3)
