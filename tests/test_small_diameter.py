import pytest

from helpers import path_tree, spider, star_tree
from treefit.embedding import verify
from treefit.errors import PreconditionViolated
from treefit.graph import Graph
from treefit.outcome import Contains, NotContained, NotFound
from treefit.paper.small_diameter import (
    build_w_candidates,
    enumerate_multi_leaf_params,
    params_of_witness,
    solve_small_diameter,
    solve_with_leaf_anchor,
)
from treefit.pipeline import brute_force_contains
from treefit.seeds import rng_from
from treefit.trees import Tree


def complete_minus_matching(n: int) -> Graph:
    """K_n minus a perfect matching: regular, and every vertex's closed
    neighborhood misses exactly its partner, so no 2-escape vertex exists."""
    assert n % 2 == 0
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (i % 2 == 0 and j == i + 1)
    ]
    return Graph(n, edges)


class TestBuildWCandidates:
    def test_star_degenerate(self):
        t = star_tree(5)
        cands = build_w_candidates(t, 3, 1, separable_q=99)
        assert cands.w_set == frozenset()

    def test_spider_representatives(self):
        t = spider(6, 2)
        cands = build_w_candidates(t, 3, 1, separable_q=3)
        # one class of 2-vertex legs, two representatives, mid-leg vertices
        assert len(cands.w_set) == 2
        assert all(t.degree(v) == 2 for v in cands.w_set)

    def test_two_shapes(self):
        # three legs of length 2 and three of length 3 off one hub
        edges = []
        nxt = 1
        for length in (2, 2, 2, 3, 3, 3):
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        t = Tree(nxt, edges)
        cands = build_w_candidates(t, 3, 1, separable_q=4)
        assert len(cands.representatives) == 2
        assert all(len(r) == 2 for r in cands.representatives)


class TestParamEnumeration:
    def test_witness_params_are_enumerated(self):
        rng = rng_from(91)
        g = complete_minus_matching(10)
        t = path_tree(10)
        # plant: the identity-ish embedding along 0,2,4,...; find any real one
        out = brute_force_contains(g, t)
        assert isinstance(out, Contains)
        witness = out.embedding
        k = t.n - g.min_degree()
        anchors = [min(t.adj(leaf)) for leaf in t.leaves()[: k - 1]]
        images = [witness.mapping[a] for a in anchors]
        trunk_image = set(witness.mapping.values()) - {
            witness.mapping[leaf] for leaf in t.leaves()[: k - 1]
        }
        target = params_of_witness(g, images, k, trunk_image)
        assert target in set(enumerate_multi_leaf_params(g, images, k))


class TestSolveWithLeafAnchor:
    def test_planted_yes(self):
        g = complete_minus_matching(10)
        t = path_tree(10)
        k = t.n - g.min_degree()
        assert k == 2
        out = solve_with_leaf_anchor(g, t, {1: 0}, k, 10, rng_from(92))
        assert isinstance(out, Contains)
        assert out.embedding.mapping[1] == 0
        assert verify(out.embedding, g, t, require_full=True)

    def test_impossible_anchor_exact_no(self):
        # C_6 hosts no K_{1,3}; the anchored solver sees it exactly
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        t = star_tree(3)
        out = solve_with_leaf_anchor(g, t, {0: 0}, 2, 10, rng_from(93))
        assert isinstance(out, NotContained)
        assert isinstance(brute_force_contains(g, t), NotContained)

    def test_k1_degenerates_to_greedy(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        t = path_tree(3)
        out = solve_with_leaf_anchor(g, t, {}, 1, 10, rng_from(94))
        assert isinstance(out, Contains)

    def test_every_anchor_image_works_on_symmetric_host(self):
        g = complete_minus_matching(10)
        t = path_tree(10)
        for image in range(4):
            out = solve_with_leaf_anchor(g, t, {1: image}, 2, 10, rng_from(95, image))
            assert isinstance(out, Contains)
            assert out.embedding.mapping[1] == image


class TestSolveSmallDiameter:
    def test_preconditions_checked(self):
        g = complete_minus_matching(10)
        with pytest.raises(PreconditionViolated):
            # escape vertices present in a plain cycle
            cyc = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
            solve_small_diameter(cyc, path_tree(4), 2, 1, 5, rng_from(96), min_delta=2)
        with pytest.raises(PreconditionViolated):
            # leaf degree too big
            solve_small_diameter(
                g, star_tree(9), 9 - g.min_degree() + 1, 1, 5, rng_from(96)
            )

    def test_planted_instance_found_quickly(self):
        g = complete_minus_matching(10)
        t = path_tree(10)
        k = 2
        found = 0
        runs = 30
        for run in range(runs):
            out = solve_small_diameter(
                g,
                t,
                k,
                1,
                5,
                rng_from(97, run),
                min_delta=8,
                escape_q=2,
                separable_q=t.n + 1,
                round_budget=2 * k ** 3,  # one nominal success window
            )
            if isinstance(out, Contains):
                assert verify(out.embedding, g, t, require_full=True)
                found += 1
        assert found >= runs / 2

    def test_not_found_metadata_on_zero_budget(self):
        g = complete_minus_matching(10)
        t = path_tree(10)
        out = solve_small_diameter(
            g, t, 2, 1, 5, rng_from(98),
            min_delta=8, escape_q=2, separable_q=t.n + 1, round_budget=0,
        )
        assert isinstance(out, NotFound)
        assert out.rounds == 0
