import pytest

from helpers import (
    complete,
    cycle,
    path_tree,
    petersen,
    random_connected_subtree,
    random_embedding,
    star_tree,
)
from treefit.embedding import PartialEmbedding, format_certificate, parse_certificate, verify
from treefit.errors import PreconditionViolated
from treefit.generate import random_connected_graph, random_tree
from treefit.graph import Graph
from treefit.outcome import Contains, NotContained
from treefit.paper.lemmas import (
    HypothesisNotMet,
    chvatal_extend,
    complete_leaves,
    neighbor_deficiency,
    solve_delta_plus_two,
)
from treefit.pipeline import brute_force_contains
from treefit.seeds import rng_from
from treefit.trees import Tree


class TestVerify:
    def test_valid_path_into_cycle(self):
        e = PartialEmbedding({0: 0, 1: 1, 2: 2})
        assert verify(e, cycle(6), path_tree(3))

    def test_edge_violation(self):
        e = PartialEmbedding({0: 0, 1: 2, 2: 4})
        assert not verify(e, cycle(6), path_tree(3))

    def test_non_injective(self):
        e = PartialEmbedding({0: 0, 1: 1, 2: 1})
        assert not verify(e, complete(4), path_tree(3))

    def test_disconnected_domain(self):
        e = PartialEmbedding({0: 0, 2: 2})
        assert not verify(e, cycle(6), path_tree(3))


class TestChvatalExtend:
    def test_path_into_cycle(self):
        g = cycle(6)
        t = path_tree(3)
        out = chvatal_extend(g, t, PartialEmbedding({0: 0}))
        assert verify(out, g, t, require_full=True)
        assert out.mapping[0] == 0

    def test_complete_host(self):
        g = complete(5)
        t = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        out = chvatal_extend(g, t, PartialEmbedding({1: 3}))
        assert verify(out, g, t, require_full=True)
        assert out.mapping[1] == 3

    def test_size_precondition(self):
        with pytest.raises(PreconditionViolated):
            chvatal_extend(cycle(6), path_tree(4), PartialEmbedding({}))

    def test_extends_pointwise(self):
        rng = rng_from(31)
        for _ in range(50):
            g = random_connected_graph(rng.randint(4, 11), 0.5, rng)
            delta = g.min_degree()
            size = rng.randint(1, min(delta + 1, g.n))
            t = random_tree(size, rng)
            dom = random_connected_subtree(t, rng.randint(1, size), rng)
            partial_map = random_embedding(g, t, rng, dom)
            assert partial_map is not None
            partial = PartialEmbedding(partial_map)
            out = chvatal_extend(g, t, partial)
            assert verify(out, g, t, require_full=True)
            for tv, gv in partial.mapping.items():
                assert out.mapping[tv] == gv

    def test_random_never_fails_and_oracle_agrees(self):
        rng = rng_from(32)
        for trial in range(200):
            g = random_connected_graph(rng.randint(3, 10), 0.6, rng)
            delta = g.min_degree()
            size = rng.randint(1, min(delta + 1, g.n))
            t = random_tree(size, rng)
            out = chvatal_extend(g, t, PartialEmbedding({}))
            assert verify(out, g, t, require_full=True)
            if trial % 10 == 0:
                assert isinstance(brute_force_contains(g, t), Contains)


class TestSolveDeltaPlusTwo:
    def test_petersen_star_exception(self):
        out = solve_delta_plus_two(petersen(), star_tree(4))
        assert isinstance(out, NotContained)

    def test_cycle_path(self):
        out = solve_delta_plus_two(cycle(6), path_tree(4))
        assert isinstance(out, Contains)
        assert verify(out.embedding, cycle(6), path_tree(4), require_full=True)

    def test_chorded_cycle_star(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        out = solve_delta_plus_two(g, star_tree(3))
        assert isinstance(out, Contains)
        assert isinstance(brute_force_contains(g, star_tree(3)), Contains)

    def test_size_precondition(self):
        with pytest.raises(PreconditionViolated):
            solve_delta_plus_two(cycle(6), path_tree(5))


class TestCompleteLeaves:
    def test_cycle_far_anchor(self):
        # map a 3-vertex path across C_6 so the anchor's image saves a
        # non-neighbor, then finish the 4th vertex as a leaf
        g = cycle(6)
        t = path_tree(4)
        partial = PartialEmbedding({1: 1, 2: 2, 3: 3})
        # anchor of leaf 0 is vertex 1, image 1; image 3 is not adjacent to 1
        out = complete_leaves(g, t, [0], partial)
        assert verify(out, g, t, require_full=True)
        assert isinstance(brute_force_contains(g, t), Contains)

    def test_zero_deficiency_trivial(self):
        # wheel: rim C_6 + hub 6; min degree 3, so k=2 for a 5-vertex guest;
        # the hub has zero deficiency, so an anchor there needs no savings
        g = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)])
        t = path_tree(5)
        with pytest.raises(PreconditionViolated):
            # k = 2 needs exactly one chosen leaf
            complete_leaves(g, t, [], PartialEmbedding({1: 6}))
        partial = PartialEmbedding({1: 6, 2: 0, 3: 1, 4: 2})
        out = complete_leaves(g, t, [0], partial)
        assert verify(out, g, t, require_full=True)

    def test_hypothesis_rejected(self):
        # C_6 with k=2: anchor image with zero saved non-neighbors
        g = cycle(6)
        t = path_tree(4)
        partial = PartialEmbedding({1: 1, 2: 2, 3: 3})
        # re-anchor the leaf at vertex 3 whose image 3 sees image 2 only;
        # saved non-neighbors of image 3 within {1,2,3} is exactly 1 >= ndef=1,
        # so instead break it by shrinking the partial
        bad = PartialEmbedding({1: 1, 2: 2})
        with pytest.raises(HypothesisNotMet):
            complete_leaves(g, t, [0], bad)

    def test_leaf_images_distinct_and_fresh(self):
        rng = rng_from(33)
        for _ in range(60):
            g = random_connected_graph(rng.randint(5, 11), 0.7, rng)
            delta = g.min_degree()
            k = rng.randint(1, 3)
            n_t = delta + k
            if n_t > g.n or n_t < 2 or (n_t == 3 and False):
                continue
            try:
                t = random_tree(n_t, rng)
            except Exception:
                continue
            leaves = t.leaves()
            if len(leaves) < k - 1:
                continue
            chosen = leaves[: k - 1]
            anchors = {min(t.adj(x)) for x in chosen}
            trunk = sorted(set(range(t.n)) - set(chosen))
            partial_map = random_embedding(g, t, rng, set(trunk))
            if partial_map is None:
                continue
            partial = PartialEmbedding(partial_map)
            ok = all(
                len(partial.image - g.closed_adj(partial.mapping[w]))
                >= neighbor_deficiency(g, partial.mapping[w], k)
                for w in anchors
            )
            if not ok:
                continue
            out = complete_leaves(g, t, chosen, partial)
            assert verify(out, g, t, require_full=True)
            for tv in trunk:
                assert out.mapping[tv] == partial.mapping[tv]
            leaf_images = [out.mapping[x] for x in chosen]
            assert len(set(leaf_images)) == len(leaf_images)
            assert not set(leaf_images) & set(partial.image)


class TestCertificateFormat:
    def test_round_trip(self):
        e = PartialEmbedding({2: 5, 0: 1, 1: 3})
        text = format_certificate(e)
        assert text == "0 1\n1 3\n2 5\n"
        assert parse_certificate(text).mapping == e.mapping
