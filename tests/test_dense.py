import pytest

from helpers import min_hitting_set_size, path_tree, star_tree
from treefit.embedding import verify
from treefit.errors import PreconditionViolated
from treefit.generate import (
    random_graph_min_degree,
    random_tree_bounded_leaf_degree,
)
from treefit.paper.dense import embed_dense, hitting_set_lower_bound
from treefit.paper.lemmas import leaf_degree
from treefit.seeds import rng_from


def dense_host(n: int, delta: int, rng):
    """Random host with min degree >= delta via a sparse complement."""
    g = random_graph_min_degree(n, delta, rng, p=1.0 - (n - 1 - delta) / (2 * (n - 1)))
    assert g.min_degree() >= delta
    return g


class TestHittingSetBound:
    def test_path6(self):
        assert hitting_set_lower_bound(path_tree(6)) == 3

    def test_star_clamps(self):
        assert hitting_set_lower_bound(star_tree(5)) == 0

    def test_exhaustive_small(self, small_trees):
        for n in range(2, 10):
            for t in small_trees[n]:
                sets = [frozenset(t.adj(v)) for v in range(t.n)]
                actual = min_hitting_set_size(sets, list(range(t.n)))
                assert actual >= hitting_set_lower_bound(t)


class TestEmbedDense:
    def test_path_guest_at_literal_constants(self):
        rng = rng_from(81)
        g = dense_host(52, 48, rng)
        t = path_tree(50)
        out = embed_dense(g, t, 2)
        assert verify(out, g, t, require_full=True)

    def test_caterpillar_guest(self):
        rng = rng_from(82)
        g = dense_host(52, 48, rng)
        t = random_tree_bounded_leaf_degree(50, 1, rng)
        assert leaf_degree(t)[0] <= 1
        out = embed_dense(g, t, 2)
        assert verify(out, g, t, require_full=True)

    def test_host_too_large_rejected(self):
        rng = rng_from(83)
        g = random_graph_min_degree(60, 48, rng)
        with pytest.raises(PreconditionViolated):
            embed_dense(g, path_tree(50), 2)

    def test_small_guests_also_fit(self):
        rng = rng_from(84)
        g = dense_host(50, 48, rng)
        for size in (20, 35, 49):
            t = path_tree(size)
            out = embed_dense(g, t, 2)
            assert verify(out, g, t, require_full=True)

    def test_rewiring_paths_are_exercised(self):
        # n = delta + k exactly: the guest is spanning, so the last leaf
        # placements usually need a rewiring step
        rng = rng_from(85)
        hits = 0
        for trial in range(10):
            g = dense_host(50, 48, rng)
            t = random_tree_bounded_leaf_degree(50, 1, rng)
            out = embed_dense(g, t, 2)
            assert verify(out, g, t, require_full=True)
            hits += 1
        assert hits == 10
