import hashlib
import itertools
from collections import Counter
from functools import partial

import pytest

from helpers import (
    complete,
    constrained_embedding_exists,
    cycle,
    interleaved_union,
    path_graph,
    path_tree,
    random_connected_subtree,
    random_spider,
    reference_induced,
    star_tree,
)
from treefit.color_coding import _guest_plan, exact_constrained_embed
from treefit.embedding import verify
from treefit.errors import BudgetExceededError
from treefit.generate import random_graph, random_graph_min_degree, random_tree
from treefit.graph import Graph
from treefit.outcome import Contains, NotContained, NotFound
from treefit.paper.ahsc import (
    AhscInstance,
    Coloring,
    colorful_full_tree_dp,
    compositions_at_most,
    contains_tree_by_size,
    rooted_subtrees_with_leaf_count,
    sample_coloring,
    solve_ahsc,
    trial_count,
)
from treefit.paper.lemmas import canonical_code
from treefit.pipeline import SolveConfig, brute_force_contains
from treefit.seeds import rng_from
from treefit.trees import Tree


class TestColorfulDp:
    def test_triangle_rainbow(self):
        g = complete(3)
        t = path_tree(3)
        coloring = Coloring((0, 1, 2), 3)
        emb = colorful_full_tree_dp(g, t, coloring)
        assert emb is not None and verify(emb, g, t, require_full=True)

    def test_monochrome_fails(self):
        g = complete(3)
        t = path_tree(3)
        coloring = Coloring((1, 1, 1), 3)
        assert colorful_full_tree_dp(g, t, coloring) is None

    def test_pinned_and_hitting(self):
        # C_5 with a 3-vertex path: exhaustive placement enumeration shows a
        # middle pin at 0 can never reach {2,3} (images are 1-0-4 only),
        # while an endpoint pin at 0 reaches {2,3} via 0-1-2 or 0-4-3.
        g = cycle(5)
        t = path_tree(3)
        family = (frozenset({2, 3}), 1)

        def all_colorings(pin_vertex):
            for colors in itertools.product(range(1, 3), repeat=4):
                full = [0] * 5
                rest = iter(colors)
                for v in range(5):
                    if v != pin_vertex:
                        full[v] = next(rest)
                yield Coloring(tuple(full), 3)

        for coloring in all_colorings(0):
            assert colorful_full_tree_dp(g, t, coloring, {1: 0}, [family]) is None

        hits = 0
        for coloring in all_colorings(0):
            emb = colorful_full_tree_dp(g, t, coloring, {0: 0}, [family])
            if emb is not None:
                assert emb.mapping[0] == 0
                assert set(emb.mapping.values()) & {2, 3}
                hits += 1
        assert hits > 0

    def test_matches_exhaustive_placements(self):
        # every embedding the DP can ever return is among the brute-force
        # placements of P_3 in C_5 with the middle pinned at 0
        g = cycle(5)
        t = path_tree(3)
        valid = set()
        for a, b in itertools.permutations(range(5), 2):
            if 0 in g.adj(a) and b in g.adj(0) and a != b:
                valid.add((a, 0, b))
        assert len(valid) == 2  # neighbors of 0 are 1 and 4
        rng = rng_from(41)
        for _ in range(60):
            coloring = sample_coloring(g, 3, rng, fixed={0: 0})
            emb = colorful_full_tree_dp(g, t, coloring, kappa={1: 0})
            if emb is not None:
                triple = (emb.mapping[0], emb.mapping[1], emb.mapping[2])
                assert triple in valid


class TestExactConstrained:
    def test_respects_quotas(self):
        g = cycle(6)
        t = path_tree(4)
        fam = (frozenset({3, 4}), 1)
        emb = exact_constrained_embed(g, t, families=[fam])
        assert emb is not None
        assert len(set(emb.mapping.values()) & {3, 4}) >= 1

    def test_unsatisfiable(self):
        g = cycle(6)
        t = path_tree(4)
        fam = (frozenset({3}), 1)
        kappa = {0: 0, 1: 1, 2: 2, 3: 5}  # fully pinned, misses {3}
        assert exact_constrained_embed(g, t, kappa, [fam]) is None

    def test_agrees_with_oracle(self):
        rng = rng_from(42)
        for _ in range(300):
            g = random_graph(rng.randint(3, 9), rng.uniform(0.2, 0.7), rng)
            t = random_tree(rng.randint(2, 5), rng)
            if t.n > g.n:
                continue
            mine = exact_constrained_embed(g, t)
            oracle = brute_force_contains(g, t)
            assert (mine is not None) == isinstance(oracle, Contains)

    def test_agrees_with_oracle_exhaustive_atlas(self, connected_graph_atlas, small_trees):
        # every connected host on up to 7 vertices, every guest on up to 5
        for n in range(1, 8):
            for g in connected_graph_atlas[n]:
                for size in range(1, min(n, 5) + 1):
                    for t in small_trees[size]:
                        mine = exact_constrained_embed(g, t)
                        oracle = brute_force_contains(g, t)
                        assert (mine is not None) == isinstance(oracle, Contains)

    def test_constraints_match_enumeration(self):
        # pins, quota families and connected `within` subsets on hosts of at
        # most 7 vertices, against trying every map; families keep every
        # vertex in the search, so a third of the instances have none
        rng = rng_from(61)
        found = missed = 0
        for trial in range(2000):
            n = rng.randint(2, 7)
            g = random_graph(n, rng.uniform(0.3, 0.9), rng)
            t = random_tree(rng.randint(1, 7), rng)
            within = random_connected_subtree(t, rng.randint(1, t.n), rng) if trial % 2 else None
            domain = sorted(range(t.n) if within is None else within)
            if len(domain) > n:
                continue
            pins = rng.randint(0, min(2, len(domain)))
            kappa = dict(zip(rng.sample(domain, pins), rng.sample(range(n), pins)))
            families = [
                (frozenset(rng.sample(range(n), rng.randint(1, n))), rng.randint(0, 2))
                for _ in range(rng.randint(1, 2) if trial % 3 == 0 else 0)
            ]
            emb = exact_constrained_embed(g, t, kappa, families, within)
            assert (emb is not None) == constrained_embedding_exists(g, t, kappa, families, within)
            if emb is None:
                missed += 1
                continue
            found += 1
            mapping = emb.mapping
            assert sorted(mapping) == domain and verify(emb, g, t)
            assert all(mapping[tv] == gv for tv, gv in kappa.items())
            assert all(len(set(mapping.values()) & fam) >= quota for fam, quota in families)
        assert found > 800 and missed > 250

    @staticmethod
    def assert_nodes(g, t, nodes, **kwargs):
        """The search takes exactly `nodes` nodes: one fewer overruns."""
        with pytest.raises(BudgetExceededError) as exc:
            exact_constrained_embed(g, t, node_cap=nodes - 1, **kwargs)
        assert exc.value.nodes == nodes
        return exact_constrained_embed(g, t, node_cap=nodes, **kwargs)

    def test_node_cap(self):
        # P_3 in a triangle: the skeleton is the middle vertex, on 0 (one
        # node); the leaves take 1 and 2 greedily (one node each)
        emb = self.assert_nodes(complete(3), path_tree(3), 3)
        assert emb.mapping == {1: 0, 0: 1, 2: 2}
        # a NO instance: P_4 in the claw; the root of the middle pair goes on
        # the centre, the only vertex of degree 2 (one node), and the other
        # on none of its three neighbours, which lack degree 2 (three nodes)
        claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert self.assert_nodes(claw, path_tree(4), 4) is None
        # vertex 2 has degree 4, more than any host vertex: NO before the
        # first node, although the root (vertex 1) fits
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
        g = Graph(6, list(cycle(6).edges()) + [(0, 3)])
        assert exact_constrained_embed(g, t, node_cap=0) is None

    @pytest.mark.parametrize("isolated", [0, 4])
    def test_node_cap_counts_augmenting_steps(self, isolated):
        # P_4 on the edges 0-1, 0-2, 0-3, 1-2: skeleton 1-2 on 0-1 (two
        # nodes), leaf 0 takes 2 greedily (one node); leaf 3 finds 1's
        # neighbours used, and the augmenting path reaches 2 (held by leaf 0)
        # and then 3 (free): two nodes.  With no isolated vertices the host
        # is dense and the leaves walk the list of unused vertices; with four
        # it is not, and they walk sorted neighbours: same order, same count.
        g = Graph(4 + isolated, [(0, 1), (0, 2), (0, 3), (1, 2)])
        emb = self.assert_nodes(g, path_tree(4), 5)
        assert emb.mapping == {1: 0, 2: 1, 0: 3, 3: 2}

    @pytest.mark.parametrize("isolated", [0, 5])
    def test_node_cap_returns_to_skeleton(self, isolated):
        # S(2,2) (centres 0 and 1) in K_4 minus the edge 2-3: centres on 0
        # and 1 (two nodes), leaves 2 and 3 take 2 and 3 (two nodes), leaf 4
        # finds none free and its augmenting path reaches 2 and 3 (two
        # nodes) and fails; centre 1 then tries 2 and 3, which lack degree 3
        # (two nodes).  Centre 0 on 1 repeats this (eight nodes).  Host
        # vertices of degree below 3 are no root candidates: no node.
        g = Graph(4 + isolated, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        t = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert self.assert_nodes(g, t, 16) is None

    @pytest.mark.parametrize("kind", ["random", "dense", "disconnected"])
    def test_node_cap_within_chvatal_bound(self, kind):
        # Chvatal's lemma through the search: a guest on at most min degree
        # + 1 vertices (of the component, with `hosts`) is placed by the
        # first descent, one node per guest vertex, so |T| nodes find it and
        # |T| - 1 overrun.  Random min-degree hosts, dense ones (4m >=
        # n(n-1), where the search walks its list of unused vertices), and
        # each large enough component of a disconnected host.
        rng = rng_from({"random": 43, "dense": 44, "disconnected": 45}[kind])
        shapes = (random_tree, lambda size, _: path_tree(size), lambda size, _: star_tree(size - 1))
        for trial in range(150):
            n = rng.randint(2, 40)
            if kind == "random":
                g = random_graph_min_degree(n, rng.randint(0, n - 1), rng, p=rng.uniform(0.05, 0.5))
                spots = [None]
            elif kind == "dense":
                g = random_graph_min_degree(n, rng.randint(0, n - 1), rng, p=rng.uniform(0.6, 1.0))
                assert 4 * g.edge_count >= n * (n - 1)
                spots = [None]
            else:
                parts = [random_graph_min_degree(rng.randint(1, 14), 0, rng, p=rng.uniform(0.2, 1.0))
                         for _ in range(rng.randint(2, 4))]
                g, _ = interleaved_union(parts, rng)
                spots = g.components()
            for comp in spots:
                delta = min(map(g.degree, range(g.n) if comp is None else comp))
                size = rng.randint(1, delta + 1)
                t = shapes[trial % 3](size, rng)
                emb = self.assert_nodes(g, t, t.n, hosts=comp)
                assert verify(emb, g, t, require_full=True)
                assert comp is None or emb.image <= set(comp)

    def test_spanning_leaf_phase_checks_hall_first(self):
        # the same S(2,2) spans K_4 minus the edge 2-3 with a pendant vertex
        # on 2 (vertex 4) and on 3 (vertex 5): the centres go on the four
        # vertices of degree 3 (four nodes) and then on each root's three
        # neighbours (twelve nodes).  Every such pair misses 2 or 3, so
        # pendant 4 or 5 lies beside no image of a centre, and each leaf
        # phase gives up before it places a leaf.  Placing leaves greedily
        # and searching augmenting paths first took 72 nodes.
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
        t = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert self.assert_nodes(g, t, 16) is None


class TestSpanningGuests:
    """A guest (or `within` subtree) with as many vertices as the host (or
    the component `hosts`) leaves every unused vertex a leaf to take."""

    @staticmethod
    def pin_by_degree(g, t, tv, gv):
        """The instance with tv pinned to gv as an unpinned one: tv and gv
        gain k new leaves, so that only gv has tv's new degree.  Leaves of
        tv can trade images with the new ones, so the pinned instance is YES
        exactly when this one is."""
        k = max(1, g.max_degree() + 1 - t.degree(tv))
        host = Graph(g.n + k, list(g.edges()) + [(gv, g.n + i) for i in range(k)])
        guest = Tree(t.n + k, list(t.edges()) + [(tv, t.n + i) for i in range(k)])
        return host, guest

    def test_agrees_with_oracle(self):
        # by turns: the whole host, one pin (a vertex of largest degree on a
        # host vertex of large enough degree), the host as one component of
        # a disconnected host, and a `within` subtree of a larger guest;
        # instances the oracle cannot finish in 50k nodes are skipped
        rng = rng_from(91)
        decided = {(case, kind): 0 for case in range(4) for kind in (True, False)}
        for trial in range(1000):
            n = rng.randint(8, 16)
            g = random_graph_min_degree(n, rng.randint(2, 4), rng)
            t = random_tree(n, rng)
            case = trial % 4
            host, guest, kappa, within, hosts = g, t, {}, None, None
            oracle_g, oracle_t = g, t
            if case == 1:
                tv = max(range(n), key=t.degree)
                gv = rng.choice([v for v in range(n) if g.degree(v) >= t.degree(tv)] or [0])
                kappa = {tv: gv}
                oracle_g, oracle_t = self.pin_by_degree(g, t, tv, gv)
            elif case == 2:
                other = random_graph_min_degree(rng.randint(3, 8), 2, rng)
                host, (hosts, _) = interleaved_union([g, other], rng)
            elif case == 3:
                guest = random_tree(n + rng.randint(1, 4), rng)
                within = random_connected_subtree(guest, n, rng)
                index = {v: i for i, v in enumerate(sorted(within))}
                oracle_t = Tree(n, [(index[u], index[v]) for u, v in guest.edges() if u in within and v in within])
            try:
                oracle = brute_force_contains(oracle_g, oracle_t, 50_000)
            except BudgetExceededError:
                continue
            emb = exact_constrained_embed(host, guest, kappa, (), within, None, hosts)
            assert (emb is not None) == isinstance(oracle, Contains), (trial, case)
            decided[case, emb is not None] += 1
            if emb is None:
                continue
            mapping = emb.mapping
            assert sorted(mapping) == sorted(range(n) if within is None else within)
            assert all(mapping[tv] == gv for tv, gv in kappa.items())
            assert hosts is None or set(mapping.values()) == set(hosts)
            assert verify(emb, host, guest)
        assert min(decided.values()) >= 10, decided


class TestGuestView:
    def test_disconnected_within_rejected(self):
        g = complete(4)
        t = path_tree(4)
        with pytest.raises(ValueError, match="guest subtree is not connected"):
            colorful_full_tree_dp(g, t, Coloring((0, 1, 2, 3), 4), within={0, 2})
        with pytest.raises(ValueError, match="guest subtree is not connected"):
            exact_constrained_embed(g, t, within={0, 1, 3})
        with pytest.raises(ValueError, match="subtree is not connected"):
            canonical_code(t, 0, within={0, 1, 3})

    @pytest.mark.parametrize(
        "within, message",
        [
            ({0, 1, 5}, "vertex subset out of range"),  # an id past the guest
            ({0, 1, -1}, "vertex subset out of range"),  # not read from the end
            (set(), "empty vertex subset"),
        ],
    )
    def test_within_checked_before_the_root(self, within, message):
        g = path_graph(3)
        t = path_tree(3)
        with pytest.raises(ValueError, match=message):
            exact_constrained_embed(g, t, within=within)
        with pytest.raises(ValueError, match=message):
            colorful_full_tree_dp(g, t, Coloring((0, 1, 2), 3), within=within)

    def test_pin_outside_within_rejected(self):
        g = complete(4)
        t = path_tree(4)
        coloring = Coloring((0, 1, 2, 3), 4)
        message = "pinned vertices must lie inside the guest subtree"
        for within in ({0, 1}, {0, 1, 2}):  # two vertices, and a split into skeleton and leaves
            with pytest.raises(ValueError, match=message):
                exact_constrained_embed(g, t, {3: 0}, within=within)
            with pytest.raises(ValueError, match=message):
                colorful_full_tree_dp(g, t, coloring, {3: 0}, within=within)


class TestRootAtLargestDegree:
    """An unpinned guest is rooted at its lowest vertex of largest degree,
    and the root tries host vertices by descending degree, ties in
    ascending id."""

    # the path 0-1-2-3-4 with leaf 5 on 2 and leaves 6, 7 on 4: vertices 2
    # and 4 have degree 3, the largest
    GUEST = Tree(8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (4, 6), (4, 7)])
    STAR = star_tree(3)

    @pytest.mark.parametrize("split", [False, True])
    def test_plan_root(self, split):
        assert _guest_plan(self.GUEST, None, None, split)[0][0] == 2
        # inside {2, 3, 4, 6, 7}, vertex 4 alone has degree 3
        assert _guest_plan(self.GUEST, None, {2, 3, 4, 6, 7}, split)[0][0] == 4
        # a pinned guest is rooted at its lowest pinned vertex
        assert _guest_plan(self.GUEST, {6: 0, 3: 1}, None, split)[0][0] == 3
        assert _guest_plan(self.GUEST, {7: 0}, {2, 3, 4, 6, 7}, split)[0][0] == 7

    def test_root_image_of_largest_degree(self):
        # host 0 has degree 3 and host 5 degree 4: the star's centre goes on 5
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (3, 5), (4, 5), (5, 6), (5, 7)])
        assert exact_constrained_embed(g, self.STAR).mapping[0] == 5
        # hosts 2 and 6 share the largest degree, 4: the lower id wins
        g = Graph(10, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (2, 5), (5, 6), (6, 7), (6, 8), (6, 9)])
        assert exact_constrained_embed(g, self.STAR).mapping[0] == 2

    def test_root_image_inside_the_component(self):
        # host 0, of degree 5, lies in the other component; inside
        # {1, 2, 3, 4, 6, 8, 9}, host 9 (degree 4) comes before host 1 (degree 3)
        inside = [(1, 2), (1, 3), (1, 4), (2, 9), (4, 9), (6, 9), (8, 9)]
        g = Graph(13, inside + [(0, 5), (0, 7), (0, 10), (0, 11), (0, 12)])
        other, comp = g.components()
        assert comp == (1, 2, 3, 4, 6, 8, 9)
        assert exact_constrained_embed(g, self.STAR, hosts=comp).mapping[0] == 9
        assert exact_constrained_embed(g, self.STAR, hosts=other).mapping[0] == 0


class TestContainsTreeBySize:
    def test_triangle_path(self):
        out = contains_tree_by_size(complete(3), path_tree(3), 10, rng_from(1))
        assert isinstance(out, Contains)

    def test_c4_star_not_contained_exactly(self):
        out = contains_tree_by_size(cycle(4), star_tree(3), 10, rng_from(1))
        assert isinstance(out, NotContained)

    def test_repeated_within_id_counts_once(self):
        # two guest vertices fit on one edge, however often `within` names them
        g = Graph(2, [(0, 1)])
        for within in ([0, 1, 1], {0, 1}):
            out = contains_tree_by_size(g, path_tree(3), 10, rng_from(1), within=within)
            assert isinstance(out, Contains) and sorted(out.embedding.mapping) == [0, 1]

    def test_oracle_sweep(self):
        rng = rng_from(43)
        for trial in range(500):
            g = random_graph(rng.randint(2, 12), rng.uniform(0.15, 0.8), rng)
            t = random_tree(rng.randint(1, 6), rng)
            out = contains_tree_by_size(g, t, 8, rng_from(43, trial))
            oracle = brute_force_contains(g, t)
            if isinstance(out, Contains):
                assert isinstance(oracle, Contains)
                assert verify(out.embedding, g, t, require_full=True)
            elif isinstance(out, NotContained):
                assert isinstance(oracle, NotContained)
            else:
                pytest.fail("small instances must resolve exactly")

    def test_exact_search_first(self):
        budget = SolveConfig().node_budget
        # a min-degree-4 host on 29 vertices plus a hub joined to all, with a
        # 7-vertex guest: a worst-case cost model would pick color coding
        rng = rng_from(8)
        base = random_graph_min_degree(29, 4, rng)
        g = Graph(30, list(base.edges()) + [(v, 29) for v in range(29)])
        t = random_tree(7, rng)
        out = contains_tree_by_size(g, t, 20, rng_from(8, 1), budget)
        assert isinstance(out, Contains) and out.branch == "exact-search"
        assert verify(out.embedding, g, t, require_full=True)
        # the README example: n 54, min degree 48, a 50-vertex guest (k = 2)
        rng = rng_from(0)
        g = random_graph_min_degree(54, 48, rng)
        t = random_tree(50, rng)
        out = contains_tree_by_size(g, t, 20, rng_from(0, 1), budget)
        assert isinstance(out, Contains) and out.branch == "exact-search"
        assert verify(out.embedding, g, t, require_full=True)

    def test_budget_miss_falls_back_to_color_coding(self):
        # K_{3,40} cannot host P_8 (four vertices on each side); the search
        # overruns 200k nodes, leaving 200k // (2^8 * 8 * 43) = 2 DP trials
        g = Graph(43, [(a, b) for a in range(3) for b in range(3, 43)])
        out = contains_tree_by_size(g, path_tree(8), 20, rng_from(9), node_budget=200_000)
        assert out == NotFound(rounds=2, failure_exponent=20, note="BudgetExceeded")

    def test_constrained_budget_miss_runs_the_pinned_dp(self):
        # hub 0 on a 16-clique (1..16) and on the chain 0-17-18-19-20-21; the
        # first six vertices of P_8, ends pinned to 0 and 21, must hit {18, 19}.
        # Only the chain fits, but the search walks the clique first and
        # overruns 40k nodes (it needs 47,302), leaving
        # 40_000 // (2^6 * 6 * 22) = 4 DP trials, which find the chain.
        chain = [0, 17, 18, 19, 20, 21]
        clique = [(i, j) for i in range(17) for j in range(i + 1, 17)]
        g = Graph(22, clique + list(zip(chain, chain[1:])))
        t = path_tree(8)
        kappa, family, within = {0: 0, 5: 21}, (frozenset({18, 19}), 1), frozenset(range(6))
        with pytest.raises(BudgetExceededError):
            exact_constrained_embed(g, t, kappa, [family], within, node_cap=40_000)
        out = contains_tree_by_size(g, t, 20, rng_from(0), 40_000, kappa, [family], within)
        assert isinstance(out, Contains) and out.branch == "color-coding"
        assert out.embedding.mapping == dict(zip(range(6), chain))
        assert verify(out.embedding, g, t)


class TestOneComponentInPlace:
    """`hosts` keeps the exact search inside one component of a
    disconnected host, with the results of a run on an induced copy."""

    def test_spends_the_nodes_of_the_copy(self):
        # K_{3,10} cannot host P_8 (four vertices on each side), beside a
        # K_8 that hosts it, on interleaved ids: the search in the
        # component proves NO in exactly the nodes it takes on the copy,
        # and one node fewer overruns on both
        k310 = Graph(13, [(a, b) for a in range(3) for b in range(3, 13)])
        g, (comp, _) = interleaved_union([k310, complete(8)], rng_from(10))
        sub, _ = reference_induced(g, comp)
        assert TestExactConstrained.assert_nodes(g, path_tree(8), 14_983, hosts=comp) is None
        assert TestExactConstrained.assert_nodes(sub, path_tree(8), 14_983) is None

    def test_pinned_hit_maps_back(self):
        # hub 0 on a 16-clique (1..16) and on the chain 0-17-18-19-20-21,
        # beside a K_6; the first six vertices of P_8, ends pinned to 0 and
        # 21, must hit {18, 19}.  Only the chain fits; the search overruns
        # 40k nodes in the clique first (it needs 47,302), and unbounded it
        # finds the chain.
        # The in-place certificate is the copy's, mapped back.
        chain = [0, 17, 18, 19, 20, 21]
        clique = [(i, j) for i in range(17) for j in range(i + 1, 17)]
        part = Graph(22, clique + list(zip(chain, chain[1:])))
        g, (comp, _) = interleaved_union([part, complete(6)], rng_from(11))
        sub, old = reference_induced(g, comp)
        t, within = path_tree(8), frozenset(range(6))
        on_copy = exact_constrained_embed(sub, t, {0: 0, 5: 21}, [(frozenset({18, 19}), 1)], within)
        assert on_copy.mapping == dict(zip(range(6), chain))
        kappa, family = {0: old[0], 5: old[21]}, (frozenset({old[18], old[19]}), 1)
        with pytest.raises(BudgetExceededError):
            exact_constrained_embed(g, t, kappa, [family], within, 40_000, comp)
        out = exact_constrained_embed(g, t, kappa, [family], within, None, comp)
        assert out.mapping == {tv: old[gv] for tv, gv in on_copy.mapping.items()}

    def test_checks_read_the_component(self):
        # vertex 1 of the guest has degree 3, which fits the K_5 but no
        # vertex of the 8-cycle: the degree check settles the cycle with no
        # search node, as on its copy, although its root fits there; and
        # P_6 fits nowhere in the K_5, though the host has 13 vertices
        g, (ring, small) = interleaved_union([cycle(8), complete(5)], rng_from(14))
        t = Tree(5, [(0, 1), (0, 4), (1, 2), (1, 3)])
        assert exact_constrained_embed(g, t, node_cap=0, hosts=ring) is None
        assert exact_constrained_embed(g, path_tree(6), hosts=small) is None

    @pytest.mark.parametrize("kappa", [{1: 6}, {0: 5}])
    def test_pin_outside_hosts_is_rejected(self, kappa):
        # two disjoint K_4s, the search kept inside the first: a pin on the
        # second is refused before the first node, and is fine without `hosts`
        g = Graph(8, [*itertools.combinations(range(4), 2), *itertools.combinations(range(4, 8), 2)])
        with pytest.raises(ValueError, match="pinned images must lie inside `hosts`"):
            exact_constrained_embed(g, path_tree(3), kappa, node_cap=0, hosts=[0, 1, 2, 3])
        emb = exact_constrained_embed(g, path_tree(3), kappa)
        assert set(emb.mapping.values()) <= {4, 5, 6, 7}


class TestPinnedImagesAreReserved:
    """A pinned host vertex is set aside before the first node: no unpinned
    guest vertex takes it, and a pin not beside its parent's image is no
    candidate."""

    def test_unpinned_vertex_skips_a_reserved_image(self):
        # P_3 in a triangle, ends pinned to 0 and 1: the root goes on 0 (one
        # node), the middle skips 1, kept for the pin, and takes 2 (one
        # node), and the pin follows beside it (one node)
        emb = TestExactConstrained.assert_nodes(complete(3), path_tree(3), 3, kappa={0: 0, 2: 1})
        assert emb.mapping == {0: 0, 1: 2, 2: 1}

    def test_pin_off_its_parent_counts_no_node(self):
        # P_2 on the path 0-1-2, pinned to 0 and 2: the root takes its pin
        # (one node), and the other pin, not beside it, is no candidate
        assert TestExactConstrained.assert_nodes(path_graph(3), path_tree(2), 1, kappa={0: 0, 1: 2}) is None

    def test_two_pins_on_dense_hosts_decide_at_once(self):
        # P_28 with two random pins on 34-vertex random hosts of edge chance
        # 0.78: each call decides within 100 nodes, where a search that left
        # the pinned images free overran 20,000 nodes on 18 of the 60
        t = path_tree(28)
        seen = Counter()
        for seed in range(60):
            rng = rng_from(97, seed)
            g = random_graph(34, 0.78, rng)
            kappa = dict(zip(rng.sample(range(t.n), 2), rng.sample(range(g.n), 2)))
            emb = exact_constrained_embed(g, t, kappa, node_cap=100)
            if emb is None:
                # the only NO here: two pins on a guest edge, on non-adjacent images
                (a, x), (b, y) = kappa.items()
                assert abs(a - b) == 1 and y not in g.adj(x)
            else:
                assert verify(emb, g, t, require_full=True)
                assert all(emb.mapping[v] == image for v, image in kappa.items())
            seen[emb is None] += 1
        assert seen[False] >= 50

    @pytest.mark.parametrize("image", [4, -1])
    def test_pin_on_no_host_vertex_is_rejected(self, image):
        # K_4 is dense, and 4 is the head of its list of unused vertices;
        # -1 would index the last vertex
        with pytest.raises(ValueError, match="pinned images must lie inside"):
            exact_constrained_embed(complete(4), path_tree(3), {0: image}, node_cap=0)

    @pytest.mark.parametrize("hosts", [None, range(11)], ids=["whole", "hosts"])
    def test_two_pins_on_one_image_are_rejected(self, hosts):
        # P_9 in K_11 with both ends pinned to 0: no embedding, and a search
        # that took the map walked every placement between the two pins
        # (over 100,000 nodes); it is refused before the first node
        with pytest.raises(ValueError, match="kappa must be injective"):
            exact_constrained_embed(complete(11), path_tree(9), {0: 0, 8: 0}, node_cap=0, hosts=hosts)


class TestDenseFrames:
    """On a dense host an unpinned skeleton vertex but the root walks the
    list of unused host vertices from its last image: the candidates and
    node counts of a sorted neighbour list, whose order the same host with
    isolated vertices added (too sparse for the list) shows."""

    # 0 joined to 1-5, then 1-2, 1-3, 3-5: 8 edges on 6 vertices
    FREE_COUNT = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (3, 5)]
    # 0-1, 0-2, 0-3, 1-2, 2-4, 3-4, 3-5, 4-5: 8 edges on 6 vertices
    BACKTRACK = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 4), (3, 5), (4, 5)]
    # a root with a skeleton child (1) and two leaves (2, 3); 1 has leaf 4
    BROOM = Tree(5, [(0, 1), (0, 2), (0, 3), (1, 4)])

    @pytest.mark.parametrize("isolated", [0, 4])
    def test_failing_candidate_passes_to_the_next(self, isolated):
        # the spider 0-1-2 with leaf 5 on 0 and leaves 3, 4 on 2, spanning
        # the dense host: the root 2, of largest degree, goes on host 0, of
        # largest degree (one node), and 1 on host 1 (one node); 0, with a
        # child, tries host 2 (one node), with no free neighbour, then host
        # 3 (one node), with free 5.  The leaves take 2, 4 and 5 (three
        # nodes).
        g = Graph(6 + isolated, self.FREE_COUNT)
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 5)])
        emb = TestExactConstrained.assert_nodes(g, t, 7)
        assert emb.mapping == {2: 0, 1: 1, 0: 3, 3: 2, 4: 4, 5: 5}

    @pytest.mark.parametrize("isolated", [0, 4])
    def test_leaf_failure_resumes_after_the_last_image(self, isolated):
        # the broom: its root goes on host 0 (one node) and 1 on host 1 (one
        # node); leaves 2 and 3 take hosts 2 and 3 (two nodes), and leaf 4
        # finds host 1's other neighbour (2) held: its augmenting path
        # reaches 2 and 3 (two nodes) and fails.  Back at 1, the walk goes on
        # from host 1 to host 2 (one node); leaves take 1, 3 and 4 (three
        # nodes).  From the head it would try host 1 again; skipping host 2
        # it would put 1 on host 3.
        g = Graph(6 + isolated, self.BACKTRACK)
        emb = TestExactConstrained.assert_nodes(g, self.BROOM, 10)
        assert emb.mapping == {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}

    @pytest.mark.parametrize("isolated", [0, 4])
    def test_reserved_image_is_skipped_without_a_node(self, isolated):
        # P_3 with its ends pinned to 0 and 2, on K_4 minus 1-2 and 1-3: the
        # root takes its pin (one node); the middle tries host 1, of degree
        # 1 (one node), passes host 2, kept for its pin, with no node, and
        # takes host 3 (one node), beside which the pin follows (one node)
        g = Graph(4 + isolated, [(0, 1), (0, 2), (0, 3), (2, 3)])
        emb = TestExactConstrained.assert_nodes(g, path_tree(3), 4, kappa={0: 0, 2: 2})
        assert emb.mapping == {0: 0, 1: 3, 2: 2}

    def test_component_walk_stays_inside(self):
        # the broom in the BACKTRACK host, interleaved with a K_5: in place
        # (`hosts`), the search takes the copy's ten nodes and its images
        g, (comp, _) = interleaved_union([Graph(6, self.BACKTRACK), complete(5)], rng_from(12))
        emb = TestExactConstrained.assert_nodes(g, self.BROOM, 10, hosts=comp)
        assert emb.mapping == {0: comp[0], 1: comp[2], 2: comp[1], 3: comp[3], 4: comp[4]}


class TestTrialSchedule:
    def test_counts(self):
        assert trial_count(1, 1) >= 1
        assert trial_count(5, 10) >= trial_count(5, 5)


class TestCompositions:
    def test_enumeration(self):
        combos = list(compositions_at_most(2, 2))
        assert combos == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_total(self):
        assert len(list(compositions_at_most(3, 3))) == 20  # C(3+3,3)


class TestRootedSubtreeEnumeration:
    def test_leaf_counts(self):
        t = star_tree(4)
        # rooted at the center, subtrees with exactly 2 non-root leaves
        found = rooted_subtrees_with_leaf_count(t, 0, 2, range(5), max_size=5)
        assert len(found) == 1  # all pairs of leaves are isomorphic
        assert len(found[0]) == 3

    def test_path_single_leaf(self):
        t = path_tree(5)
        found = rooted_subtrees_with_leaf_count(t, 0, 1, range(5), max_size=5)
        # one class per depth: 0-1, 0-1-2, 0-1-2-3, 0-..-4
        assert len(found) == 4


class TestSolveAhsc:
    def test_total_kappa_checks_directly(self):
        g = cycle(6)
        t = path_tree(3)
        inst = AhscInstance.make(g, t, {0: 0, 1: 1, 2: 2})
        res = solve_ahsc(inst, 10, rng_from(3))
        assert res.found and res.embedding.mapping == {0: 0, 1: 1, 2: 2}
        bad = AhscInstance.make(g, t, {0: 0, 1: 2, 2: 4})
        res2 = solve_ahsc(bad, 10, rng_from(3))
        assert not res2.found and res2.exact

    def test_pinned_path_miss_is_exact(self):
        # K_{3,40} cannot host P_8 with its ends on opposite sides (vertices
        # 1, 3, 5, 7 all need the 3-vertex side): exact search proves it
        # within the default budget, so no color-coding trial runs
        g = Graph(43, [(a, b) for a in range(3) for b in range(3, 43)])
        res = solve_ahsc(AhscInstance.make(g, path_tree(8), {0: 3, 7: 0}), 20, rng_from(10))
        assert not res.found and res.exact and res.trials == 0

    def test_c6_p5_reach_far(self):
        g = cycle(6)
        t = path_tree(5)
        far = frozenset(range(6)) - (g.adj(0) | {0})
        inst = AhscInstance.make(g, t, {2: 0}, [(far, 1)])
        res = solve_ahsc(inst, 10, rng_from(4))
        assert res.found
        image = set(res.embedding.mapping.values())
        assert image & far
        assert res.embedding.mapping[2] == 0
        # cross-check: the found subtree really is connected and embeds
        assert verify(res.embedding, g, t)

    def test_unsatisfiable_empty_family(self):
        g = cycle(6)
        t = path_tree(5)
        inst = AhscInstance.make(g, t, {2: 0}, [(frozenset(), 1)])
        res = solve_ahsc(inst, 10, rng_from(5))
        assert not res.found and res.exact

    def test_empty_pin_branches_anchor(self):
        g = path_graph(4)
        t = path_tree(3)
        inst = AhscInstance.make(g, t, {}, [(frozenset({3}), 1)])
        res = solve_ahsc(inst, 10, rng_from(6))
        assert res.found
        assert 3 in set(res.embedding.mapping.values())

    def test_within_restriction(self):
        g = cycle(6)
        t = star_tree(3)  # center 0, leaves 1..3
        inst = AhscInstance.make(g, t, {0: 0}, [], within=frozenset({0, 1}))
        res = solve_ahsc(inst, 10, rng_from(7))
        assert res.found
        assert set(res.embedding.mapping) <= {0, 1}

    def test_long_attachment(self):
        # one pin on the end of a 400-vertex path and a quota of one: the
        # attachments are the path's 399 prefixes
        n = 400
        inst = AhscInstance.make(path_graph(n), path_tree(n), {0: 0}, [(frozenset({1}), 1)])
        res = solve_ahsc(inst, 10, rng_from(8))
        assert res.found and res.exact
        assert res.embedding.mapping == {0: 0, 1: 1}

    def test_long_pinned_spine(self):
        # pins on both ends: the spine is the whole path, one composition
        # of the empty quota per spine vertex
        n = 1200
        inst = AhscInstance.make(path_graph(n), path_tree(n), {0: 0, n - 1: n - 1})
        res = solve_ahsc(inst, 10, rng_from(9))
        assert res.found and res.exact
        assert res.embedding.mapping == {v: v for v in range(n)}


class TestSingleColoringSuccessRate:
    def test_planted_path_statistics(self):
        # the unique 5-vertex witness turns colorful with rate 5!/5^5
        g = path_graph(5)
        t = path_tree(5)
        rng = rng_from(44)
        hits = 0
        total = 10_000
        for _ in range(total):
            coloring = sample_coloring(g, 5, rng)
            if colorful_full_tree_dp(g, t, coloring) is not None:
                hits += 1
        assert hits >= 269  # 0.7 * 120/3125 * 10000, one-sided


def _engine_calls():
    """A fixed seeded list of (engine, call) pairs: 1,500 colorful DP calls
    on sampled colourings with the pins' reserved colours, and 1,500 exact
    searches, every other one under a small node cap.  Hosts are random,
    sometimes one component of a disconnected host; guests carry pins,
    quota families and connected `within` sets, some naming an id twice,
    some an id past the guest, and some pins fall outside `within`."""
    rng = rng_from(71)
    for i in range(3000):
        dp = i % 2 == 0
        n = rng.randint(2, 9 if dp else 14)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng)
        hosts = None
        if not dp and i % 6 == 1:
            g, (hosts, _) = interleaved_union([g, random_graph(rng.randint(1, 6), 0.5, rng)], rng)
        t = random_tree(rng.randint(1, 7 if dp else 10), rng)
        within = None
        if rng.random() < 0.5:
            within = sorted(random_connected_subtree(t, rng.randint(1, t.n), rng))
            roll = rng.random()
            if roll < 0.15:
                within.append(within[0])  # a repeated id counts once
            elif roll < 0.2:
                within.append(t.n)  # out of range
            elif roll < 0.25 and t.n > len(within):
                within.append(rng.choice(sorted(set(range(t.n)) - set(within))))  # maybe disconnected
        domain = sorted(set(range(t.n) if within is None else within) & set(range(t.n)))
        pool = hosts if hosts is not None else range(g.n)
        pins = rng.randint(0, min(2, len(domain), len(pool)))
        kappa = dict(zip(rng.sample(domain, pins), rng.sample(pool, pins)))
        free = sorted(set(pool) - set(kappa.values()))
        if within is not None and free and rng.random() < 0.1:
            kappa[rng.randrange(t.n)] = rng.choice(free)  # maybe outside `within`
        families = [
            (frozenset(rng.sample(range(g.n), rng.randint(1, g.n))), rng.randint(0, 2))
            for _ in range(rng.randint(1, 2) if rng.random() < 0.4 else 0)
        ]
        if dp:
            reserved = {kappa[tv]: c for c, tv in enumerate(sorted(kappa))} or None
            palette = len(domain) + rng.randint(-1, 1)
            coloring = sample_coloring(g, max(palette, 0), rng_from(71, i), reserved)
            yield "dp", partial(colorful_full_tree_dp, g, t, coloring, kappa, families, within)
        else:
            cap = None if i % 4 == 1 else rng.randint(1, 16)
            yield "exact", partial(exact_constrained_embed, g, t, kappa, families, within, cap, hosts)


class TestEngineDigest:
    """The colorful DP and the exact search give byte-identical results
    across refactors: certificates (in insertion order), misses, budget
    overruns with their node counts, and rejected arguments."""

    DIGEST = "85a23aeccd37347aca99a4e1696cf7001536622b3142a6829f2ea45a90844717"

    def test_outputs_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        seen = Counter()
        for name, call in _engine_calls():
            try:
                emb = call()
            except BudgetExceededError as exc:
                kind, out = "budget", f"budget {exc.nodes}"
            except ValueError as exc:
                kind, out = "rejected", f"ValueError: {exc}"
            else:
                kind = "miss" if emb is None else "found"
                out = "None" if emb is None else repr(list(emb.mapping.items()))
            seen[name, kind] += 1
            digest.update(f"{name} {out}\n".encode())
        assert min(seen[name, kind] for name in ("dp", "exact") for kind in ("found", "miss")) >= 400
        assert min(seen["dp", "rejected"], seen["exact", "rejected"], seen["exact", "budget"]) >= 50
        assert digest.hexdigest() == self.DIGEST


def _dense_search_calls():
    """A fixed seeded list of exact searches on dense hosts: one random
    graph with at least half its vertex pairs adjacent, or two such blocks
    on interleaved ids searched through `hosts=` (the first block, or the
    second in every other such call).  Guests are paths, spiders and
    random trees of 2 to 30 vertices; the calls mix pins (inside the
    component), connected `within` sets and node caps, from a few nodes to
    none on guests of at most two thirds of the host."""
    rng = rng_from(97)
    shapes = (path_tree, partial(random_spider, rng=rng), partial(random_tree, rng=rng))
    for i in range(480):
        g = random_graph(rng.randint(6, 40), rng.uniform(0.55, 0.97), rng)
        hosts = None
        if i % 3 == 1:
            other = random_graph(rng.randint(4, 30), rng.uniform(0.55, 0.97), rng)
            g, blocks = interleaved_union([g, other], rng)
            hosts = blocks[i % 2]
        pool = range(g.n) if hosts is None else hosts
        t = shapes[i % 3](rng.randint(2, min(30, len(pool) + 2)))
        within = None
        if rng.random() < 0.3:
            within = sorted(random_connected_subtree(t, rng.randint(1, t.n), rng))
        domain = list(range(t.n)) if within is None else within
        pins = rng.randint(0, min(2, len(domain), len(pool))) if rng.random() < 0.4 else 0
        kappa = dict(zip(rng.sample(domain, pins), rng.sample(list(pool), pins)))
        caps = (rng.randint(1, 40), rng.randint(100, 3000), 20_000)
        if 3 * t.n <= 2 * len(pool):  # a near-spanning guest can take far more nodes
            caps += (None,)
        cap = rng.choice(caps)
        yield g, hosts, partial(exact_constrained_embed, g, t, kappa, (), within, cap, hosts)


class TestDenseSearchDigest:
    """The exact search on dense hosts (and dense components) tries the same
    candidates in the same order across refactors: every embedding in
    insertion order, every exact miss, and the node count of every budget
    overrun."""

    DIGEST = "6a579c273784a620492a926cfa6dc83d7f92659f2e2f6b7425c3380ee228cfc8"

    def test_outputs_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        seen = Counter()
        for g, hosts, call in _dense_search_calls():
            try:
                emb = call()
            except BudgetExceededError as exc:
                kind, out = "budget", f"budget {exc.nodes}"
            else:
                kind = "miss" if emb is None else "found"
                out = "None" if emb is None else repr(list(emb.mapping.items()))
            pool = range(g.n) if hosts is None else hosts
            ends = sum(map(g.degree, pool))
            seen[kind, "dense" if 2 * ends >= len(pool) * (len(pool) - 1) else "sparse"] += 1
            seen[kind, "component" if hosts is not None else "whole"] += 1
            digest.update(f"{out}\n".encode())
        assert seen["found", "dense"] >= 350 and seen["budget", "dense"] >= 50
        assert seen["miss", "dense"] >= 10
        assert seen["found", "component"] >= 100 and seen["budget", "component"] >= 20
        assert digest.hexdigest() == self.DIGEST


def _guest_plans():
    """A fixed seeded list of `_guest_plan` calls on random trees, paths and
    spiders, with every combination of pins or none, `within` or none, and
    the leaf split on or off: (tree, pins, within, split) per call."""
    rng = rng_from(98)
    shapes = (partial(random_tree, rng=rng), path_tree, partial(random_spider, rng=rng))
    for i in range(240):
        pinned, restricted, split = i % 2, i // 2 % 2, i // 4 % 2
        size = rng.randint(1, 16)
        t = shapes[i // 8 % 3](size) if size > 1 else Tree(1, [])
        within = None
        if restricted:
            within = sorted(random_connected_subtree(t, rng.randint(1, t.n), rng))
        domain = range(t.n) if within is None else within
        kappa = None
        if pinned:
            picked = rng.sample(list(domain), rng.randint(1, min(3, len(domain))))
            kappa = {v: rng.randrange(50) for v in picked}
        yield t, kappa, within, bool(split)


class TestGuestPlanDigest:
    """`_guest_plan` lays every guest out the same way across refactors, and
    rejects bad `within` sets and pins with the same messages."""

    DIGEST = "7da6c0a96af2c2d0b40dbdc2a0b527d1ef13d6438d28297bfabbfc0ae5be9602"

    def test_plans_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        seen = Counter()
        for t, kappa, within, split in _guest_plans():
            plan = _guest_plan(t, kappa, within, split)
            seen[kappa is not None, within is not None, split] += 1
            digest.update(f"{t.n} {sorted(t.edges())} {kappa} {within} {split} {plan}\n".encode())
        assert len(seen) == 8 and min(seen.values()) == 30
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize(
        "kappa, within, message",
        [
            ({5: 0}, {0, 1, 2}, "pinned vertices must lie inside the guest subtree"),
            ({9: 0}, None, "pinned vertices must lie inside the guest subtree"),
            (None, {0, 2, 3}, "guest subtree is not connected"),
            ({0: 4}, {0, 1, 5}, "guest subtree is not connected"),
            (None, set(), "empty vertex subset"),
            ({0: 1}, [], "empty vertex subset"),
            (None, {0, 1, 6}, "vertex subset out of range"),
            (None, {-1, 0}, "vertex subset out of range"),
            ({7: 0}, {0, 7}, "vertex subset out of range"),  # `within` is checked before the pins
        ],
    )
    def test_rejections_keep_their_messages(self, kappa, within, message, split):
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
        with pytest.raises(ValueError) as exc:
            _guest_plan(t, kappa, within, split)
        assert str(exc.value) == message
