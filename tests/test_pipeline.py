import hashlib
import random

import pytest

from collections import Counter

from helpers import (
    complete,
    cycle,
    interleaved_union,
    multi_star,
    path_tree,
    petersen,
    random_caterpillar,
    random_double_star,
    random_spider,
    reference_induced,
    star_tree,
)
from treefit import color_coding, embedding, pipeline
from treefit.color_coding import exact_constrained_embed
from treefit.embedding import PartialEmbedding, format_certificate
from treefit.errors import BudgetExceededError, EmptyGraphError
from treefit.generate import (
    circulant,
    random_connected_graph,
    random_graph,
    random_graph_min_degree,
    random_tree,
)
from treefit.graph import Graph
from treefit.outcome import Contains, NotContained, NotFound
from treefit.pipeline import SolveConfig, brute_force_contains, solve, verify_certificate
from treefit.seeds import rng_from
from treefit.trees import Tree


class TestBruteForce:
    def test_hamiltonian_path_of_cycle(self):
        out = brute_force_contains(cycle(6), path_tree(6))
        assert isinstance(out, Contains)

    def test_petersen_star(self):
        out = brute_force_contains(petersen(), star_tree(4))
        assert isinstance(out, NotContained)

    def test_size_rejection(self):
        out = brute_force_contains(cycle(4), path_tree(5))
        assert isinstance(out, NotContained)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_force_contains(complete(12), path_tree(12), node_cap=5)


class TestSolveBasics:
    def test_chvatal_branch(self):
        # within Chvatal's bound the exact search decides in exactly |T|
        # nodes: the budget is all the guarantee needs, and one node less
        # is a miss
        out = solve(cycle(6), path_tree(3), SolveConfig(node_budget=3))
        assert isinstance(out, Contains)
        assert out.branch == "exact-search"
        assert solve(cycle(6), path_tree(3), SolveConfig(node_budget=2)) == NotFound(0, 0, 0, "BudgetExceeded")

    def test_petersen_star_exact_no(self):
        out = solve(petersen(), star_tree(4))
        assert isinstance(out, NotContained)

    def test_empty_host(self):
        with pytest.raises(EmptyGraphError):
            solve(Graph(0, []), path_tree(1))

    def test_single_vertex(self):
        out = solve(Graph(1, []), Tree(1, []))
        assert isinstance(out, Contains)
        assert out.embedding.mapping == {0: 0}

    def test_too_large_guest(self):
        out = solve(cycle(4), path_tree(5))
        assert isinstance(out, NotContained)

    def test_disconnected_host(self):
        # two components; the guest only fits in the larger one
        edges = [(0, 1), (1, 2), (2, 0)]
        edges += [(i, j) for i in range(3, 8) for j in range(i + 1, 8)]
        g = Graph(8, edges)
        out = solve(g, path_tree(5))
        assert isinstance(out, Contains)
        assert verify_certificate(g, path_tree(5), out.embedding)

    def test_disconnected_host_lifts_from_the_right_component(self):
        # a 7-cycle and a K5 on interleaved ids, plus an isolated vertex; only
        # the K5 has a vertex of degree 3
        ring = [0, 2, 3, 5, 7, 8, 10]
        clique = [1, 4, 6, 9, 11]
        edges = [tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])]
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        g = Graph(13, edges)
        assert g.components() == (tuple(ring), tuple(clique), (12,))
        out = solve(g, star_tree(3))
        assert isinstance(out, Contains)
        assert set(out.embedding.mapping.values()) <= set(clique)
        assert verify_certificate(g, star_tree(3), out.embedding)
        assert isinstance(solve(g, star_tree(5)), NotContained)

    def test_disconnected_no(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        out = solve(g, path_tree(3))
        assert isinstance(out, NotContained)

    def test_budget_miss_claims_no_bound(self):
        # K_{4,40} cannot host P_10 (five vertices on each side), but the
        # search cannot finish it in the default 2M nodes: the miss runs no
        # trial and names no failure bound
        g = Graph(44, [(a, b) for a in range(4) for b in range(4, 44)])
        out = solve(g, path_tree(10))
        assert out == NotFound(rounds=0, seed=0, failure_exponent=0, note="BudgetExceeded")


def _within_chvatal_bound(g: Graph, t: Tree) -> bool:
    """Whether some component with room for the guest has minimum degree at
    least |T| - 1, so that Chvatal's lemma puts the guest in it."""
    return any(len(comp) >= t.n and min(map(g.degree, comp)) >= t.n - 1 for comp in g.components())


def _solve_on_copies(g: Graph, t: Tree, config: SolveConfig):
    """Reference for solve on a disconnected host: each component at least
    as large as the guest solved on its own induced copy by the exact
    search, a certificate mapped back to the host's ids, the budget misses
    merged into one NotFound."""
    misses = 0
    for comp in g.components():
        if len(comp) < t.n:
            continue
        sub, old = reference_induced(g, comp)
        try:
            emb = exact_constrained_embed(sub, t, node_cap=config.node_budget)
        except BudgetExceededError:
            misses += 1
            continue
        if emb is not None:
            mapping = {tv: old[gv] for tv, gv in emb.mapping.items()}
            return Contains(PartialEmbedding(mapping), branch="exact-search")
    if misses:
        return NotFound(0, config.seed, 0, "; ".join(["BudgetExceeded"] * misses))
    return NotContained(reason="no component can host the guest")


class TestComponentsInPlace:
    def test_matches_solving_induced_copies(self):
        # 2-4 connected parts on interleaved ids: random graphs, and complete
        # bipartite ones that cannot host long paths; guests up to the
        # largest part, so smaller parts are skipped.  Small budgets run
        # out; 2M and None let the search finish.
        rng = rng_from(54)
        seen = Counter()
        for trial in range(500):
            parts = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.25:
                    a = rng.randint(1, 3)
                    b = rng.randint(a + 1, 10)
                    parts.append(Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)]))
                else:
                    size = rng.randint(1, 12)
                    parts.append(random_connected_graph(size, rng.uniform(0.1, 0.7), rng))
            g, _ = interleaved_union(parts, rng)
            top = min(9, max(p.n for p in parts))
            size = rng.randint(max(2, top - 4), max(2, top))
            t = path_tree(size) if rng.random() < 0.3 else random_tree(size, rng)
            budget = rng.choice((rng.randint(3, 60), rng.randint(60, 5_000), 2_000_000, None))
            config = SolveConfig(seed=trial, node_budget=budget)
            out = solve(g, t, config)
            assert out == _solve_on_copies(g, t, config), trial
            seen[type(out).__name__, getattr(out, "branch", "")] += 1
            if _within_chvatal_bound(g, t) and (budget is None or budget >= t.n):
                # the lemma's guarantee, from the search alone: |T| nodes suffice
                assert isinstance(out, Contains), trial
                seen["within bound", out.branch] += 1
        assert seen["within bound", "exact-search"] > 30
        assert seen["Contains", "exact-search"] > 200
        assert seen["NotContained", ""] > 20
        assert seen["NotFound", ""] > 10

    def test_misses_merge_as_on_copies(self):
        # two K_{3,16} cannot host P_8 (four vertices on each side); the
        # search overruns 50k nodes in each, and the two misses merge into
        # one NotFound that runs no trial and claims no bound
        k316 = Graph(19, [(a, b) for a in range(3) for b in range(3, 19)])
        g, _ = interleaved_union([k316, cycle(5), k316], rng_from(55))
        config = SolveConfig(seed=7, node_budget=50_000)
        out = solve(g, path_tree(8), config)
        assert out == NotFound(0, 7, 0, "BudgetExceeded; BudgetExceeded")
        assert out == _solve_on_copies(g, path_tree(8), config)


class TestGeneratorOnlyForTrials:
    """`solve` builds no generator: not when it decides at once, and not
    when its exact search runs out of budget."""

    @pytest.fixture
    def no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"generator built for stream {args[1:]}")

        def drawing_nothing(fn, *args):
            with monkeypatch.context() as m:
                m.setattr(random.Random, "__init__", refuse)
                for name in ("random", "randrange", "randint", "choice", "shuffle", "sample", "getrandbits"):
                    m.setattr(random, name, refuse)
                return fn(*args)

        return drawing_nothing

    def test_decided_without_a_trial(self, no_generator):
        rng = rng_from(56)
        seen = Counter()
        for _ in range(40):
            # hub-shaped: a min-degree-4 graph on 29 vertices plus a hub
            # joined to all, with a 7-vertex guest
            base = random_graph_min_degree(29, 4, rng)
            g = Graph(30, list(base.edges()) + [(v, 29) for v in range(29)])
            seen[type(no_generator(solve, g, random_tree(g.min_degree() + 2, rng))).__name__] += 1
            # sweep-shaped: n 13-40 with a guest of min degree + 2..4
            n = rng.randint(13, 40)
            g = random_graph_min_degree(n, rng.randint(2, n - 3), rng)
            t = random_tree(min(g.min_degree() + rng.randint(2, 4), n), rng)
            seen[type(no_generator(solve, g, t)).__name__] += 1
            # Chvatal's bound: at most min degree + 1 guest vertices, found
            # by the exact search in exactly |T| nodes
            t = random_tree(g.min_degree() + 1, rng)
            out = no_generator(solve, g, t, SolveConfig(node_budget=t.n))
            assert out.branch == "exact-search"
            # a disconnected host, on interleaved ids
            parts = [random_connected_graph(rng.randint(1, 12), 0.4, rng) for _ in range(3)]
            g, _ = interleaved_union(parts, rng)
            t = random_tree(rng.randint(2, max(2, max(p.n for p in parts))), rng)
            seen[type(no_generator(solve, g, t)).__name__] += 1
        assert seen["Contains"] > 60 and seen["NotContained"] > 0

    def test_budget_without_room_for_a_trial(self, no_generator):
        # K_{3,40} cannot host P_8: a small and a large budget both run
        # out, and neither miss draws a number
        g = Graph(43, [(a, b) for a in range(3) for b in range(3, 43)])
        for budget in (1_000, 200_000):
            out = no_generator(solve, g, path_tree(8), SolveConfig(node_budget=budget))
            assert out == NotFound(0, 0, 0, "BudgetExceeded")
        # the guard itself refuses a generator
        with pytest.raises(AssertionError, match="generator built for stream"):
            no_generator(rng_from, 8)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        rng = rng_from(51)
        for _ in range(20):
            g = random_graph(rng.randint(3, 10), rng.uniform(0.2, 0.7), rng)
            t = random_tree(rng.randint(2, min(6, max(2, g.n))), rng)
            if g.n == 0 or t.n > g.n:
                continue
            config = SolveConfig(seed=123)
            first = solve(g, t, config)
            second = solve(g, t, config)
            assert type(first) is type(second)
            if isinstance(first, Contains):
                assert format_certificate(first.embedding) == format_certificate(
                    second.embedding
                )
                assert first.branch == second.branch


class TestOracleAgreement:
    def test_sweep(self):
        rng = rng_from(52)
        config = SolveConfig(seed=99)
        for trial in range(400):
            g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
            t = random_tree(rng.randint(1, max(1, min(g.n, 8))), rng)
            out = solve(g, t, config)
            oracle = brute_force_contains(g, t)
            if isinstance(out, Contains):
                assert isinstance(oracle, Contains)
                assert verify_certificate(g, t, out.embedding)
            elif isinstance(out, NotContained):
                assert isinstance(oracle, NotContained)
            else:
                # a budget miss: the oracle must actually say NO
                assert isinstance(oracle, NotContained)

    def test_sweep_n13_to_60(self):
        # min-degree hosts as in the benchmark sweep and dense hosts
        # (4m >= n(n-1), where the search walks its list of unused
        # vertices); guests of delta + 2..4 vertices, or of any size above
        # delta + 1 for a third, shaped as random trees, spiders,
        # caterpillars and double stars.  Instances the oracle cannot finish
        # in 50k nodes are left out; solve must decide all others alike.
        rng = rng_from(53)
        shapes = (random_tree, random_spider, random_caterpillar, random_double_star)
        verdicts = {Contains: 0, NotContained: 0}
        dense = 0
        for trial in range(1200):
            n = rng.randint(13, 60)
            if trial % 2:
                g = random_graph(n, rng.uniform(0.55, 0.9), rng)
                if 4 * g.edge_count < n * (n - 1):
                    continue
                dense += 1
            else:
                low = rng.randint(2, min(n - 3, 6)) if trial % 4 == 0 else rng.randint(2, n - 3)
                g = random_graph_min_degree(n, low, rng)
            delta = g.min_degree()
            if trial % 3:
                size = min(n, delta + rng.randint(2, 4))
            else:
                size = rng.randint(min(n, delta + 2), n)
            t = shapes[trial // 2 % 4](size, rng)
            try:
                oracle = brute_force_contains(g, t, node_cap=50_000)
            except BudgetExceededError:
                continue
            out = solve(g, t)
            assert type(out) in verdicts, (trial, out)
            assert isinstance(out, Contains) == isinstance(oracle, Contains), trial
            verdicts[type(out)] += 1
            if isinstance(out, Contains):
                assert verify_certificate(g, t, out.embedding)
        assert dense >= 500 and verdicts[Contains] > 1000 and verdicts[NotContained] > 40


class TestStructuralRefutations:
    """Double and triple stars just above the minimum degree of a circulant:
    NO by counting, decided by the exact search at the default budget."""

    @pytest.mark.parametrize(
        "n, offsets, leaves, centres",
        [
            (40, 4, 7, 2),  # S(7,7): 14 leaves, at most 11 free around any edge
            (40, 5, 9, 2),  # S(9,9)
            (40, 4, 6, 3),  # a path of three centres with 6 leaves each
        ],
    )
    def test_exact_no(self, n, offsets, leaves, centres):
        g = circulant(n, list(range(1, offsets + 1)))
        out = solve(g, multi_star(leaves, centres))
        assert out == NotContained(reason="exhaustive search")

    def test_yes_twin(self):
        # S(5,5): centres 4 apart keep 11 distinct neighbours for 10 leaves
        g, t = circulant(40, [1, 2, 3, 4]), multi_star(5, 2)
        out = solve(g, t)
        assert isinstance(out, Contains) and out.branch == "exact-search"
        assert verify_certificate(g, t, out.embedding)


class TestOneCertificateCheck:
    """Each Contains from `solve` passes through exactly one `verify` call,
    over the whole guest, in the engine that built it."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        real = embedding.verify

        def recording(e, g, t, **kwargs):
            ok = real(e, g, t, **kwargs)
            calls.append((e, kwargs.get("require_full", False), ok))
            return ok

        # every module binding, so a check added anywhere on the solve path counts
        for module in (color_coding, embedding, pipeline):
            monkeypatch.setattr(module, "verify", recording)
        return calls

    def _solve_once_checked(self, calls, g, t, branch, config=None):
        out = solve(g, t, config)
        assert isinstance(out, Contains) and out.branch == branch
        assert [(e is out.embedding, full, ok) for e, full, ok in calls] == [(True, True, True)]

    def test_greedy_guarantee(self, verify_calls):
        # within Chvatal's bound the exact search builds the certificate, in
        # exactly |T| nodes
        self._solve_once_checked(verify_calls, cycle(6), path_tree(3), "exact-search", SolveConfig(node_budget=3))

    def test_greedy_guarantee_in_a_component(self, verify_calls):
        # a triangle beside a K_5: the guest fits the K_5 alone, where it is
        # within Chvatal's bound and found in exactly |T| nodes
        g = Graph(8, [(0, 1), (1, 2), (0, 2)] + [(a, b) for a in range(3, 8) for b in range(a + 1, 8)])
        self._solve_once_checked(verify_calls, g, star_tree(3), "exact-search", SolveConfig(node_budget=4))
        assert solve(g, star_tree(3), SolveConfig(node_budget=3)) == NotFound(0, 0, 0, "BudgetExceeded")

    def test_exact_search(self, verify_calls):
        self._solve_once_checked(verify_calls, circulant(40, [1, 2, 3, 4]), multi_star(5, 2), "exact-search")

    def test_color_coding(self, verify_calls):
        # the instance colour coding decided when `solve` still ran it:
        # K_{3,40} plus the edge 41-42, where a spider with legs 2, 2, 1, 1
        # from vertex 1 needs that edge.  The search overruns 200k nodes in
        # the bipartite part first, but finds it within the default budget.
        g = Graph(43, [(a, b) for a in range(3) for b in range(3, 43)] + [(41, 42)])
        t = Tree(8, [(0, 1), (0, 4), (0, 6), (1, 2), (1, 3), (4, 5), (6, 7)])
        self._solve_once_checked(verify_calls, g, t, "exact-search")

    def test_no_check_without_a_certificate(self, verify_calls):
        # K_{3,40} cannot host P_8; 200k nodes run out, and no trial runs
        g = Graph(43, [(a, b) for a in range(3) for b in range(3, 43)])
        out = solve(g, path_tree(8), SolveConfig(node_budget=200_000))
        assert out == NotFound(0, 0, 0, "BudgetExceeded") and verify_calls == []


def _golden_instances():
    """A fixed seeded set of 200 (host, guest, config) triples from
    treefit.generate."""
    rng = rng_from(58)
    for trial in range(200):
        kind = trial % 5
        budget = 2_000_000
        if kind == 0:  # at most min degree + 1 guest vertices: Chvatal's bound
            n = rng.randint(8, 30)
            g = random_graph_min_degree(n, rng.randint(2, n - 3), rng)
            size = g.min_degree() + rng.randint(-2, 1)
        elif kind == 1:  # sweep-shaped: min degree + 2..4
            n = rng.randint(13, 40)
            g = random_graph_min_degree(n, rng.randint(2, n - 3), rng)
            size = min(n, g.min_degree() + rng.randint(2, 4))
        elif kind == 2:  # sparse hosts and near-spanning guests: many exact NOs
            n = rng.randint(8, 14)
            g = random_graph_min_degree(n, 2, rng, p=0.1)
            size = n - rng.randint(0, 2)
        elif kind == 3:  # hosts that may be disconnected, solved per component
            n = rng.randint(6, 12)
            g = random_graph(n, rng.uniform(0.15, 0.5), rng)
            size = rng.randint(2, n)
        else:  # circulants, some under a budget too small to decide
            n = rng.randint(16, 30)
            g = circulant(n, list(range(1, rng.randint(2, 4) + 1)))
            size = rng.randint(g.min_degree() + 2, min(n, g.min_degree() + 5))
            budget = rng.choice((5, budget))
        yield g, random_tree(max(1, size), rng), SolveConfig(seed=trial, node_budget=budget)


class TestGoldenDigest:
    """Outcomes and certificates stay byte-identical across refactors (the
    seed guarantee); a change to the digest needs a stated reason."""

    DIGEST = "03ca2914c1894aab04356777e90a0d03945f7da783242ca1424bdf11eb4615ea"

    def _solve_and_check(self, instances) -> None:
        digest = hashlib.sha256()
        seen = Counter()
        for g, t, config in instances:
            out = solve(g, t, config)
            # the repr carries the certificate in the order the search built it
            cert = sorted(out.embedding.mapping.items()) if isinstance(out, Contains) else None
            digest.update(f"{out!r} {cert}\n".encode())
            seen[type(out).__name__, getattr(out, "branch", "")] += 1
            if _within_chvatal_bound(g, t):
                seen["within bound", getattr(out, "branch", "")] += 1
        assert seen["within bound", "exact-search"] >= 40
        assert seen["Contains", "exact-search"] >= 140
        assert seen["NotContained", ""] >= 25 and seen["NotFound", ""] >= 20
        assert digest.hexdigest() == self.DIGEST

    def test_outcomes_match_the_recorded_digest(self):
        # solved twice on the same Graph objects: first with the host tables
        # still unset, then with them filled by the first pass
        instances = list(_golden_instances())
        self._solve_and_check(instances)
        self._solve_and_check(instances)
