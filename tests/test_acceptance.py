"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 10 (no false
positives anywhere) aggregates over every certificate the other criteria
produced, so run the module as a whole for the full count.
"""

import math
from fractions import Fraction

from helpers import (
    min_hitting_set_size,
    random_connected_subtree,
    random_embedding,
)
from treefit.embedding import PartialEmbedding, verify
from treefit.generate import (
    circulant,
    random_connected_graph,
    random_graph,
    random_graph_min_degree,
    random_tree,
    random_tree_bounded_leaf_degree,
)
from treefit.graph import Graph
from treefit.hardness import (
    ThreePartitionInstance,
    forward_certificate,
    generate_hardness_instance,
)
from treefit.outcome import Contains, NotContained
from treefit.paper.ahsc import colorful_full_tree_dp, sample_coloring
from treefit.paper.dense import embed_dense, hitting_set_lower_bound
from treefit.paper.lemmas import chvatal_extend, leaf_degree, solve_delta_plus_two, tree_diameter
from treefit.paper.preserving import (
    anti_dominating_set,
    build_preserving_set,
    is_k_preserving,
    modulator_to_preserving_path,
    set_to_preserving_path,
)
from treefit.pipeline import SolveConfig, brute_force_contains, solve, verify_certificate
from treefit.seeds import rng_from
from treefit.trees import Tree

TALLY = {"contains": 0, "bad_certificates": 0}


def record_contains(g, t, outcome) -> None:
    if isinstance(outcome, Contains):
        TALLY["contains"] += 1
        if not verify_certificate(g, t, outcome.embedding):
            TALLY["bad_certificates"] += 1


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_oracle_equivalence():
    rng = rng_from(1001)
    config = SolveConfig(seed=4242)
    instances = 0
    not_found = 0
    misses = 0
    while instances < 2000:
        n = rng.randint(1, 12)
        g = random_graph(n, rng.uniform(0.05, 0.95), rng)
        t = random_tree(rng.randint(1, n), rng)
        instances += 1
        out = solve(g, t, config)
        record_contains(g, t, out)
        oracle = brute_force_contains(g, t)
        if isinstance(out, Contains):
            assert isinstance(oracle, Contains), "solver YES but oracle NO"
        elif isinstance(out, NotContained):
            assert isinstance(oracle, NotContained), "exact NO but oracle YES"
        else:
            not_found += 1
            if isinstance(oracle, Contains):
                misses += 1
    p = 2.0 ** -10
    band = not_found * p + 1.96 * math.sqrt(max(not_found * p * (1 - p), 0.0))
    assert misses <= max(1.0, band), f"{misses} misses among {not_found} NotFound"
    report(
        "criterion 1 (oracle equivalence)",
        f"{instances} instances, {not_found} probabilistic misses allowed, {misses} observed",
    )


def test_criterion_02_greedy_guarantee():
    rng = rng_from(1002)
    done = 0
    while done < 500:
        n = rng.randint(3, 12)
        g = random_connected_graph(n, rng.uniform(0.25, 0.9), rng)
        delta = g.min_degree()
        size = rng.randint(1, min(delta + 1, g.n))
        t = random_tree(size, rng)
        seed_size = rng.randint(1, size)
        domain = random_connected_subtree(t, seed_size, rng)
        partial_map = random_embedding(g, t, rng, domain)
        assert partial_map is not None
        out = chvatal_extend(g, t, PartialEmbedding(partial_map))
        assert verify(out, g, t, require_full=True)
        for tv, gv in partial_map.items():
            assert out.mapping[tv] == gv
        TALLY["contains"] += 1
        done += 1
    report("criterion 2 (greedy guarantee)", "500/500 extensions verified")


def test_criterion_03_delta_plus_two_characterization(connected_graph_atlas, small_trees):
    pairs = 0
    no_cases = 0
    for n in range(1, 9):
        for g in connected_graph_atlas[n]:
            delta = g.min_degree()
            cap = min(n, delta + 2)
            for size in range(1, cap + 1):
                for t in small_trees[size]:
                    pairs += 1
                    out = solve_delta_plus_two(g, t)
                    record_contains(g, t, out)
                    oracle = brute_force_contains(g, t)
                    assert isinstance(out, Contains) == isinstance(oracle, Contains)
                    if isinstance(out, NotContained):
                        no_cases += 1
                        assert g.min_degree() == g.max_degree()
                        center = max(range(t.n), key=t.degree)
                        assert t.degree(center) == t.n - 1 == delta + 1
    report(
        "criterion 3 (delta+2 characterization)",
        f"{pairs} exhaustive pairs, {no_cases} regular/star NO cases",
    )


def test_criterion_04_dense_regime_at_literal_constants():
    rng = rng_from(1004)
    successes = 0
    for trial in range(50):
        n = rng.randint(50, 54)
        g = random_graph_min_degree(
            n, 48, rng, p=1.0 - (n - 49) / (2.0 * (n - 1))
        )
        assert g.min_degree() >= 48
        size = rng.randint(4, 50)
        t = random_tree_bounded_leaf_degree(size, 1, rng)
        assert leaf_degree(t)[0] <= 1
        out = embed_dense(g, t, 2)
        assert verify(out, g, t, require_full=True)
        TALLY["contains"] += 1
        successes += 1
    assert successes == 50
    report("criterion 4 (dense regime)", "50/50 embeddings at k=2, min degree 48")


def _core_fringe(n, core, delta, rng):
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    for v in range(core, n):
        for u in rng.sample(range(core), delta):
            edges.append((u, v))
    return Graph(n, edges)


def test_criterion_05_preserving_constructions():
    rng = rng_from(1005)

    done = 0
    while done < 500:  # modulator
        n = rng.randint(16, 40)
        d = rng.randint(1, 3)
        g = circulant(n, list(range(1, d + 1)))
        k = rng.randint(1, 3)
        s = set(rng.sample(range(n), rng.randint(0, 2)))
        if g.min_degree() < len(s) + k - 1:
            continue
        forb = frozenset(s)
        remainder = [v for v in range(n) if v not in s]
        ok = False
        for u in remainder:
            dd = g.bfs_distances(u, forb)
            if any(dd[v] >= 2 * k for v in remainder):
                ok = True
                break
        if not ok:
            continue
        p = modulator_to_preserving_path(g, s, k)
        assert is_k_preserving(g, p.vertices, k)
        assert len(p.vertices) - 1 <= 4 * k - 2 + len(s)
        done += 1

    done = 0
    while done < 500:  # set threading
        n = rng.randint(24, 60)
        d = rng.randint(2, 4)
        g = circulant(n, list(range(1, d + 1)))
        k = rng.randint(1, 2)
        s = set(rng.sample(range(n), rng.randint(1, 3)))
        if not is_k_preserving(g, s, k) or g.min_degree() < (2 * k - 1) * len(s):
            continue
        p = set_to_preserving_path(g, s, k)
        assert is_k_preserving(g, p.vertices, k)
        assert len(p.vertices) - 1 <= (2 * k - 1) * len(s)
        done += 1

    done = 0
    while done < 500:  # greedy anti-domination
        n = rng.randint(20, 70)
        delta = rng.randint(4, 10)
        g = random_graph_min_degree(n, delta, rng, p=rng.uniform(0.1, 0.35))
        eps = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)])
        da = g.min_degree()
        if n < (1 + eps) ** 2 * da + 2 or float(eps) * da < 2:
            continue
        s = anti_dominating_set(g, eps)
        for v in range(g.n):
            if v not in s and g.degree(v) < (1 + eps) * da:
                assert s - g.adj(v) - {v}
        assert len(s) < 4 * math.log2(da) / math.log2(float(1 + eps)) + 1
        done += 1

    hosts = []
    for _ in range(4):
        delta = rng.randint(440, 452)
        n = rng.randint(1310, 1350)
        hosts.append(_core_fringe(n, n - rng.randint(12, 24), delta, rng))
    for call in range(500):  # preserving-set assembly
        g = hosts[call % len(hosts)]
        s = build_preserving_set(g, 2, 1)
        q = 4 * 2 * math.log2(g.min_degree())
        assert len(s) <= q * 2
        assert is_k_preserving(g, s, 2)

    report("criterion 5 (preserving constructions)", "4 x 500 fuzzed calls, zero violations")


def test_criterion_06_hitting_set_bound(small_trees):
    checked = 0
    for n in range(2, 10):
        for t in small_trees[n]:
            sets = [frozenset(t.adj(v)) for v in range(t.n)]
            actual = min_hitting_set_size(sets, list(range(t.n)))
            assert actual >= hitting_set_lower_bound(t)
            checked += 1
    report("criterion 6 (hitting-set bound)", f"all {checked} trees up to 9 vertices")


def test_criterion_07_leaves_vs_diameter(small_trees):
    checked = 0
    for n in range(2, 11):
        for t in small_trees[n]:
            diam = tree_diameter(t)
            if diam < 1:
                continue
            leaves = len(t.leaves())
            for q in range(0, n // diam + 1):
                if n >= q * diam:
                    assert leaves >= q
                    checked += 1
    report("criterion 7 (leaves vs diameter)", f"{checked} (tree, q) pairs")


def test_criterion_08_color_coding_statistics():
    g = Graph(5, [(i, i + 1) for i in range(4)])
    t = Tree(5, [(i, i + 1) for i in range(4)])
    rng = rng_from(1008)
    hits = 0
    total = 10_000
    for _ in range(total):
        coloring = sample_coloring(g, 5, rng)
        if colorful_full_tree_dp(g, t, coloring) is not None:
            hits += 1
    threshold = math.ceil(0.7 * (math.factorial(5) / 5 ** 5) * total)
    assert hits >= threshold, f"{hits} colorful hits below {threshold}"
    report(
        "criterion 8 (color-coding statistics)",
        f"{hits}/{total} single-coloring hits (needs >= {threshold})",
    )


def _random_yes_instance(rng, n_triples, target):
    while True:
        sizes = []
        ok = True
        for _ in range(n_triples):
            lo, hi = target // 4 + 1, (target - 1) // 2
            a, b = rng.randint(lo, hi), rng.randint(lo, hi)
            c = target - a - b
            if not (lo <= c <= hi):
                ok = False
                break
            sizes.extend([a, b, c])
        if ok:
            break
    order = list(range(3 * n_triples))
    rng.shuffle(order)
    shuffled = [sizes[i] for i in order]
    triples = [
        sorted(order.index(3 * h + j) for j in range(3)) for h in range(n_triples)
    ]
    return ThreePartitionInstance(tuple(shuffled), target), triples


def test_criterion_09_hardness_generator_audit():
    reference = generate_hardness_instance(ThreePartitionInstance((3, 3, 3), 9), 1.0)
    assert reference.delta == 31
    assert reference.max_degree == 33
    assert reference.tree.n == 43
    assert reference.graph.n == 5803

    rng = rng_from(1009)
    for trial in range(20):
        n_triples = 2 if trial % 10 == 9 else 1
        target = 9 if n_triples == 2 else rng.choice([9, 10, 11, 13, 15, 17])
        inst, triples = _random_yes_instance(rng, n_triples, target)
        eps = rng.choice([0.75, 1.0, 1.5])
        out = generate_hardness_instance(inst, eps)  # audits internally
        assert out.tree.n <= (1 + eps) * out.delta
        assert out.graph.min_degree() == out.delta
        assert out.graph.max_degree() == out.delta + 2
        emb = forward_certificate(out, triples)
        assert verify(emb, out.graph, out.tree, require_full=True)
        TALLY["contains"] += 1
    report("criterion 9 (hardness generator)", "20 audited instances plus the reference sizes")


def test_criterion_10_no_false_positives_globally():
    if TALLY["contains"] < 100:  # standalone invocation: generate some work
        rng = rng_from(1010)
        config = SolveConfig(seed=77)
        for _ in range(300):
            n = rng.randint(2, 11)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng)
            t = random_tree(rng.randint(1, n), rng)
            out = solve(g, t, config)
            record_contains(g, t, out)
    assert TALLY["bad_certificates"] == 0
    assert TALLY["contains"] > 0
    report(
        "criterion 10 (no false positives)",
        f"{TALLY['contains']} certificates re-verified, {TALLY['bad_certificates']} failures",
    )
