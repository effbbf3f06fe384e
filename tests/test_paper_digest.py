"""Golden digest of the paper library's constructions.

Seeded instances for each construction that walks, joins or splits the
host: the preserving-path builders on connected and split remainders, the
embedding through a preserving path, the separator split and the two
dense-pair routes of the high-leaf engine.  Their outputs (or the
precondition each instance fails) are hashed, so a refactor of the shared
path, walk and component helpers must keep every output byte-identical.
A second digest does the same for the guest-side walks and the searches
built on them: diametral paths, the high-leaf construction, the
centroid's branch representatives, AHSC answers, bipartite matchings and
covers, and quota compositions.
"""

import hashlib
from collections import Counter

from helpers import random_connected_subtree
from treefit.errors import PreconditionViolated
from treefit.generate import circulant, random_graph, random_tree, random_tree_bounded_leaf_degree
from treefit.graph import Graph
from treefit.paper.ahsc import AhscInstance, compositions_at_most, solve_ahsc
from treefit.paper.high_leaf import (
    _embed_dense_close_pair,
    _embed_dense_far_pair,
    embed_high_leaf_degree_unconditional,
)
from treefit.paper.lemmas import (
    HypothesisNotMet,
    TreeIsSeparableError,
    diametral_path,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
)
from treefit.paper.medium import embed_with_separator
from treefit.paper.preserving import (
    PreservingPath,
    embed_via_preserving_path,
    is_k_preserving,
    modulator_to_preserving_path,
    set_to_preserving_path,
)
from treefit.paper.small_diameter import build_w_candidates
from treefit.seeds import rng_from
from treefit.trees import Tree


def _cliques(sizes: list[int]) -> tuple[list[tuple[int, int]], list[range]]:
    edges, blocks, lo = [], [], 0
    for size in sizes:
        blocks.append(range(lo, lo + size))
        edges += [(i, j) for i in range(lo, lo + size) for j in range(i + 1, lo + size)]
        lo += size
    return edges, blocks


def _long_tree(spine: int, n: int, rng, cap: int | None = None) -> Tree:
    """A path on `spine` vertices with n - spine more hung at random, each
    on a vertex of degree below `cap`, so its diameter is at least
    spine - 1."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    degree = [2] * spine + [0] * (n - spine)
    degree[0] = degree[spine - 1] = min(spine - 1, 1)
    for v in range(spine, n):
        u = rng.randrange(v)
        while cap is not None and degree[u] >= cap:
            u = rng.randrange(v)
        edges.append((u, v))
        degree[u] += 1
        degree[v] = 1
    return Tree(n, edges)


def _modulator_connected(rng):
    n = rng.randint(16, 40)
    g = circulant(n, list(range(1, rng.randint(1, 3) + 1)))
    k = rng.randint(1, 3)
    s = set(rng.sample(range(n), rng.randint(0, 2)))
    if g.min_degree() < len(s) + k - 1:
        return None
    return "modulator-connected", lambda: modulator_to_preserving_path(g, s, k).vertices


def _modulator_split(rng):
    # cliques that meet only through the modulator S: one or two hub
    # vertices, or one vertex in the middle of a chain between two cliques
    sizes = [rng.randint(5, 9) for _ in range(rng.randint(2, 3))]
    edges, blocks = _cliques(sizes)
    n = sum(sizes)
    if rng.random() < 0.3:
        chain = list(range(n, n + rng.randint(3, 5)))
        edges += list(zip([blocks[0][-1]] + chain, chain + [blocks[1][0]]))
        edges += [(blocks[1][-1], blocks[-1][0])] if len(blocks) == 3 else []
        s = {rng.choice(chain)}
        n += len(chain)
        k = rng.randint(1, 2)
    else:
        hubs = range(n, n + rng.randint(1, 2))
        k = rng.randint(1, 3)
        for h in hubs:
            for block in blocks:
                edges += [(v, h) for v in rng.sample(block, rng.randint(1, len(block)))]
        s = set(hubs)
        n += len(hubs)
    g = Graph(n, edges)
    if g.min_degree() < len(s) + k - 1:
        return None
    return "modulator-split", lambda: modulator_to_preserving_path(g, s, k).vertices


def _set_to_path(rng):
    n = rng.randint(24, 60)
    g = circulant(n, list(range(1, rng.randint(2, 4) + 1)))
    k = rng.randint(1, 2)
    s = set(rng.sample(range(n), rng.randint(1, 3)))
    if not is_k_preserving(g, s, k) or g.min_degree() < (2 * k - 1) * len(s):
        return None
    return "set-to-path", lambda: set_to_preserving_path(g, s, k).vertices


def _via_path(rng):
    n = rng.randint(20, 40)
    g = circulant(n, list(range(1, rng.randint(2, 4) + 1)))
    k = rng.randint(1, 2)
    m = rng.randint(1, 3)
    start = rng.randrange(n)
    p = PreservingPath(tuple((start + i) % n for i in range(m)), k)
    top = g.min_degree() + k
    if not is_k_preserving(g, p.vertices, k) or top < 2 * m:
        return None
    size = rng.randint(2 * m, top)
    t = _long_tree(rng.randint(2 * m, size), size, rng)
    return "via-path", lambda: sorted(embed_via_preserving_path(g, t, p, k).mapping.items())


def _separator(rng):
    # two cliques glued on `shared` vertices, a separator padded with
    # vertices that minimalization drops, and a guest on min degree + k
    shared = rng.randint(1, 2)
    a, b = rng.randint(10, 16), rng.randint(10, 16)
    edges = {(i, j) for i in range(a) for j in range(i + 1, a)}
    edges |= {(a - shared + i, a - shared + j) for i in range(b) for j in range(i + 1, b)}
    n = a + b - shared
    g = Graph(n, sorted(edges))
    k = rng.randint(2, 3)
    s = set(range(a - shared, a)) | set(rng.sample(range(n), rng.randint(0, 2)))
    size = g.min_degree() + k
    t = _long_tree(rng.randint(size // 2, size), size, rng, cap=3)
    return "separator", lambda: sorted(embed_with_separator(g, t, k, s, enforce=False).mapping.items())


def _dense_pairs(rng):
    k = rng.randint(3, 4)
    if rng.random() < 0.5:
        g = random_graph(rng.randint(12, 24), rng.uniform(0.2, 0.6), rng)
    else:  # two cliques through a connector edge: distance-3 pairs
        m = rng.randint(8, 12)
        edges, blocks = _cliques([m, m])
        edges += [(v, 2 * m) for v in blocks[0]] + [(v, 2 * m + 1) for v in blocks[1]]
        edges += [(2 * m, 2 * m + 1)] + [(2 * m, v) for v in rng.sample(blocks[1], rng.randint(0, 2))]
        g = Graph(2 * m + 2, edges)
    prefix = list(range(k + 1))
    t = Tree(k + 1, [(i, i + 1) for i in range(k)])

    def both():
        far = _embed_dense_far_pair(g, t, k, prefix)
        close = _embed_dense_close_pair(g, t, k, prefix)
        return [None if e is None else sorted(e.mapping.items()) for e in (far, close)]

    return "dense-pairs", both


FAMILIES = (_modulator_connected, _modulator_split, _set_to_path, _via_path, _separator, _dense_pairs)


def _golden_calls():
    """A fixed seeded list of (family, call) pairs, 120 per family."""
    rng = rng_from(59)
    for family in FAMILIES:
        done = 0
        while done < 120:
            made = family(rng)
            if made is not None:
                yield made
                done += 1


class TestPaperGoldenDigest:
    """The paper library's outputs stay byte-identical across refactors; a
    change to the digest needs a stated reason."""

    DIGEST = "7dd4eff9e754c3d45a64a1abf5343b537042889b3583ab6f9495d6582a239912"

    def test_outputs_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        seen = Counter()
        for name, call in _golden_calls():
            try:
                out = call()
            except PreconditionViolated as exc:
                out = f"PreconditionViolated: {exc}"
                seen[name, "precondition"] += 1
            else:
                seen[name, "built"] += 1
            digest.update(f"{name} {out}\n".encode())
        assert all(seen[family, "built"] >= 100 for family, _ in seen)
        assert digest.hexdigest() == self.DIGEST


def _relabelled(t: Tree, rng) -> Tree:
    """t under a random relabelling, so lowest-id tie-breaks vary."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges()])


def _diametral(rng):
    t = _relabelled(random_tree(rng.randint(1, 40), rng), rng)
    within = random_connected_subtree(t, rng.randint(1, t.n), rng) if rng.random() < 0.5 else None
    return "diametral", lambda: diametral_path(t, within)


def _high_leaf(rng):
    # a regular host (circulant, or K_2m minus a perfect matching) keeps
    # case (a) off, so the walk or the dense route reads the guest's path
    k = rng.randint(2, 3)
    if rng.random() < 0.6:
        g = circulant(rng.randint(16, 30), list(range(1, rng.randint(3, 6) + 1)))
    else:
        m = rng.randint(6, 12)
        g = Graph(2 * m, [(i, j) for i in range(2 * m) for j in range(i + 1, 2 * m) if j != i + 1 or i % 2])
    size = g.min_degree() + k
    if size > g.n:
        return None
    # the witness 0 starts a path of `spine` vertices, mostly long enough
    top = size - k + 1
    spine = rng.randint(2, top) if rng.random() < 0.3 else rng.randint(min(3 * k + 1, top), top)
    edges = [(0, i) for i in range(spine, spine + k - 1)] + [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(1, spine), v) for v in range(spine + k - 1, size)]
    t = _relabelled(Tree(size, edges), rng)
    s = next(v for v in range(t.n) if sum(t.degree(x) == 1 for x in t.adj(v)) >= k - 1 and t.degree(v) > 1)

    def embed():
        return sorted(embed_high_leaf_degree_unconditional(g, t, s, k, min_delta=1).mapping.items())

    return "high-leaf", embed


def _w_candidates(rng):
    size = rng.randint(2, 30)
    t = _relabelled(random_tree(size, rng) if rng.random() < 0.5 else random_tree_bounded_leaf_degree(size, 2, rng), rng)
    k, q = rng.randint(2, 3), rng.randint(2, 12)

    def build():
        try:
            c = build_w_candidates(t, k, 1, separable_q=q)
        except TreeIsSeparableError as exc:
            return f"TreeIsSeparableError: {exc}"
        return sorted(c.w_set), c.root, c.representatives

    return "w-candidates", build


def _ahsc(rng):
    g = random_graph(rng.randint(5, 9), rng.uniform(0.3, 0.8), rng)
    t = _relabelled(random_tree(rng.randint(3, 7), rng), rng)
    within = random_connected_subtree(t, rng.randint(2, t.n), rng) if rng.random() < 0.4 else None
    guests = sorted(within if within is not None else range(t.n))
    pins = rng.sample(guests, rng.randint(0, min(2, len(guests))))
    kappa = dict(zip(pins, rng.sample(range(g.n), len(pins))))
    families = [
        (set(rng.sample(range(g.n), rng.randint(1, g.n))), rng.randint(0, 2))
        for _ in range(rng.randint(0 if pins else 1, 2))
    ]
    inst = AhscInstance.make(g, t, kappa, families, within)
    seed = rng.getrandbits(63)

    def solve():
        res = solve_ahsc(inst, 4, rng_from(seed))
        emb = None if res.embedding is None else sorted(res.embedding.mapping.items())
        return None if res.subtree is None else sorted(res.subtree), emb, res.exact, res.trials

    return "ahsc", solve


def _bipartite(rng):
    g = random_graph(rng.randint(2, 30), rng.uniform(0.05, 0.5), rng)
    sides = [rng.randrange(3) for _ in range(g.n)]  # 2 leaves a vertex out
    left = [v for v in range(g.n) if sides[v] == 0]
    right = [v for v in range(g.n) if sides[v] == 1]
    return "bipartite", lambda: (max_bipartite_matching(g, left, right), sorted(min_vertex_cover_bipartite(g, left, right)))


def _compositions(rng):
    total, terms = rng.randint(0, 5), rng.randint(0, 4)
    return "compositions", lambda: list(compositions_at_most(total, terms))


WALK_FAMILIES = (_diametral, _high_leaf, _w_candidates, _ahsc, _bipartite, _compositions)


class TestPaperWalkDigest:
    """The paper library's tree walks, component splits, matchings and AHSC
    candidates stay byte-identical across refactors: diameters, the
    high-leaf construction, the centroid's branch representatives, AHSC
    answers, bipartite matchings and covers, and quota compositions."""

    DIGEST = "2226529f3c7ef011688a188fdf108a5b39875839b8a5e89d15f38a1b458b13d8"

    def test_outputs_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        seen = Counter()
        rng = rng_from(31)
        for family in WALK_FAMILIES:
            done = 0
            while done < 100:
                made = family(rng)
                if made is None:
                    continue
                name, call = made
                try:
                    out = call()
                except (PreconditionViolated, HypothesisNotMet, AssertionError) as exc:
                    out = f"{type(exc).__name__}: {exc}"
                    seen[name, "raised"] += 1
                else:
                    seen[name, "built"] += 1
                done += 1
                digest.update(f"{name} {out}\n".encode())
        assert all(seen[name, "built"] >= 40 for name, _ in seen)
        assert digest.hexdigest() == self.DIGEST
