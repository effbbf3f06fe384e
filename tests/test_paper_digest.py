"""Golden digest of the paper library's constructions.

Seeded instances for each construction that walks, joins or splits the
host: the preserving-path builders on connected and split remainders, the
embedding through a preserving path, the separator split and the two
dense-pair routes of the high-leaf engine.  Their outputs (or the
precondition each instance fails) are hashed, so a refactor of the shared
path, walk and component helpers must keep every output byte-identical.
"""

import hashlib
from collections import Counter

from treefit.errors import PreconditionViolated
from treefit.generate import circulant, random_graph
from treefit.graph import Graph
from treefit.paper.high_leaf import _embed_dense_close_pair, _embed_dense_far_pair
from treefit.paper.medium import embed_with_separator
from treefit.paper.preserving import (
    PreservingPath,
    embed_via_preserving_path,
    is_k_preserving,
    modulator_to_preserving_path,
    set_to_preserving_path,
)
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
