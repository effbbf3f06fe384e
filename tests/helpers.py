"""Shared test utilities: instance generators and independent oracles.

The oracles here (hitting-set search, rooted-isomorphism backtracking,
non-isomorphic graph enumeration) are deliberately written from scratch so
the production code is always checked against an independent route.
"""

from __future__ import annotations

import gc
import itertools
from random import Random

import networkx as nx

from treefit.errors import ParseError
from treefit.graph import Graph
from treefit.trees import Tree


# -- the cyclic garbage collector ---------------------------------------------------

def collections_during(fn, *args) -> int:
    """How many cyclic-GC collections start while `fn(*args)` runs.  A full
    collection first empties the young generation, so that a collection
    already due does not land in the call."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        before = len(starts)
        fn(*args)
        return len(starts) - before
    finally:
        gc.callbacks.remove(count)


# -- file readers ------------------------------------------------------------------

def read_result(read, path):
    """What `read(path)` gives, in a form two readers can be compared by:
    the vertex count and each neighbour set as a list in iteration order,
    or the ParseError's text and line."""
    try:
        g = read(path)
    except ParseError as exc:
        return str(exc), exc.line
    return g.n, [list(s) for s in g.adjacency()]


def text_mode_read(parse):
    """A file reader that opens the file in text mode (ASCII, universal
    newlines) and hands the text to `parse`, as the readers once did."""
    return lambda path: parse(path.read_text(encoding="ascii"))


# -- conversions -----------------------------------------------------------------

def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def from_networkx(nxg: nx.Graph) -> Graph:
    nodes = sorted(nxg.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in nxg.edges()])


def tree_from_networkx(nxg: nx.Graph) -> Tree:
    nodes = sorted(nxg.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Tree(len(nodes), [(index[u], index[v]) for u, v in nxg.edges()])


# -- induced copies and disjoint unions -------------------------------------------

def reference_induced(g: Graph, keep) -> tuple[Graph, list[int]]:
    """The subgraph induced on `keep`, its vertices renumbered in ascending
    order, and the list from new id to old id."""
    old = sorted(set(keep))
    index = {v: i for i, v in enumerate(old)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(old), edges), old


def interleaved_union(parts: list[Graph], rng: Random) -> tuple[Graph, list[list[int]]]:
    """The disjoint union of the graphs on randomly interleaved vertex ids,
    each part keeping its own vertex order, and per part the union ids of
    its vertices."""
    owner = [i for i, p in enumerate(parts) for _ in range(p.n)]
    rng.shuffle(owner)
    ids: list[list[int]] = [[] for _ in parts]
    for v, i in enumerate(owner):
        ids[i].append(v)
    edges = [(ids[i][u], ids[i][v]) for i, p in enumerate(parts) for u, v in p.edges()]
    return Graph(len(owner), edges), ids


# -- named graphs -----------------------------------------------------------------

def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def path_tree(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(leaves: int) -> Tree:
    return Tree(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider(legs: int, leg_len: int) -> Tree:
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, edges)


def multi_star(leaves: int, centres: int) -> Tree:
    """A path on `centres` vertices (0..centres-1) with `leaves` leaves on
    each: the double star S(a, a) for two centres, a triple star for three."""
    edges = [(c, c + 1) for c in range(centres - 1)]
    edges += [(c, centres + c * leaves + i) for c in range(centres) for i in range(leaves)]
    return Tree(centres * (leaves + 1), edges)


def random_spider(size: int, rng: Random) -> Tree:
    """A centre with a random number of legs of near-equal length."""
    legs = rng.randint(1, size - 1)
    edges, nxt = [], 1
    for leg in range(legs):
        prev = 0
        for _ in range((size - 1) // legs + (leg < (size - 1) % legs)):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Tree(size, edges)


def random_caterpillar(size: int, rng: Random) -> Tree:
    """A path of at most size/3 vertices with the rest hung on it as leaves."""
    spine = rng.randint(1, max(1, size // 3))
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, size)]
    return Tree(size, edges)


def random_double_star(size: int, rng: Random) -> Tree:
    """Adjacent centres 0 and 1 sharing the other size-2 vertices as leaves."""
    a = rng.randint(0, size - 2)
    edges = [(0, 1)] + [(0, v) for v in range(2, 2 + a)] + [(1, v) for v in range(2 + a, size)]
    return Tree(size, edges)


# -- exhaustive enumerations ---------------------------------------------------------

def all_trees(order: int) -> list[Tree]:
    """All non-isomorphic trees on `order` vertices."""
    if order == 1:
        return [Tree(1, [])]
    if order == 2:
        return [Tree(2, [(0, 1)])]
    return [tree_from_networkx(nxt) for nxt in nx.nonisomorphic_trees(order)]


def connected_graphs_up_to(max_n: int) -> dict[int, list[Graph]]:
    """All non-isomorphic connected graphs per order, by augmentation.

    Every connected graph on n vertices arises from a connected graph on n-1
    vertices by attaching a new vertex (remove any non-cut vertex), so level
    n candidates are parents plus one vertex with a nonempty neighbor mask,
    in that order; the first candidate of each isomorphism class (by
    `_canonical_form`) is kept.
    """
    levels: dict[int, list[Graph]] = {1: [Graph(1, [])]}
    masks: list[list[int]] = [[0]]  # bitmask adjacency of each level n - 1 graph
    for n in range(2, max_n + 1):
        seen: set[int] = set()
        accepted: list[Graph] = []
        accepted_masks: list[list[int]] = []
        new = 1 << (n - 1)
        for parent, parent_adj in zip(levels[n - 1], masks):
            base_edges = list(parent.edges())
            for mask in range(1, new):
                adj = [a | new if mask >> i & 1 else a for i, a in enumerate(parent_adj)]
                adj.append(mask)
                code = _canonical_form(adj)
                if code in seen:
                    continue
                seen.add(code)
                accepted.append(
                    Graph(n, base_edges + [(i, n - 1) for i in range(n - 1) if mask >> i & 1])
                )
                accepted_masks.append(adj)
        levels[n] = accepted
        masks = accepted_masks
    return levels


def _refine(adj: list[int], colors: list[int]) -> list[int]:
    """Colour refinement: split every cell by the neighbour count in each
    cell until no cell splits.  New cells are ranked by (old cell, counts),
    so the result does not depend on the vertex labels."""
    n = len(adj)
    cell_count = max(colors) + 1
    while True:
        cells = [0] * cell_count
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        signatures = [
            (colors[v], *[(adj[v] & cell).bit_count() for cell in cells]) for v in range(n)
        ]
        ranks = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        if len(ranks) == cell_count:
            return colors
        cell_count = len(ranks)
        colors = [ranks[sig] for sig in signatures]


def _canonical_form(adj: list[int]) -> int:
    """A complete isomorphism invariant of a graph given by bitmask adjacency:
    the least adjacency code over the labellings reached by individualising,
    one vertex at a time, each vertex of the first non-singleton cell of the
    refined colouring, then refining again."""
    n = len(adj)
    codes = []
    pending = [_refine(adj, [0] * n)]
    while pending:
        colors = pending.pop()
        cell_count = max(colors) + 1
        if cell_count == n:
            code = 0
            for u in range(n):
                row = colors[u] * n
                for v in range(n):
                    if adj[u] >> v & 1:
                        code |= 1 << (row + colors[v])
            codes.append(code)
            continue
        target = min(c for c in range(cell_count) if colors.count(c) > 1)
        for v in range(n):
            if colors[v] == target:
                split = [c + (c > target or (c == target and u != v)) for u, c in enumerate(colors)]
                pending.append(_refine(adj, split))
    return min(codes)


# -- independent oracles ----------------------------------------------------------------

def constrained_embedding_exists(
    g: Graph,
    t: Tree,
    kappa: dict[int, int],
    families: list[tuple[frozenset[int], int]],
    within: set[int] | None = None,
) -> bool:
    """Whether some injective, edge-preserving map of the guest's vertices
    (or of `within`) agrees with every pin and hits every family at least
    its quota, by trying every map of the unpinned vertices (tiny hosts)."""
    domain = sorted(range(t.n) if within is None else within)
    free = [v for v in domain if v not in kappa]
    edges = [(u, v) for u, v in t.edges() if u in domain and v in domain]
    pinned = set(kappa.values())
    if len(pinned) < len(kappa):
        return False
    for images in itertools.permutations([x for x in range(g.n) if x not in pinned], len(free)):
        mapping = dict(kappa)
        mapping.update(zip(free, images))
        image = set(mapping.values())
        if all(mapping[v] in g.adj(mapping[u]) for u, v in edges) and all(
            len(image & fam) >= quota for fam, quota in families
        ):
            return True
    return False


def min_hitting_set_size(sets: list[frozenset[int]], universe: list[int]) -> int:
    """Exhaustive minimum hitting set over subsets of the universe."""
    if any(not s for s in sets):
        raise ValueError("empty set cannot be hit")
    for size in range(len(universe) + 1):
        for cand in itertools.combinations(universe, size):
            chosen = set(cand)
            if all(chosen & s for s in sets):
                return size
    raise AssertionError("unreachable")


def rooted_isomorphic(
    a: Tree, a_root: int, b: Tree, b_root: int,
    a_within: frozenset | None = None, b_within: frozenset | None = None,
) -> bool:
    """Brute-force rooted isomorphism via recursive children matching."""
    a_act = a_within if a_within is not None else frozenset(range(a.n))
    b_act = b_within if b_within is not None else frozenset(range(b.n))

    def children(t: Tree, root: int, act: frozenset) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        parent = {root: -1}
        stack = [root]
        while stack:
            u = stack.pop()
            kids = []
            for v in t.adj(u) & act:
                if v not in parent:
                    parent[v] = u
                    kids.append(v)
                    stack.append(v)
            out[u] = kids
        return out

    ca = children(a, a_root, a_act)
    cb = children(b, b_root, b_act)

    def match(x: int, y: int) -> bool:
        kx, ky = ca[x], cb[y]
        if len(kx) != len(ky):
            return False
        if not kx:
            return True
        for perm in itertools.permutations(ky):
            if all(match(cx, cy) for cx, cy in zip(kx, perm)):
                return True
        return False

    return len(a_act) == len(b_act) and match(a_root, b_root)


def random_embedding(
    g: Graph, t: Tree, rng: Random, domain: set[int] | None = None
) -> dict[int, int] | None:
    """A uniformly scrambled valid partial embedding via random backtracking."""
    targets = sorted(domain) if domain is not None else list(range(t.n))
    target_set = set(targets)
    root = targets[0]
    order = [root]
    parent = {root: -1}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in t.adj(u) & target_set:
            if v not in parent:
                parent[v] = u
                order.append(v)
                queue.append(v)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def place(depth: int) -> bool:
        if depth == len(order):
            return True
        tv = order[depth]
        if depth == 0:
            pool = list(range(g.n))
        else:
            pool = sorted(g.adj(mapping[parent[tv]]) - used)
        rng.shuffle(pool)
        for gv in pool:
            if gv in used:
                continue
            mapping[tv] = gv
            used.add(gv)
            if place(depth + 1):
                return True
            used.discard(gv)
            del mapping[tv]
        return False

    return dict(mapping) if place(0) else None


def random_connected_subtree(t: Tree, size: int, rng: Random) -> set[int]:
    start = rng.randrange(t.n)
    chosen = {start}
    frontier = set(t.adj(start))
    while len(chosen) < size and frontier:
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier = (frontier | set(t.adj(v))) - chosen
    return chosen
