"""Graph, tree and embedding lemmas that only the paper's constructions use.

Host side: degree deficiency, bipartite matchings and covers, escape
vertices and their separators, shortest paths and greedy walks that avoid a
vertex set, and the components left when a set is removed.
Guest side: rooted views, paths and diameters of induced subtrees, leaf degree,
separable edges, maximal trivial paths, minimal spanning subtrees, canonical
codes and rooted containment.  Embeddings: Chvatal's greedy extension, and
the min-degree+2 solver and leaf completion built on it (`solve` needs no
greedy: within the lemma's bound its exact search descends the same way).
Also the library's own errors, all `TreefitError`s.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..embedding import PartialEmbedding, verify
from ..errors import PreconditionViolated, TreefitError
from ..graph import Graph, _component_split
from ..outcome import Contains, NotContained, SolveOutcome
from ..trees import Tree, _active


# -- errors -------------------------------------------------------------------

class HypothesisNotMet(TreefitError):
    """A checked hypothesis fails; the message names the violating object."""


class IsEscapeVertexError(TreefitError):
    """nonescape_separator was called on an escape vertex."""


class TooSmallError(TreefitError):
    """The graph is too small for both separator sides to be nonempty."""


class TreeIsSeparableError(TreefitError):
    """The tree admits a balanced split that the operation assumes away."""


# -- degree slack ----------------------------------------------------------

def neighbor_deficiency(g: Graph, v: int, k: int) -> int:
    """How many image vertices must avoid N[v] before v's free neighbors
    suffice for leaf placement: max{(min_degree+k-1) - deg(v), 0}."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if k < 0:
        raise ValueError("k must be non-negative")
    return max(g.min_degree() + k - 1 - g.degree(v), 0)


# -- bipartite matching and covers ------------------------------------------

def max_bipartite_matching(
    g: Graph, left: Iterable[int], right: Iterable[int]
) -> list[tuple[int, int]]:
    """Maximum matching of the bipartite subgraph between two disjoint sides.

    Augmenting-path fixpoint; deterministic (ascending vertex order).
    Returns matched (left, right) pairs sorted by the left endpoint.
    """
    left_list = sorted(set(left))
    right_set = frozenset(right)
    if right_set & set(left_list):
        raise ValueError("matching sides must be disjoint")
    match_right: dict[int, int] = {}
    match_left: dict[int, int] = {}

    def augment(u: int, blocked: set[int]) -> bool:
        for v in sorted(g.adj(u) & right_set):
            if v in blocked:
                continue
            blocked.add(v)
            if v not in match_right or augment(match_right[v], blocked):
                match_right[v] = u
                match_left[u] = v
                return True
        return False

    for u in left_list:
        augment(u, set())
    return sorted(match_left.items())


def min_vertex_cover_bipartite(
    g: Graph, left: Iterable[int], right: Iterable[int]
) -> set[int]:
    """Minimum vertex cover of the bipartite cut graph, recovered from a
    maximum matching by alternating reachability."""
    left_set = frozenset(left)
    right_set = frozenset(right)
    matching = max_bipartite_matching(g, left_set, right_set)
    match_left = dict(matching)
    match_right = {v: u for u, v in matching}

    reached_left = {u for u in left_set if u not in match_left}
    reached_right: set[int] = set()
    queue = deque(sorted(reached_left))
    while queue:
        u = queue.popleft()
        for v in g.adj(u) & right_set:
            if v in reached_right or match_left.get(u) == v:
                continue
            reached_right.add(v)
            w = match_right.get(v)
            if w is not None and w not in reached_left:
                reached_left.add(w)
                queue.append(w)
    return (left_set - reached_left) | reached_right


# -- escape vertices and separators ------------------------------------------

def is_q_escape(g: Graph, v: int, q: int) -> bool:
    """True iff deg(v) >= min_degree+q or the matching between N[v] and the
    rest of the graph has size >= q."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if q < 0:
        raise ValueError("q must be non-negative")
    if q == 0 or g.degree(v) >= g.min_degree() + q:
        return True
    closed = g.closed_adj(v)
    rest = [u for u in range(g.n) if u not in closed]
    if not rest:
        return False
    return len(max_bipartite_matching(g, closed, rest)) >= q


def nonescape_separator(g: Graph, v: int, q: int) -> set[int]:
    """A separator of size < q around a non-escape vertex v.

    Takes the minimum vertex cover of the bipartite graph between N[v] and
    the rest; v never appears in it.  Raises if v is a q-escape vertex or if
    either separated side would be empty.
    """
    closed = g.closed_adj(v)
    rest = sorted(u for u in range(g.n) if u not in closed)
    if not rest:
        raise TooSmallError("no vertices outside the closed neighborhood")
    if is_q_escape(g, v, q):
        raise IsEscapeVertexError(f"vertex {v} is a {q}-escape vertex")
    cover = min_vertex_cover_bipartite(g, closed, rest)
    if v in cover:
        raise AssertionError("cover recovery placed v itself in the cover")
    if len(cover) >= q:
        raise AssertionError("cover exceeds the matching bound")
    if not set(rest) - cover:
        raise TooSmallError("far side of the separator is empty")
    near = closed - cover
    far = set(rest) - cover
    forbidden = frozenset(cover)
    reach = set(
        u for u, d in enumerate(g.bfs_distances(v, forbidden)) if d < g.n
    )
    if reach & far or not near <= reach | cover:
        raise AssertionError("separator fails the components check")
    return set(cover)


# -- paths and components -----------------------------------------------------

def shortest_path_between(
    g: Graph, sources: Iterable[int], targets: Iterable[int], forbidden: Iterable[int] = ()
) -> list[int] | None:
    """A shortest path from a vertex of `sources` to one of `targets` in the
    graph minus `forbidden`, or None.  Breadth-first from the sources in
    ascending order, neighbours in ascending order, so ties go to the
    lowest ids."""
    banned = frozenset(forbidden)
    starts = sorted(set(sources))
    goals = frozenset(targets)
    if banned.intersection(starts) or banned & goals:
        raise ValueError("path endpoints must not be forbidden")
    prev = dict.fromkeys(starts, -1)
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        if u in goals:
            path = [u]
            while prev[path[-1]] != -1:
                path.append(prev[path[-1]])
            path.reverse()
            return path
        for v in sorted(g.adj(u)):
            if v not in prev and v not in banned:
                prev[v] = u
                queue.append(v)
    return None


def greedy_walk(g: Graph, start: int, pool: set[int], used: Iterable[int], length: int) -> list[int] | None:
    """The `length` vertices after `start` of a path that steps each time to
    the lowest neighbour inside `pool` that is neither in `used` nor on the
    path yet, or None when it gets stuck."""
    walk: list[int] = []
    taken = set(used)
    taken.add(start)
    cur = start
    for _ in range(length):
        cur = min((g.adj(cur) & pool) - taken, default=None)
        if cur is None:
            return None
        walk.append(cur)
        taken.add(cur)
    return walk


def components_avoiding(g: Graph, s: Iterable[int]) -> list[list[int]]:
    """Vertex lists of the components of G minus `s`, each sorted, ordered
    by least vertex: the split behind `Graph.components`, on the vertices
    outside `s`."""
    return list(_component_split(g.adjacency(), set(range(g.n)).difference(s)))


# -- rooted views ---------------------------------------------------------------

@dataclass(frozen=True)
class RootedView:
    """Rooted orientation of a tree or of a subtree induced by `within`.

    `parent`, `children` and `size` are indexed by vertex id; vertices the
    BFS from the root did not reach have parent -1 and no children, so a
    view with `len(order) < len(within)` marks a disconnected subset.
    """

    root: int
    parent: tuple[int, ...]          # -1 at the root and outside the view
    order: tuple[int, ...]           # BFS order, children in ascending id
    children: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(t: Tree, root: int, within: frozenset[int] | None = None) -> "RootedView":
        if not (0 <= root < t.n) or (within is not None and root not in within):
            raise ValueError(f"root {root} outside the (sub)tree")
        parent = [-1] * t.n
        children: list[tuple[int, ...]] = [()] * t.n
        order = [root]
        adj = t._adj
        for u in order:  # grows while it is read: a BFS queue
            if u != root and len(adj[u]) == 1:
                continue  # a leaf: its one neighbour is its parent
            kids = sorted(adj[u] if within is None else adj[u] & within)
            if u != root:
                kids.remove(parent[u])  # a tree's only visited neighbour
            for v in kids:
                parent[v] = u
            order.extend(kids)
            children[u] = tuple(kids)
        return RootedView(root, tuple(parent), tuple(order), tuple(children))

    @cached_property
    def size(self) -> tuple[int, ...]:
        """Subtree sizes (1 outside the view)."""
        size = [1] * len(self.parent)
        for u in reversed(self.order):
            for c in self.children[u]:
                size[u] += size[c]
        return tuple(size)


def connected_view(
    t: Tree, root: int, within: Iterable[int] | None = None, name: str = "subtree"
) -> RootedView:
    """RootedView of the subtree induced by `within`; a `within` that is not
    connected raises ValueError("<name> is not connected") instead of
    yielding the root's piece alone."""
    active = None if within is None else _active(t, within)
    view = RootedView.build(t, root, active)
    if active is not None and len(view.order) != len(active):
        raise ValueError(f"{name} is not connected")
    return view


# -- tree paths and diameters --------------------------------------------------

def farthest_from(t: Tree, source: int, within: Iterable[int] | None = None) -> tuple[int, int, dict[int, int]]:
    """(distance, lowest farthest vertex, parent map) by BFS in the induced subtree."""
    view = RootedView.build(t, source, None if within is None else _active(t, within))
    parent = {v: view.parent[v] for v in view.order}
    dist = {source: 0}
    for v in view.order[1:]:
        dist[v] = dist[parent[v]] + 1
    far = min(view.order, key=lambda v: (-dist[v], v))
    return dist[far], far, parent


def tree_path(t: Tree, u: int, v: int, within: Iterable[int] | None = None) -> list[int]:
    """The unique u-v path in the (induced) tree."""
    _, _, parent = farthest_from(t, u, within)
    if v not in parent:
        raise ValueError("endpoints are not connected inside the subtree")
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def diametral_path(t: Tree, within: Iterable[int] | None = None) -> list[int]:
    """A longest shortest path of the induced subtree (double BFS)."""
    active = _active(t, within)
    start = min(active)
    _, a, _ = farthest_from(t, start, active)
    _, b, parent = farthest_from(t, a, active)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def tree_diameter(t: Tree, within: Iterable[int] | None = None) -> int:
    return len(diametral_path(t, within)) - 1


# -- leaf structure -------------------------------------------------------------

def leaf_degree(t: Tree) -> tuple[int, int]:
    """Maximum number of leaf neighbors over all vertices, with a witness."""
    if t.n < 2:
        raise ValueError("leaf degree needs at least two vertices")
    leaves = set(t.leaves())
    best, witness = -1, 0
    for v in range(t.n):
        count = len(t.adj(v) & leaves)
        if count > best:
            best, witness = count, v
    return best, witness


# -- splits ---------------------------------------------------------------------

def find_separable_edge(t: Tree, q: int) -> tuple[int, int] | None:
    """An edge whose removal leaves two components of >= q vertices each."""
    if t.n < 2:
        raise ValueError("needs at least one edge")
    view = RootedView.build(t, 0)
    best: tuple[int, int] | None = None
    for v in range(1, t.n):
        side = view.size[v]
        if min(side, t.n - side) >= q:
            edge = tuple(sorted((v, view.parent[v])))
            if best is None or edge < best:
                best = edge  # lexicographically smallest, for reproducibility
    return best


# -- trivial paths ---------------------------------------------------------------

def maximal_trivial_paths(
    t: Tree,
    within: Iterable[int] | None = None,
    breaks: Iterable[int] = (),
) -> list[list[int]]:
    """Decompose the induced subtree's edges into maximal paths whose inner
    vertices all have induced degree two.  Every edge lies in exactly one
    path.  Vertices in `breaks` are forced to be path endpoints."""
    active = _active(t, within)
    if len(active) < 2:
        return []
    stop = set(breaks) & active
    deg = {v: len(t.adj(v) & active) for v in active}
    terminals = sorted(v for v in active if deg[v] != 2 or v in stop)
    paths: list[list[int]] = []
    used: set[tuple[int, int]] = set()
    for a in terminals:
        for b in sorted(t.adj(a) & active):
            if (a, b) in used:
                continue
            path = [a, b]
            used.add((a, b))
            used.add((b, a))
            while deg[path[-1]] == 2 and path[-1] not in stop:
                nxt = next(x for x in t.adj(path[-1]) & active if x != path[-2])
                used.add((path[-1], nxt))
                used.add((nxt, path[-1]))
                path.append(nxt)
            paths.append(path)
    return paths


def minimal_spanning_subtree(t: Tree, w: Iterable[int], within: Iterable[int] | None = None) -> set[int]:
    """Vertex set of the unique minimal connected subtree containing w."""
    active = _active(t, within)
    targets = set(w)
    if not targets:
        raise ValueError("w must be nonempty")
    if not targets <= active:
        raise ValueError("w must lie inside the subtree")
    keep = set(active)
    deg = {v: len(t.adj(v) & active) for v in active}
    queue = deque(v for v in active if deg[v] <= 1 and v not in targets)
    while queue:
        v = queue.popleft()
        if v not in keep:
            continue
        keep.discard(v)
        for u in t.adj(v) & active:
            if u in keep:
                deg[u] -= 1
                if deg[u] <= 1 and u not in targets:
                    queue.append(u)
    return keep


# -- canonical codes and rooted containment ---------------------------------------

def canonical_code(t: Tree, root: int, within: Iterable[int] | None = None) -> str:
    """AHU code: equal exactly for rooted-isomorphic (sub)trees.  A `within`
    that is not connected raises ValueError."""
    view = connected_view(t, root, within)
    code: dict[int, str] = {}
    for v in reversed(view.order):
        code[v] = "(" + "".join(sorted(code[c] for c in view.children[v])) + ")"
    return code[root]


def contains_rooted_subtree(
    host: Tree,
    host_root: int,
    guest: Tree,
    guest_root: int,
    host_within: Iterable[int] | None = None,
    guest_within: Iterable[int] | None = None,
) -> dict[int, int] | None:
    """Root-preserving subtree embedding of guest into host, or None.

    Children of each guest vertex must map injectively to children of the
    image; solved by recursive feasibility plus bipartite matching.  A
    `host_within` or `guest_within` that is not connected raises ValueError.
    """
    h_children = connected_view(host, host_root, host_within, "host subtree").children
    g_children = connected_view(guest, guest_root, guest_within, "guest subtree").children
    memo: dict[tuple[int, int], dict[int, int] | None] = {}

    def embed(gv: int, hv: int) -> dict[int, int] | None:
        key = (gv, hv)
        if key in memo:
            return memo[key]
        g_kids = g_children[gv]
        h_kids = h_children[hv]
        result: dict[int, int] | None
        if not g_kids:
            result = {gv: hv}
        elif len(g_kids) > len(h_kids):
            result = None
        else:
            feasible = {
                gc: [hc for hc in h_kids if embed(gc, hc) is not None]
                for gc in g_kids
            }
            assignment: dict[int, int] = {}

            def match(i: int, taken: set[int]) -> bool:
                if i == len(g_kids):
                    return True
                gc = g_kids[i]
                for hc in feasible[gc]:
                    if hc in taken:
                        continue
                    assignment[gc] = hc
                    taken.add(hc)
                    if match(i + 1, taken):
                        return True
                    taken.discard(hc)
                    del assignment[gc]
                return False

            if match(0, set()):
                result = {gv: hv}
                for gc, hc in assignment.items():
                    result.update(embed(gc, hc))  # type: ignore[arg-type]
            else:
                result = None
        memo[key] = result
        return result

    return embed(guest_root, host_root)


def assert_not_separable(t: Tree, q: int) -> None:
    edge = find_separable_edge(t, q)
    if edge is not None:
        raise TreeIsSeparableError(f"tree splits at {edge} into parts of >= {q} vertices")


# -- greedy extension (Chvatal's lemma) -----------------------------------------

def greedy_extend_adjacency(
    g: Graph,
    adjacency: Mapping,
    mapping: dict,
    *,
    allowed: frozenset[int] | None = None,
) -> dict:
    """Greedy embedding of an arbitrary tree-shaped adjacency structure.

    Nodes may be any sortable hashables.  BFS order from the already-mapped
    part; each new node goes to the lowest-index free neighbor of its mapped
    neighbor, restricted to `allowed` when given.  Raises AssertionError
    when stuck: callers invoke this only under guarantees that make failure
    an implementation bug.
    """
    out = dict(mapping)
    used = set(out.values())

    def free_neighbors(gv: int) -> list[int]:
        cand = g.adj(gv) - used
        if allowed is not None:
            cand &= allowed
        return sorted(cand)

    if not out:  # nothing is used yet: the lowest node on the lowest vertex
        pool = sorted(allowed) if allowed is not None else range(g.n)
        if not pool:
            raise AssertionError("no vertex available to seed the embedding")
        out[min(adjacency)] = pool[0]
        used.add(pool[0])

    queue = sorted(out)
    while queue:
        node = queue.pop(0)
        for nxt in sorted(adjacency[node]):
            if nxt in out:
                continue
            options = free_neighbors(out[node])
            if not options:
                raise AssertionError(
                    f"greedy extension stuck at node {nxt!r}: "
                    f"no free neighbor of {out[node]}"
                )
            out[nxt] = options[0]
            used.add(options[0])
            queue.append(nxt)
    if len(out) != len(adjacency):
        raise ValueError("adjacency structure is not connected")
    return out


def greedy_extend(
    g: Graph,
    t: Tree,
    mapping: dict[int, int],
    target: Iterable[int],
    *,
    allowed: frozenset[int] | None = None,
) -> dict[int, int]:
    """Extend `mapping` over the connected vertex set `target` of t."""
    targets = set(target)
    if not set(mapping) <= targets:
        raise ValueError("mapping domain must lie inside the target")
    adjacency = {v: t.adj(v) & targets for v in targets}
    return greedy_extend_adjacency(g, adjacency, mapping, allowed=allowed)


def chvatal_extend(
    g: Graph,
    t: Tree,
    partial: PartialEmbedding,
    target: Iterable[int] | None = None,
) -> PartialEmbedding:
    """Extend a partial embedding to all of t (or to `target`).

    Guaranteed to succeed whenever the target has at most min_degree(G)+1
    vertices (Chvatal's lemma); a failure past the precondition check is a
    bug and raises AssertionError.
    """
    targets = set(range(t.n)) if target is None else set(target)
    delta = g.min_degree()
    if len(targets) > delta + 1:
        raise PreconditionViolated(
            f"guest has {len(targets)} vertices, more than min_degree+1 = {delta + 1}"
        )
    mapping = partial.mapping
    if mapping:
        if not verify(partial, g, t):
            raise PreconditionViolated("partial embedding does not verify")
        if not set(mapping) <= targets:
            raise PreconditionViolated("partial domain must lie inside the target")
    result = greedy_extend(g, t, mapping, targets)
    out = PartialEmbedding(result)
    if not verify(out, g, t, require_full=target is None):
        raise AssertionError("greedy extension produced an invalid embedding")
    return out


# -- the delta+2 characterization ------------------------------------------------

def _is_star(t: Tree) -> int | None:
    """Center of t if t is a star on >= 3 vertices, else None."""
    if t.n < 3:
        return None
    centers = [v for v in range(t.n) if t.degree(v) == t.n - 1]
    return centers[0] if centers else None


def solve_delta_plus_two(g: Graph, t: Tree) -> SolveOutcome:
    """Decide containment for guests up to min_degree+2 vertices.

    The single NO case: a regular host and a star guest on min_degree+2
    vertices.  Every other instance gets an explicit certificate.
    """
    delta = g.min_degree()
    if not g.is_connected():
        raise PreconditionViolated("host must be connected")
    if t.n > min(g.n, delta + 2):
        raise PreconditionViolated(
            f"guest on {t.n} vertices exceeds min(n, min_degree+2) = {min(g.n, delta + 2)}"
        )
    if t.n <= delta + 1:
        return Contains(chvatal_extend(g, t, PartialEmbedding({})), branch="chvatal")

    # t.n == delta + 2 from here on
    star_center = _is_star(t)
    regular = g.max_degree() == delta
    if star_center is not None and t.degree(star_center) == delta + 1 and regular:
        return NotContained(reason="regular host, star guest on min_degree+2 vertices")

    leaf = min(t.leaves())
    anchor = min(t.adj(leaf))
    rest = set(range(t.n)) - {leaf}

    if not regular:
        u = min(v for v in range(g.n) if g.degree(v) > delta)
        partial = chvatal_extend(g, t, PartialEmbedding({anchor: u}), rest)
        free = sorted(g.closed_adj(u) - partial.image)
        if not free:
            raise AssertionError("high-degree vertex ran out of neighbors")
        full = partial.extended({leaf: free[0]})
    else:
        # Regular host, non-star guest: route a 3-vertex tree path onto a
        # host path that exits the anchor image's closed neighborhood.
        x = min(v for v in t.adj(anchor) if t.degree(v) > 1)
        y = min(v for v in t.adj(x) if v != anchor)
        u = 0
        vw = None
        for v in sorted(g.closed_adj(u)):
            outside = sorted(g.adj(v) - g.closed_adj(u))
            if outside:
                vw = (v, outside[0])
                break
        if vw is None:
            raise AssertionError("connected host has no edge leaving a closed neighborhood")
        v, w = vw
        if v == u:
            raise AssertionError("crossing edge cannot start at u itself")
        partial = chvatal_extend(g, t, PartialEmbedding({anchor: u, x: v, y: w}), rest)
        free = sorted(g.closed_adj(u) - partial.image)
        if not free:
            raise AssertionError("saved neighbor was lost")
        full = partial.extended({leaf: free[0]})

    if not verify(full, g, t, require_full=True):
        raise AssertionError("delta+2 construction produced an invalid embedding")
    return Contains(full, branch="delta-plus-two")


# -- leaf completion ---------------------------------------------------------------

def complete_leaves(
    g: Graph,
    t: Tree,
    leaves: Iterable[int],
    partial: PartialEmbedding,
) -> PartialEmbedding:
    """Finish an embedding whose image saved enough non-neighbors.

    The partial map covers a subtree of T minus the given k-1 leaves and
    occupies, for each leaf anchor w, at least ndef(image(w)) vertices
    outside N[image(w)].  Extends to T minus the leaves greedily, then places
    the leaves on free anchor neighbors in ascending-deficiency order.
    """
    leaf_list = list(leaves)
    delta = g.min_degree()
    k = t.n - delta
    if k < 1 or len(leaf_list) != k - 1:
        raise PreconditionViolated(
            f"expected {max(t.n - delta - 1, 0)} leaves for a guest on {t.n} vertices, got {len(leaf_list)}"
        )
    if len(set(leaf_list)) != len(leaf_list):
        raise PreconditionViolated("leaves must be distinct")
    for v in leaf_list:
        if t.degree(v) != 1:
            raise PreconditionViolated(f"vertex {v} is not a leaf")
    anchors = {v: min(t.adj(v)) for v in leaf_list}
    domain = set(partial.mapping)
    if domain & set(leaf_list):
        raise PreconditionViolated("partial domain must avoid the chosen leaves")
    if not set(anchors.values()) <= domain:
        raise PreconditionViolated("every leaf anchor must already be mapped")
    if not verify(partial, g, t):
        raise PreconditionViolated("partial embedding does not verify")
    for w in sorted(set(anchors.values())):
        image_w = partial.mapping[w]
        saved = len(partial.image - g.closed_adj(image_w))
        need = neighbor_deficiency(g, image_w, k)
        if saved < need:
            raise HypothesisNotMet(
                f"anchor {w} (image {image_w}) has {saved} saved non-neighbors, needs {need}"
            )

    trunk_target = set(range(t.n)) - set(leaf_list)
    trunk = chvatal_extend(g, t, partial, trunk_target)

    order = sorted(
        leaf_list,
        key=lambda v: (neighbor_deficiency(g, trunk.mapping[anchors[v]], k), v),
    )
    mapping = dict(trunk.mapping)
    used = set(trunk.image)
    for leaf in order:
        a_img = mapping[anchors[leaf]]
        options = sorted(g.adj(a_img) - used)
        if not options:
            raise AssertionError(f"no free neighbor left for leaf {leaf}")
        mapping[leaf] = options[0]
        used.add(options[0])
    out = PartialEmbedding(mapping)
    if not verify(out, g, t, require_full=True):
        raise AssertionError("leaf completion produced an invalid embedding")
    return out
