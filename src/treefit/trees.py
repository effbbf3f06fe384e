"""Guest tree representation and the structural queries the solver dispatches on.

Subtrees are always vertex subsets of the original tree (induced edges),
never re-indexed, so partial embeddings stay composable across pipeline
stages.  Most helpers therefore take an optional `within` vertex set and
operate on the induced subtree.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import HypothesisNotMet, ParseError, TreeIsSeparableError, read_ascii


class Tree:
    """Connected acyclic graph on vertices 0..n-1 (checked at construction)."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("a tree has at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad tree edge ({u},{v})")
            if v in adj[u]:
                raise ValueError(f"duplicate tree edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        if m != n - 1:
            raise ValueError(f"tree on {n} vertices needs {n - 1} edges, got {m}")
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        if n > 1 and not self._connected():
            raise ValueError("tree edges do not form a connected graph")

    @classmethod
    def _from_adjacency(cls, adj: Iterable[Iterable[int]]) -> "Tree":
        """Tree from per-vertex neighbour collections that are already
        symmetric, loop-free and in range; the caller checks that they form
        a tree."""
        t = cls.__new__(cls)
        t._adj = tuple(map(frozenset, map(set, adj)))  # compact, as in Graph._from_adjacency
        t.n = len(t._adj)
        return t

    def _connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    # -- basic queries -----------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def adj(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def leaves(self) -> list[int]:
        if self.n == 1:
            return [0]
        return [v for v in range(self.n) if len(self._adj[v]) == 1]

    def rooted(self, root: int) -> "RootedView":
        return RootedView.build(self, root)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tree(n={self.n})"


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


# -- induced-subtree helpers ---------------------------------------------------

def _active(t: Tree, within: Iterable[int] | None) -> frozenset[int]:
    if within is None:
        return frozenset(range(t.n))
    active = frozenset(within)
    if not active:
        raise ValueError("empty vertex subset")
    if not all(0 <= v < t.n for v in active):
        raise ValueError("vertex subset out of range")
    return active


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


def leaf_count_lower_bound_holds(t: Tree, q: int) -> bool:
    """Executable assertion: n >= q*diam and diam >= 1 force >= q leaves."""
    diam = tree_diameter(t)
    if diam < 1 or t.n < q * diam:
        raise HypothesisNotMet(f"need diam >= 1 and n >= q*diam, got n={t.n}, diam={diam}, q={q}")
    if len(t.leaves()) < q:
        raise AssertionError(f"tree with n={t.n}, diam={diam} has fewer than {q} leaves")
    return True


# -- splits ---------------------------------------------------------------------

def find_separable_edge(t: Tree, q: int) -> tuple[int, int] | None:
    """An edge whose removal leaves two components of >= q vertices each."""
    if t.n < 2:
        raise ValueError("needs at least one edge")
    view = t.rooted(0)
    best: tuple[int, int] | None = None
    for v in range(1, t.n):
        side = view.size[v]
        if min(side, t.n - side) >= q:
            edge = tuple(sorted((v, view.parent[v])))
            if best is None or edge < best:
                best = edge  # lexicographically smallest, for reproducibility
    return best


def find_balanced_edge(t: Tree) -> tuple[int, int]:
    """Edge from a centroid to its largest component; both sides end up with
    at least ceil((n-1)/max_degree) vertices."""
    if t.n < 2:
        raise ValueError("needs at least one edge")
    view = t.rooted(0)
    centroid, best_heavy = 0, t.n
    for v in range(t.n):
        heavy = t.n - view.size[v]
        for c in view.children[v]:
            heavy = max(heavy, view.size[c])
        if heavy < best_heavy:  # ties break toward the smaller index
            centroid, best_heavy = v, heavy
    pieces = [(view.size[c], c) for c in view.children[centroid]]
    if view.parent[centroid] >= 0:
        pieces.append((t.n - view.size[centroid], view.parent[centroid]))
    size, other = max(pieces, key=lambda p: (p[0], -p[1]))
    max_deg = max(t.degree(v) for v in range(t.n))
    bound = -(-(t.n - 1) // max_deg)
    if min(size, t.n - size) < bound:
        raise AssertionError("balanced edge misses the degree bound")
    return tuple(sorted((centroid, other)))


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


@dataclass(frozen=True)
class ContractedTree:
    """Result of capping trivial-path lengths.

    Vertices keep original ids for terminals; contracted interiors are
    represented positionally (each path owes `owed[i]` edges back, to be
    re-expanded by whoever embeds the tree).
    """

    paths: tuple[tuple[int, ...], ...]           # kept vertex sequences
    original_paths: tuple[tuple[int, ...], ...]  # full sequences before capping
    owed: tuple[int, ...]                        # edges to re-insert per path


def contract_trivial_paths(t: Tree, cap: int, within: Iterable[int] | None = None) -> ContractedTree:
    """Shorten every maximal trivial path longer than cap to exactly cap edges.

    Path endpoints are preserved; the kept interior is the path's prefix.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    originals = maximal_trivial_paths(t, within)
    kept: list[tuple[int, ...]] = []
    owed: list[int] = []
    for path in originals:
        edges = len(path) - 1
        if edges > cap:
            kept.append(tuple(path[:cap] + [path[-1]]))
            owed.append(edges - cap)
        else:
            kept.append(tuple(path))
            owed.append(0)
    return ContractedTree(tuple(kept), tuple(p and tuple(p) for p in originals), tuple(owed))


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


# -- text format -------------------------------------------------------------------

# a well-formed tree text: `<digits>\n`, then edge lines `<digits> <digits>\n`
_TREE_TEXT = re.compile(r"[0-9]+\n(?:[0-9]+ [0-9]+\n)*")


def parse_tree(text: str) -> Tree:
    """Parse the tree text format: `n` then n-1 lines `u v`.

    Well-formed text is read in bulk passes: one shape check, one integer
    conversion, one range check, and connectivity.  `graph.parse_graph`
    takes only ids in the written form in bulk; this bulk path also takes
    ids with leading zeros, which `int` reads as the line reader does.  Any
    other text, and any edge set that is not a tree, goes through the
    line-by-line reader, which reports the error and its line.
    """
    if _TREE_TEXT.fullmatch(text):
        n, *ends = map(int, text.split())
        us, vs = ends[0::2], ends[1::2]
        if 1 <= n and len(us) == n - 1 and max(ends, default=0) < n:
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in zip(us, vs):
                adj[u].append(v)
                adj[v].append(u)
            t = Tree._from_adjacency(adj)
            # n - 1 lines connect n vertices only if none is a loop or a
            # repeated edge, so connectivity alone proves a tree
            if t._connected():
                return t
    return _parse_tree_lines(text)


def _parse_tree_lines(text: str) -> Tree:
    """Line-by-line reader: takes the loose forms and names the first bad line."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError("expected vertex count", 1) from None
    edges = []
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError("expected `u v`", lineno)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError("non-integer endpoint", lineno) from None
    try:
        return Tree(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def format_tree(t: Tree) -> str:
    out = [str(t.n)]
    out.extend(f"{u} {v}" for u, v in sorted(t.edges()))
    return "\n".join(out) + "\n"


def read_tree(path) -> Tree:
    return parse_tree(read_ascii(path))


def write_tree(path, t: Tree) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_tree(t))
