"""Preserving sets and paths: save every vertex's deficiency at once.

A vertex set S is k-preserving when every outside vertex has at least
ndef(v) non-neighbors inside S.  Mapping a long tree path onto a preserving
path then lets the rest of the tree grow greedily with no further
bookkeeping.  Constructions: shortest paths (few neighbors per outside
vertex), modulator insertion, hop-concatenation of a preserving set, and a
greedy anti-dominating set for building preserving sets in the first place.

Every constructor re-checks its output; the checks are part of the
operations, not just the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ..embedding import PartialEmbedding, verify
from ..errors import PreconditionViolated
from ..graph import Graph
from ..trees import Tree
from .lemmas import (
    RootedView,
    components_avoiding,
    diametral_path,
    greedy_extend,
    greedy_walk,
    neighbor_deficiency,
    shortest_path_between,
    tree_diameter,
)


@dataclass(frozen=True)
class PreservingPath:
    """A path in the host whose vertex set is k-preserving."""

    vertices: tuple[int, ...]
    k: int

    def __len__(self) -> int:
        return len(self.vertices)


def _is_path(g: Graph, vertices: tuple[int, ...]) -> bool:
    if len(set(vertices)) != len(vertices):
        return False
    return all(g.has_edge(a, b) for a, b in zip(vertices, vertices[1:]))


def preserving_violator(g: Graph, s: Iterable[int], k: int) -> int | None:
    """Lowest outside vertex with too few non-neighbors in s, or None."""
    inside = frozenset(s)
    for v in range(g.n):
        if v in inside:
            continue
        non_neighbors = len(inside - g.adj(v))
        if non_neighbors < neighbor_deficiency(g, v, k):
            return v
    return None


def is_k_preserving(g: Graph, s: Iterable[int], k: int) -> bool:
    return preserving_violator(g, s, k) is None


def _checked(g: Graph, vertices: list[int], k: int, length_bound: int | None) -> PreservingPath:
    path = tuple(vertices)
    if not _is_path(g, path):
        raise AssertionError("construction did not produce a simple path")
    violator = preserving_violator(g, path, k)
    if violator is not None:
        raise AssertionError(f"vertex {violator} breaks the preserving property")
    if length_bound is not None and len(path) - 1 > length_bound:
        raise AssertionError(f"path length {len(path) - 1} exceeds bound {length_bound}")
    return PreservingPath(path, k)


# -- using a preserving path -------------------------------------------------------

def embed_via_preserving_path(g: Graph, t: Tree, p: PreservingPath, k: int) -> PartialEmbedding:
    """Embed a guest whose diameter is at least 2|V(P)|-1.

    Splits a (2|V(P)|-1)-edge guest path at its middle edge, maps the half on
    the smaller side onto P, places that half's tree neighbors, then grows
    the rest greedily: off-path images always keep a free neighbor because P
    already covers their deficiency.
    """
    delta = g.min_degree()
    m = len(p.vertices)
    if delta < k:
        raise PreconditionViolated(f"min degree {delta} below k={k}")
    if t.n > delta + k:
        raise PreconditionViolated(f"guest exceeds min_degree+{k} vertices")
    if not is_k_preserving(g, p.vertices, k):
        raise PreconditionViolated("path is not k-preserving")
    diam_path = diametral_path(t)
    if len(diam_path) - 1 < 2 * m - 1:
        raise PreconditionViolated(
            f"guest diameter {len(diam_path) - 1} below 2|V(P)|-1 = {2 * m - 1}"
        )
    q = diam_path[: 2 * m]

    # side sizes after removing the middle edge
    view = RootedView.build(t, q[m - 1])
    cut_child = q[m]
    far_side = view.size[cut_child]
    near_side = t.n - far_side
    if near_side <= far_side:
        half = q[m - 1 :: -1]  # q[0..m-1], anchored at the cut
    else:
        half = q[m : 2 * m]
    mapping = dict(zip(half, p.vertices))
    used = set(p.vertices)

    # place every tree neighbor of the mapped half
    half_set = set(half)
    fringe = sorted(
        {x for r in half for x in t.adj(r) if x not in half_set}
    )
    for x in fringe:
        anchor = next(r for r in half if x in t.adj(r))
        options = sorted(g.adj(mapping[anchor]) - used)
        if not options:
            raise AssertionError("ran out of neighbors while placing the fringe")
        mapping[x] = options[0]
        used.add(options[0])

    # grow the remainder; the preserving property guarantees free neighbors
    mapping = greedy_extend(g, t, mapping, range(t.n))
    out = PartialEmbedding(mapping)
    if not verify(out, g, t, require_full=True):
        raise AssertionError("preserving-path construction produced an invalid embedding")
    return out


# -- constructions ------------------------------------------------------------------

def _insert_modulator(g: Graph, path: list[int], pool: Iterable[int], k: int) -> list[int]:
    """First-fit insertion of pool vertices between consecutive neighbors."""
    remaining = sorted(set(pool) - set(path))
    changed = True
    while changed and remaining:
        changed = False
        for u in list(remaining):
            spot = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(path, path[1:]))
                    if g.has_edge(u, a) and g.has_edge(u, b)
                ),
                None,
            )
            if spot is not None:
                path.insert(spot + 1, u)
                remaining.remove(u)
                changed = True
    for u in remaining:
        non_nbrs = len(set(path) - g.adj(u))
        if non_nbrs < len(path) // 2:
            raise AssertionError("uninsertable modulator vertex kept too few non-neighbors")
    return path


def modulator_to_preserving_path(g: Graph, s: Iterable[int], k: int) -> PreservingPath:
    """Preserving path of length <= 4k-2+|S| from a diameter modulator S.

    Connected remainder: a shortest path realizing distance exactly 2k, then
    insert S vertices.  Disconnected remainder: bridge two components with
    length-(k-1) arms through a shortest connector, then insert.
    """
    s_set = set(s)
    delta = g.min_degree()
    if not g.is_connected():
        raise PreconditionViolated("host must be connected")
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    if delta < len(s_set) + k - 1:
        raise PreconditionViolated(
            f"min degree {delta} below |S|+k-1 = {len(s_set) + k - 1}"
        )
    bound = 4 * k - 2 + len(s_set)
    rest = [v for v in range(g.n) if v not in s_set]
    if not rest:
        raise PreconditionViolated("S covers the whole graph")

    forbidden = frozenset(s_set)
    comps = components_avoiding(g, forbidden)

    if len(comps) == 1:
        path = _distance_2k_path(g, forbidden, rest, k)
        if path is None:
            raise PreconditionViolated("remainder graph has diameter below 2k")
        return _checked(g, _insert_modulator(g, path, s_set, k), k, bound)

    # disconnected remainder: if the whole host already has long shortest
    # paths, drop S and use the connected construction directly
    whole = _distance_2k_path(g, frozenset(), list(range(g.n)), k)
    if whole is not None:
        return _checked(g, whole, k, bound)

    c1, c2 = comps[0], comps[1]
    q = shortest_path_between(g, c1, c2)
    if q is None:
        raise AssertionError("connected host has no path between components")
    arm1 = greedy_walk(g, q[0], set(c1), q, k - 1)
    arm2 = None if arm1 is None else greedy_walk(g, q[-1], set(c2), q + arm1, k - 1)
    if arm2 is None:
        raise AssertionError("component too thin for the arm; degree bound broken")
    path = list(reversed(arm1)) + q + arm2
    return _checked(g, _insert_modulator(g, path, s_set, k), k, bound)


def _distance_2k_path(
    g: Graph, forbidden: frozenset[int], rest: list[int], k: int
) -> list[int] | None:
    """A shortest path realizing distance exactly 2k in G minus forbidden."""
    for u in sorted(rest):
        dist = g.bfs_distances(u, forbidden)
        targets = [v for v in rest if 2 * k <= dist[v] < g.n]
        if not targets:
            continue
        target = min(targets, key=lambda v: (dist[v], v))
        path = shortest_path_between(g, [u], [target], forbidden)
        if path is None:
            continue
        return path[: 2 * k + 1]
    return None


def set_to_preserving_path(g: Graph, s: Iterable[int], k: int) -> PreservingPath:
    """Preserving path of length <= (2k-1)|S| threading a preserving set.

    Joins the set in ascending order by short hops in the unused remainder;
    a long or missing hop certifies a large-diameter remainder, and the
    modulator construction takes over on the accumulated prefix.
    """
    s_list = sorted(set(s))
    delta = g.min_degree()
    if not g.is_connected():
        raise PreconditionViolated("host must be connected")
    if not is_k_preserving(g, s_list, k):
        raise PreconditionViolated("input set is not k-preserving")
    if delta < (2 * k - 1) * len(s_list):
        raise PreconditionViolated(
            f"min degree {delta} below (2k-1)|S| = {(2 * k - 1) * len(s_list)}"
        )
    bound = (2 * k - 1) * max(len(s_list), 1)
    if not s_list:
        return _checked(g, [0], k, bound)

    path = [s_list[0]]
    remaining = s_list[1:]
    while remaining:
        nxt = next((v for v in remaining if v not in path), None)
        if nxt is None:
            break
        remaining = [v for v in remaining if v != nxt and v not in path]
        blocked = frozenset(path[:-1])
        hop = shortest_path_between(g, [path[-1]], [nxt], blocked)
        if hop is None or len(hop) - 1 > 2 * k - 1:
            return _fallback_via_modulator(g, path, k, bound)
        path.extend(hop[1:])
    return _checked(g, path, k, bound)


def _fallback_via_modulator(g: Graph, prefix: list[int], k: int, bound: int) -> PreservingPath:
    modulator = set(prefix[:-1])
    out = modulator_to_preserving_path(g, modulator, k)
    if len(out.vertices) - 1 > bound:
        raise AssertionError("fallback exceeded the (2k-1)|S| bound")
    return out


# -- preserving sets ------------------------------------------------------------------

def anti_dominating_set(
    g: Graph,
    epsilon: Fraction | float,
    size_cap: int | None = None,
    excluded: Iterable[int] = (),
) -> set[int]:
    """Greedy set with a non-neighbor for every low-degree vertex.

    A = vertices of degree below (1+eps)*min_degree (within G minus
    `excluded`).  Repeatedly picks the vertex non-adjacent to the most
    uncovered A-vertices; the greedy dominates the averaging argument, so
    |S| stays below 4*log2(min_degree)/log2(1+eps) + 1.
    """
    eps = Fraction(epsilon) if not isinstance(epsilon, Fraction) else epsilon
    if eps <= 0:
        raise PreconditionViolated("epsilon must be positive")
    dropped = frozenset(excluded)
    live = [v for v in range(g.n) if v not in dropped]
    if not live:
        raise PreconditionViolated("nothing left after exclusions")
    if dropped:
        deg = {v: g.degree(v) - len(g.adj(v) & dropped) for v in live}
    else:
        deg = {v: g.degree(v) for v in live}
    delta = min(deg.values())
    n_live = len(live)
    if delta < 2:
        raise PreconditionViolated(f"min degree {delta} below 2")
    if n_live < (1 + eps) * (1 + eps) * delta:
        raise PreconditionViolated("graph too small for the averaging argument")
    cap = size_cap
    if cap is None:
        cap = math.floor(4 * math.log2(delta) / math.log2(1 + float(eps))) + 1

    uncovered = {v for v in live if deg[v] < (1 + eps) * delta}
    out: set[int] = set()
    while uncovered:
        best, best_count = -1, -1
        for u in live:
            count = sum(1 for a in uncovered if a != u and a not in g.adj(u))
            if count > best_count:
                best, best_count = u, count
        if best_count == 0:
            raise PreconditionViolated(
                "a low-degree vertex has no non-neighbor at all; "
                "the averaging argument needs more room"
            )
        out.add(best)
        uncovered = {a for a in uncovered if a == best or best in g.adj(a)}
        uncovered.discard(best)
        if len(out) > cap:
            raise AssertionError(f"greedy exceeded the size cap {cap}")
    return out


def build_preserving_set(
    g: Graph,
    k: int,
    p: int,
    q: float | None = None,
    enforce: bool = True,
) -> set[int]:
    """k-preserving set of size <= q*k via k-1 anti-dominating rounds.

    q defaults to 4*k**p*log2(min_degree); each round runs on the host minus
    what was already picked, so the rounds contribute disjoint non-neighbors.
    """
    delta = g.min_degree()
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    if q is None:
        q = 4 * (k ** p) * math.log2(max(delta, 2))
    eps = Fraction(1, k ** p)
    if enforce:
        if g.n < (1 + 3 * float(eps)) * delta + q * k:
            raise PreconditionViolated("host too small for the preserving-set bound")
        if delta < q * k * (k ** p + 1):
            raise PreconditionViolated("min degree too small for the preserving-set bound")
    out: set[int] = set()
    for _ in range(k - 1):
        out |= anti_dominating_set(g, eps, excluded=out)
    if len(out) > q * k:
        raise AssertionError(f"preserving set size {len(out)} exceeds qk = {q * k}")
    if not is_k_preserving(g, out, k):
        raise AssertionError("assembled set is not k-preserving")
    return out


# -- the large-diameter driver ----------------------------------------------------------

def solve_large_diameter(
    g: Graph,
    t: Tree,
    k: int,
    p: int = 4,
    enforce: bool = True,
) -> PartialEmbedding:
    """Guests of diameter >= 8k^6*log2(min_degree) always fit: build a
    preserving set, thread it into a path, embed through the path."""
    delta = g.min_degree()
    if enforce:
        if k < 3:
            raise PreconditionViolated("k must be at least 3")
        if not g.is_connected():
            raise PreconditionViolated("host must be connected")
        if g.n < (1 + 4 / k ** 4) * delta:
            raise PreconditionViolated("host has too few vertices")
        if delta <= k ** 16:
            raise PreconditionViolated(f"min degree {delta} not above k^16")
        if t.n > delta + k:
            raise PreconditionViolated("guest too large")
        if tree_diameter(t) < 8 * (k ** 6) * math.log2(delta):
            raise PreconditionViolated("guest diameter too small")
    s = build_preserving_set(g, k, p, enforce=enforce)
    path = set_to_preserving_path(g, s, k)
    return embed_via_preserving_path(g, t, path, k)
