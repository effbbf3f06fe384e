"""Hosts barely larger than their minimum degree.

When min_degree+k <= n <= (1+eps)*min_degree with eps <= 1/(4k), every
outside vertex is adjacent to almost everything, so an embedding can always
be grown one leaf at a time: either the new leaf fits on a free neighbor, or
a local rewiring (swap a leaf image through a shared neighbor, or relocate a
whole vertex to an outside twin) makes room.
"""

from __future__ import annotations

from ..embedding import PartialEmbedding, verify
from ..errors import PreconditionViolated
from ..graph import Graph
from ..trees import Tree
from .lemmas import chvatal_extend, leaf_degree


def hitting_set_lower_bound(t: Tree) -> int:
    """No hitting set of the family {N_T(v)} is smaller than
    ceil((n - 3*leaves + 6)/2), clamped at zero."""
    if t.n < 2:
        raise PreconditionViolated("needs at least two vertices")
    leaves = len(t.leaves())
    raw = t.n - 3 * leaves + 6
    return max(-(-raw // 2), 0)


def _removal_order(t: Tree, k: int, base_size: int) -> list[int]:
    """Leaves to delete, last-removed first, keeping leaf degree monotone.

    Repeatedly deletes a leaf u with ld(T-u) <= ld(T); the guest shrinks to
    base_size vertices.  Works on vertex sets of the original tree.
    """
    alive = set(range(t.n))
    order: list[int] = []

    def deg(v: int) -> int:
        return len(t.adj(v) & alive)

    def ld_of(drop: int | None) -> int:
        live = alive if drop is None else alive - {drop}
        leaves_now = {v for v in live if len(t.adj(v) & live) == 1}
        if len(live) == 1:
            leaves_now = set(live)
        best = 0
        for v in live:
            best = max(best, len(t.adj(v) & live & leaves_now))
        return best

    while len(alive) > base_size:
        current = ld_of(None)
        pick = None
        for u in sorted(v for v in alive if deg(v) == 1):
            if ld_of(u) <= current:
                pick = u
                break
        if pick is None:
            raise AssertionError("no leaf keeps the leaf degree monotone")
        alive.discard(pick)
        order.append(pick)
    order.reverse()
    return order


def embed_dense(g: Graph, t: Tree, k: int, enforce: bool = True) -> PartialEmbedding:
    """Always-succeeding embedding in the dense regime (leaf degree < k)."""
    delta = g.min_degree()
    if enforce:
        if k < 1:
            raise PreconditionViolated("k must be at least 1")
        if not (delta + k <= g.n):
            raise PreconditionViolated("host must have at least min_degree+k vertices")
        if 4 * k * (g.n - delta) > delta:
            raise PreconditionViolated(
                f"host on {g.n} vertices too large for min degree {delta} at k={k}"
            )
        if delta < 12 * k * k:
            raise PreconditionViolated(f"min degree {delta} below 12k^2 = {12 * k * k}")
        if t.n > delta + k:
            raise PreconditionViolated("guest too large")
        if t.n >= 2 and leaf_degree(t)[0] >= k:
            raise PreconditionViolated(f"leaf degree must stay below {k}")

    base_size = min(t.n, delta + 1)
    removal = _removal_order(t, k, base_size)
    base_vertices = set(range(t.n)) - set(removal)
    mapping = dict(
        chvatal_extend(g, t, PartialEmbedding({}), base_vertices).mapping
    )

    alive = set(base_vertices)
    for u in removal:
        v = min(t.adj(u) & alive)
        alive.add(u)
        _add_leaf(g, t, mapping, alive, u, v, k)
        current = PartialEmbedding(mapping)
        if not verify(current, g, t):
            raise AssertionError("rewiring broke the embedding invariants")
    out = PartialEmbedding(mapping)
    if not verify(out, g, t, require_full=True):
        raise AssertionError("dense construction produced an invalid embedding")
    return out


def _add_leaf(
    g: Graph,
    t: Tree,
    mapping: dict[int, int],
    alive: set[int],
    u: int,
    v: int,
    k: int,
) -> None:
    """Place leaf u (tree neighbor v); rewire when no free neighbor exists."""
    used = set(mapping.values())
    image_v = mapping[v]
    free = sorted(g.adj(image_v) - used)
    if free:
        mapping[u] = free[0]
        return

    delta = g.min_degree()
    eps_delta = g.n - 1 - delta  # every vertex has at most this many non-neighbors
    leaves_now = {x for x in alive if len(t.adj(x) & alive) == 1}
    leafy = {x for x in alive if (t.adj(x) & alive & leaves_now) and x != u}

    many_leaves = len(leaves_now) >= (eps_delta + k + 1) * (k - 1)
    if many_leaves and _swap_leaf_through(g, t, mapping, alive, u, v, leafy):
        return
    if _relocate_vertex(g, t, mapping, alive, u, v):
        return
    if _swap_leaf_through(g, t, mapping, alive, u, v, leafy):
        return
    raise AssertionError("dense rewiring exhausted both branches")


def _swap_leaf_through(
    g: Graph,
    t: Tree,
    mapping: dict[int, int],
    alive: set[int],
    u: int,
    v: int,
    leafy: set[int],
) -> bool:
    """Re-hang some leaf image onto an outside vertex, freeing a neighbor of
    the image of v for u."""
    used = set(mapping.values())
    image_v = mapping[v]
    outside = sorted(set(range(g.n)) - used)
    for x in sorted(leafy - {v}):
        candidates = [
            lx
            for lx in t.adj(x) & alive
            if len(t.adj(lx) & alive) == 1 and lx != u and image_v in g.adj(mapping[lx])
        ]
        for lx in sorted(candidates):
            for w in outside:
                if w in g.adj(mapping[x]):
                    # u takes the old leaf image next to v; the leaf moves to w
                    mapping[u] = mapping[lx]
                    mapping[lx] = w
                    return True
    return False


def _relocate_vertex(
    g: Graph,
    t: Tree,
    mapping: dict[int, int],
    alive: set[int],
    u: int,
    v: int,
) -> bool:
    """Move a whole vertex x to an outside vertex adjacent to all of x's tree
    neighborhood; u takes x's old image next to v."""
    used = set(mapping.values())
    image_v = mapping[v]
    outside = sorted(set(range(g.n)) - used)
    for w in outside:
        w_adj = g.adj(w)
        for x in sorted(alive - {v, u}):
            if image_v not in g.adj(mapping[x]):
                continue
            nbr_images = {mapping[y] for y in t.adj(x) & alive if y != u}
            if nbr_images <= w_adj:
                mapping[u] = mapping[x]
                mapping[x] = w
                return True
    return False
