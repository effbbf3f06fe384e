"""Exact constrained search for a whole (sub)tree, and the guest plan it reads.

Layers: one guest plan, `_guest_plan`, which checks the pins and `within`
and lays the guest (sub)tree out by BFS position; and an exact
backtracking search, `exact_constrained_embed`, that embeds the whole
(sub)tree while honoring a pinned partial map and per-set hitting quotas,
under an optional node cap.  `solve` calls the search directly.  The
colorful DP of colour coding, which reads the same plan without the leaf
split, lives in the paper library (`treefit.paper.ahsc`), the only code
that uses it.

The search never errs: a returned embedding has passed `verify`, None is an
exact NO, and running out of nodes raises BudgetExceededError, which
decides nothing.
"""

from __future__ import annotations

import math
from itertools import compress, filterfalse, repeat
from operator import countOf, le
from typing import Iterable, Iterator, Mapping, Sequence

from .embedding import PartialEmbedding, verify
from .errors import BudgetExceededError
from .graph import Graph
from .trees import Tree, _active

Family = tuple[frozenset[int], int]

# search nodes the exact search may spend before it gives up
DEFAULT_NODE_BUDGET = 2_000_000


# -- the guest plan ------------------------------------------------------------

def _guest_plan(
    t: Tree, kappa: Mapping[int, int] | None, within: Iterable[int] | None, split: bool
) -> tuple[list[int], list[int], list[int | None], list[int], int]:
    """The guest (sub)tree by BFS position, as the search and the paper's
    colorful DP read it.

    Checks `within` (through `_active`), then the pins, then that the
    subtree is connected, raising ValueError.  The whole tree is read
    through its adjacency tuple, a `within` subtree through neighbour sets
    built once for it.  The BFS starts at the lowest pinned vertex, else
    (with `split`) the lowest non-leaf, else the lowest vertex, and takes
    children in ascending id.  With `split` and more than two vertices, the
    free leaves (childless, unpinned) follow the rest, the skeleton;
    without it, a position's children are the consecutive positions from
    `accumulate(kids_at, initial=1)`.  Returns per position the vertex, its
    parent's position (-1 at the root) and its pin or None; per skeleton
    position its number of children, and a spare 0; and the number of
    skeleton positions.
    """
    kappa = kappa or {}
    active = range(t.n) if within is None else _active(t, within)
    if not all(map(active.__contains__, kappa)):
        raise ValueError("pinned vertices must lie inside the guest subtree")
    adj = t.adjacency()
    near = adj if within is None else {v: adj[v] & active for v in active}  # neighbours in the subtree
    split = split and len(active) > 2
    if kappa:
        root = min(kappa)
    else:  # the lowest non-leaf when splitting, else (or if none) the lowest
        lowest = sorted(active)
        root = next((v for v in lowest if not split or len(near[v]) != 1), lowest[0])
    order, parent_at, kids_at = [root], [-1], []
    leaves: list[int] = []
    leaf_parent_at: list[int] = []
    for pos, u in enumerate(order):  # grows while it is read: a BFS queue
        kids = sorted(near[u])
        if pos:
            kids.remove(order[parent_at[pos]])  # a tree's only visited neighbour
        kids_at.append(len(kids))
        for v in kids:
            if split and len(near[v]) == 1 and v not in kappa:
                leaves.append(v)
                leaf_parent_at.append(pos)
            else:
                order.append(v)
                parent_at.append(pos)
    skeleton = len(order)
    order += leaves
    if len(order) != len(active):
        raise ValueError("guest subtree is not connected")
    parent_at += leaf_parent_at
    pin_at = list(map(kappa.get, order)) if kappa else [None] * len(order)
    kids_at.append(0)
    return order, parent_at, pin_at, kids_at, skeleton


# -- exact constrained search -----------------------------------------------------

def exact_constrained_embed(
    g: Graph,
    t: Tree,
    kappa: Mapping[int, int] | None = None,
    families: Sequence[Family] = (),
    within: Iterable[int] | None = None,
    node_cap: int | None = None,
    hosts: Sequence[int] | None = None,
) -> PartialEmbedding | None:
    """Deterministic backtracking: embed the whole guest, or its connected
    subset `within`, respecting the pins `kappa` and hitting at least the
    quota of every (set, quota) family, or return None.  Two pins on one
    host vertex raise ValueError before the first node.

    The guest is read in the order of `_guest_plan`, split into skeleton
    and free leaves unless there are quota families (then every vertex is a
    skeleton vertex).  Skeleton vertices are placed in that order: each on
    its pin if it has one, else the root on every host vertex of large
    enough degree and any other vertex on every free neighbour of its
    parent's image, in ascending order.  A candidate is skipped when it has
    fewer free neighbours than its vertex has children, or when taking it
    leaves a placed image fewer free neighbours than that vertex has
    children still to place; free neighbours are counted only where degrees
    do not settle it, and an untaken pinned image counts as free, which
    only prunes less.  With the skeleton placed, each leaf takes the lowest
    free neighbour of its parent's image, and a leaf that finds none looks
    for an augmenting path (Kuhn) that moves placed leaves aside.  Without
    one, no placement of the leaves exists, and the search goes straight
    back to the last skeleton position.  When the guest (or `within`) spans
    the host (or the component `hosts`), every unused vertex must take a
    leaf, so a leaf phase first checks that each unused vertex lies beside
    an anchor, the image of a vertex with leaves to place, and goes back at
    the first that does not, before it places any leaf (Hall's condition).
    A guest vertex of larger degree than every host vertex ends the search
    before its first node.

    Search nodes: every skeleton candidate tried (a used neighbour is
    skipped without counting, and so is a pinned image, reserved for its
    pin before the first node; a pin not beside its parent's image is no
    candidate and counts no node), every leaf placed greedily, and every
    host vertex an augmenting-path search reaches; the spanning check
    counts none.  More than `node_cap` nodes raise BudgetExceededError.

    On a dense host (4m >= n(n-1)) the unused host vertices are also kept in
    a doubly linked list, ascending, threaded through `nxt` and `prv`
    (dancing links) from the head n: taking a vertex unlinks it, and its own
    two links stay as they were, so putting it back relinks it in place.  A
    pinned image is never on the list; it links to itself, so taking it and
    putting it back change no link.  There, every unpinned skeleton vertex
    but the root takes its candidates by walking `nxt` to the next vertex
    beside its parent's image, and a greedily placed leaf walks to the first
    of them: the same vertices in the same order as a sorted neighbour list
    with the used and reserved ones skipped, so the node count is the same.
    Such a frame keeps no object of its own: its place on the list is
    `images[depth]`, the head when the frame is entered and then its last
    candidate, and it resumes at `nxt[images[depth]]`.  That link is valid
    when it is read: vertices leave and return in LIFO order, so everything
    taken after the frame's last candidate v, v itself included, is back
    in the list by then.  Free neighbours are counted over the neighbour
    set, and augmenting paths read sorted neighbour lists, as on a sparse
    host.

    `hosts`, the sorted vertices of one component of the host, keeps the
    search inside that component: the root goes only on its vertices, and
    the degree check, the density test and every count of unused vertices
    read the component alone, so the search runs as it would on a copy of
    the component.  A pin outside it, or on no host vertex, raises
    ValueError.

    The embedding it returns has passed `verify`, over the whole guest
    (`require_full`) when `within` is None; this is the one check of an
    exact-search certificate from `solve`.
    """
    fams = [(frozenset(F), int(q)) for F, q in families]
    order, parent_at, pin_at, kids_at, skeleton = _guest_plan(t, kappa, within, split=not fams)
    reserved = ()  # no unpinned vertex takes these
    if kappa:
        reserved = frozenset(kappa.values())
        if len(reserved) < len(kappa):
            raise ValueError("kappa must be injective")
        if not reserved.issubset(range(g.n) if hosts is None else hosts):
            raise ValueError("pinned images must lie inside `hosts` (the whole host when None)")
    size = len(order)
    cap = math.inf if node_cap is None else node_cap

    n = g.n
    count = n if hosts is None else len(hosts)  # the host vertices the search may use
    # a guest that spans the host (or the component) leaves every unused
    # vertex a leaf to take: the positions of the leaves' parents, whose
    # images are the anchors every unused vertex must lie beside
    anchor_at = set(parent_at[skeleton:]) if count == size else ()
    # a guest vertex of larger degree than every host vertex fits nowhere
    top = max(kids_at[0], max(kids_at[1:skeleton], default=-1) + 1)
    if not count or top > g.max_degree(hosts):
        return None
    adj = g.adjacency()
    degree = g.degrees()
    sorted_adj: dict[int, list[int]] = {}  # host vertex -> its neighbours, ascending
    images = [-1] * size
    used = [0] * (n + 1)  # host vertex -> 1 + the position on it, 0 while free
    # per skeleton position: the children not yet placed (the root's parent
    # position, -1, points at the spare last entry)
    pending = kids_at[:]
    # while d < floor[d], degrees alone show that every image placed before
    # position d keeps a free neighbour per child still to place
    floor = [n] * (skeleton + 1)
    counts = [0] * len(fams)
    nodes = 0
    # on a dense host (or component), its unused vertices in ascending
    # order, linked through n
    ends = 2 * g.edge_count if hosts is None else sum(map(degree.__getitem__, hosts))
    dense = 2 * ends >= count * (count - 1)
    if dense:
        if hosts is None:
            nxt = list(range(1, n + 1)) + [0]
            prv = [n] + list(range(n))
        else:
            nxt, prv = [n] * (n + 1), [n] * (n + 1)
            for a, b in zip([n, *hosts], [*hosts, n]):
                nxt[a], prv[b] = b, a
        for r in reserved:  # linked to itself, off the list: its pin's frame moves no link
            nxt[prv[r]], prv[nxt[r]] = nxt[r], prv[r]
            nxt[r] = prv[r] = r
        walk = repeat(n)  # every dense frame's iterator: n, again and again
        used[n] = 1  # n is no vertex: as a candidate it sends a dense frame along the list

    def neighbours_of(gv: int) -> list[int]:
        neighbours = sorted_adj.get(gv)
        if neighbours is None:
            neighbours = sorted_adj[gv] = sorted(adj[gv])
        return neighbours

    def free_count(v: int) -> int:
        """Unused neighbours of v."""
        return countOf(map(used.__getitem__, adj[v]), 0)

    def starves(gv: int, depth: int, parent: int) -> bool:
        """Whether taking gv leaves a placed image other than the parent's
        fewer free neighbours than its vertex has children to place."""
        for u in adj[gv]:
            q = used[u]
            if q and q != parent:
                # an image with no child left to place cannot starve: gv
                # itself is one of its free neighbours
                r = pending[q - 1]
                if r and r >= degree[u] - depth and free_count(u) <= r:
                    return True
        return False

    def augment(start: int, taken: list[int]) -> bool:
        """Kuhn's step for leaf position `start`: a path through neighbours
        held by other leaves to a free one; each leaf on it moves one step."""
        nonlocal nodes
        path, through, seen = [start], [], set()
        stack = [iter(neighbours_of(images[parent_at[start]]))]
        while stack:
            for v in stack[-1]:
                if v in seen or 0 < used[v] <= skeleton:
                    continue
                seen.add(v)
                nodes += 1
                if nodes > cap:
                    raise BudgetExceededError(nodes)
                if used[v]:
                    leaf = used[v] - 1
                    path.append(leaf)
                    through.append(v)
                    stack.append(iter(neighbours_of(images[parent_at[leaf]])))
                    break
                through.append(v)
                for leaf, w in zip(path, through):
                    images[leaf] = w
                    used[w] = leaf + 1
                if dense:
                    a, b = prv[v], nxt[v]
                    nxt[a], prv[b] = b, a
                taken.append(v)
                return True
            else:
                stack.pop()
                path.pop()
                if through:
                    through.pop()
        return False

    def place_leaves() -> bool:
        """Place every leaf position, or undo them all and return False."""
        nonlocal nodes
        if anchor_at:
            # Hall's condition on a spanning guest, before any placement
            anchors = {images[p] for p in anchor_at}
            for v in range(n) if hosts is None else hosts:
                if not used[v] and anchors.isdisjoint(adj[v]):
                    return False
        taken: list[int] = []  # in the order they left the linked list
        for pos in range(skeleton, size):
            anchor = images[parent_at[pos]]
            gv = -1
            if dense:  # the lowest unused neighbour, along the list
                near = adj[anchor]
                v = nxt[n]
                while v != n and v not in near:
                    v = nxt[v]
                if v != n:
                    gv = v
            else:
                for v in neighbours_of(anchor):
                    if not used[v]:
                        gv = v
                        break
            if gv < 0:
                if augment(pos, taken):
                    continue
                for v in reversed(taken):
                    used[v] = 0
                    if dense:
                        nxt[prv[v]] = prv[nxt[v]] = v
                return False
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(nodes)
            images[pos] = gv
            used[gv] = pos + 1
            if dense:
                a, b = prv[gv], nxt[gv]
                nxt[a], prv[b] = b, a
            taken.append(gv)
        return True

    # frames[d]: the candidates left at skeleton position d, set on entering
    # it; frames[skeleton] stays empty, so leaves that cannot be placed send
    # the loop straight back to the last skeleton position
    frames: list[Iterator[int]] = [iter(())] * (skeleton + 1)
    if pin_at[0] is not None:  # the root is pinned whenever anything is
        frames[0] = iter((pin_at[0],))
    elif hosts is None:  # the root goes on every host vertex of large enough degree
        frames[0] = compress(range(n), map(le, repeat(kids_at[0]), degree))
    else:
        frames[0] = compress(hosts, map(le, repeat(kids_at[0]), map(degree.__getitem__, hosts)))
    depth = 0
    while True:
        kids = kids_at[depth]
        need = kids + (depth > 0)
        parent = parent_at[depth] + 1  # as `used` marks its image
        for gv in frames[depth]:
            if used[gv]:
                if gv != n:
                    continue
                # a dense frame: the next unused neighbour of the parent's
                # image after its last image, which starts at the head
                near = adj[images[parent - 1]]
                gv = nxt[images[depth]]
                while gv != n and gv not in near:
                    gv = nxt[gv]
                if gv == n:
                    break
                images[depth] = gv
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(nodes)
            # a free neighbour per child, counted only when the degree minus
            # the placed vertices does not prove it, and one per child still
            # to place for each placed image
            d = degree[gv]
            if d < need or d - depth < kids and free_count(gv) < kids:
                continue
            if depth >= floor[depth] and starves(gv, depth, parent):
                continue
            if fams:
                # keep gv only if every quota stays reachable; at the last
                # position this is the final quota check
                remaining = size - depth - 1
                hits = [gv in F for F, _ in fams]
                if any(c + h + remaining < q for c, h, (_, q) in zip(counts, hits, fams)):
                    continue
                for i, h in enumerate(hits):
                    counts[i] += h
            images[depth] = gv
            used[gv] = depth + 1
            pending[parent - 1] -= 1
            low = floor[depth]
            floor[depth + 1] = low if low < d - kids else d - kids
            if dense:
                a, b = prv[gv], nxt[gv]
                nxt[a], prv[b] = b, a
            break
        else:
            gv = n
        if gv == n:  # every candidate failed: undo the previous placement
            depth -= 1
            if depth < 0:
                return None
            gv = images[depth]
            used[gv] = 0
            pending[parent_at[depth]] += 1
            if dense:
                nxt[prv[gv]] = prv[nxt[gv]] = gv
            for i, (F, _) in enumerate(fams):
                counts[i] -= gv in F
            continue
        depth += 1
        if depth == skeleton:
            if place_leaves():
                break
            continue
        pinned = pin_at[depth]
        if pinned is not None:  # the pin alone, if it lies beside the parent's image
            frames[depth] = iter((pinned,) if pinned in adj[images[parent_at[depth]]] else ())
        elif dense:  # its place on the list: the head
            frames[depth] = walk
            images[depth] = n
        else:
            frames[depth] = iter(neighbours_of(images[parent_at[depth]]))
            if reserved:
                frames[depth] = filterfalse(reserved.__contains__, frames[depth])

    emb = PartialEmbedding(zip(order, images))
    if not verify(emb, g, t, require_full=within is None):
        raise AssertionError("constrained search produced an invalid embedding")
    return emb
