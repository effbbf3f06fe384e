"""Partial embeddings: the certificate currency of the whole solver.

A PartialEmbedding is an injective, edge-preserving map from a connected
subtree of the guest tree into the host graph.  This module also houses the
greedy extension engine (attach the next vertex to a free neighbor of its
already-mapped tree neighbor), the delta+2 solver built on it, and leaf
completion.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import HypothesisNotMet, ParseError, PreconditionViolated, read_ascii
from .graph import Graph, neighbor_deficiency
from .outcome import Contains, NotContained, SolveOutcome
from .trees import Tree


class PartialEmbedding:
    """Injective map from a subtree of T into G; treated as a value."""

    __slots__ = ("mapping", "image")

    def __init__(self, mapping: Mapping[int, int]):
        self.mapping: dict[int, int] = dict(mapping)
        self.image: frozenset[int] = frozenset(self.mapping.values())

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.mapping)

    def __len__(self) -> int:
        return len(self.mapping)

    def __contains__(self, v: int) -> bool:
        return v in self.mapping

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialEmbedding) and self.mapping == other.mapping

    def extended(self, pairs: Mapping[int, int]) -> "PartialEmbedding":
        merged = dict(self.mapping)
        merged.update(pairs)
        return PartialEmbedding(merged)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PartialEmbedding({self.mapping!r})"


def verify(
    e: PartialEmbedding,
    g: Graph,
    t: Tree,
    *,
    require_connected: bool = True,
    require_full: bool = False,
) -> bool:
    """Check every invariant of e against g and t."""
    mapping = e.mapping
    if require_full and len(mapping) != t.n:
        return False
    if not mapping:
        return not require_full
    if len(set(mapping.values())) != len(mapping):
        return False
    for tv, gv in mapping.items():
        if not (0 <= tv < t.n and 0 <= gv < g.n):
            return False
    adj = g.adjacency()
    inner = 0  # guest edges inside the domain, each counted from both ends
    for tv, gv in mapping.items():
        near = adj[gv]
        for tu in t.adj(tv):
            gu = mapping.get(tu)
            if gu is not None:
                if gu not in near:
                    return False
                inner += 1
    # a forest is connected when it has one edge fewer than vertices
    return not require_connected or inner == 2 * (len(mapping) - 1)


# -- greedy extension engine ---------------------------------------------------

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

    if not out:
        seed = min(adjacency)
        pool = sorted(allowed - used) if allowed is not None else range(g.n)
        for gv in pool:
            if gv not in used:
                out[seed] = gv
                used.add(gv)
                break
        else:
            raise AssertionError("no vertex available to seed the embedding")

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
    hosts: Sequence[int] | None = None,
) -> PartialEmbedding:
    """Extend a partial embedding to all of t (or to `target`).

    Guaranteed to succeed whenever the target has at most min_degree(G)+1
    vertices; a failure past the precondition check is a bug and raises
    AssertionError.  With `hosts`, the sorted vertex list of one component
    of G, an empty partial embedding grows inside that component from its
    lowest vertex, and the component's minimum degree is the one that counts.
    """
    targets = set(range(t.n)) if target is None else set(target)
    delta = g.min_degree(hosts)
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
    elif hosts is not None:
        # the greedy's own seed, lowest target vertex on lowest host vertex
        mapping = {min(targets): hosts[0]}
    result = greedy_extend(g, t, mapping, targets)
    out = PartialEmbedding(result)
    if not verify(out, g, t):
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
                f"anchor {w} (image {image_w}) has {saved} saved non-neighbors, needs {need}",
                witness=w,
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


# -- certificate text format ----------------------------------------------------------

def format_certificate(e: PartialEmbedding) -> str:
    lines = [f"{tv} {gv}" for tv, gv in sorted(e.mapping.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_certificate(text: str) -> PartialEmbedding:
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError("expected `t_vertex g_vertex`", lineno)
        try:
            tv, gv = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer vertex", lineno) from None
        if tv in mapping:
            raise ParseError(f"tree vertex {tv} mapped twice", lineno)
        mapping[tv] = gv
    return PartialEmbedding(mapping)


def read_certificate(path) -> PartialEmbedding:
    return parse_certificate(read_ascii(path))


def write_certificate(path, e: PartialEmbedding) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_certificate(e))
