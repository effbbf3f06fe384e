"""Guests with a vertex adjacent to many leaves.

When some tree vertex has at least k-1 leaf neighbors, an embedding only has
to save that one vertex's deficiency.  Three mechanisms, tried in order by
the driver: plain exhaustive/color-coding search when the host's minimum
degree is small; an annotated hitting search anchored at the witness when
the tree has no long path out of it; and otherwise a direct construction
that walks out of a neighborhood (or exploits density) and finishes with
leaf completion.
"""

from __future__ import annotations

from random import Random

from ..embedding import PartialEmbedding
from ..errors import PreconditionViolated
from ..graph import Graph
from ..outcome import Contains, NotContained, NotFound, SolveOutcome
from ..seeds import rng_from
from ..trees import Tree
from .ahsc import AhscInstance, contains_tree_by_size, solve_ahsc
from .lemmas import (
    HypothesisNotMet,
    bfs_distances,
    complete_leaves,
    farthest_from,
    greedy_walk,
    leaf_degree,
    neighbor_deficiency,
)


def expanding_vertices(g: Graph, v: int, k: int) -> set[int]:
    """Neighbors of v with at least k-1 neighbors of their own outside N[v]."""
    closed = g.adj(v) | {v}
    return {w for w in g.adj(v) if len(g.adj(w) - closed) >= k - 1}


def build_expanding_walk(g: Graph, v: int, length: int, k: int) -> list[int]:
    """A simple path from v with at least k-1 vertices outside N[v].

    Three-rule automaton: outside the neighborhood walk anywhere; on a
    non-expanding neighbor step to an expanding one; on an expanding
    neighbor step out.  Needs >= 3k expanding vertices around v; the
    outside-count postcondition then holds even when the walk halts early.
    """
    expanding = expanding_vertices(g, v, k)
    if len(expanding) < 3 * k:
        raise HypothesisNotMet(f"vertex {v} has {len(expanding)} expanding neighbors, needs {3 * k}")
    open_nbrs = g.adj(v)
    closed = g.adj(v) | {v}
    walk = [v]
    used = {v}
    while len(walk) - 1 < length:
        x = walk[-1]
        if x not in open_nbrs:
            options = sorted(g.adj(x) - used)
        elif x in expanding:
            options = sorted((g.adj(x) - closed) - used)
        else:
            options = sorted((g.adj(x) & expanding) - used)
        if not options:
            break
        walk.append(options[0])
        used.add(options[0])
    outside = sum(1 for w in walk if w not in closed)
    if outside < k - 1:
        raise AssertionError(
            f"expanding walk saved only {outside} outside vertices, needs {k - 1}"
        )
    return walk


def _leaf_block(t: Tree, s: int, k: int) -> list[int]:
    leaves = sorted(x for x in t.adj(s) if t.degree(x) == 1)
    if len(leaves) < k - 1:
        raise PreconditionViolated(
            f"vertex {s} has {len(leaves)} leaf neighbors, needs {k - 1}"
        )
    return leaves[: k - 1]


def _path_from(t: Tree, s: int, length: int) -> list[int]:
    path = farthest_from(t, s)
    if len(path) - 1 < length:
        raise PreconditionViolated(
            f"no path of length {length} starts at tree vertex {s}"
        )
    return path[: length + 1]


def embed_high_leaf_degree_unconditional(
    g: Graph,
    t: Tree,
    s: int,
    k: int,
    min_delta: int | None = None,
) -> PartialEmbedding:
    """Always-succeeding construction for the long-path, healthy-degree case.

    Case ladder: a host vertex of degree >= min_degree+k-1 anchors directly;
    else an expanding neighborhood yields a walk that saves k-1 outside
    vertices; else the host is locally dense and a short path out of (or
    between) neighborhoods does the saving.  Ends with leaf completion.
    """
    delta = g.min_degree()
    threshold = 11 * k * k if min_delta is None else min_delta
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    if delta < threshold:
        raise PreconditionViolated(f"min degree {delta} below threshold {threshold}")
    if g.n < t.n:
        raise PreconditionViolated("host smaller than guest")
    leaves = _leaf_block(t, s, k)
    path = _path_from(t, s, 3 * k)

    # (a) a single high-degree vertex suffices
    rich = [v for v in range(g.n) if g.degree(v) >= delta + k - 1]
    if rich:
        return complete_leaves(g, t, leaves, PartialEmbedding({s: rich[0]}))

    # (b) expanding neighborhood: walk out of it
    for v in range(g.n):
        if len(expanding_vertices(g, v, k)) >= 3 * k:
            walk = build_expanding_walk(g, v, 3 * k, k)
            partial = PartialEmbedding(dict(zip(path, walk)))
            return complete_leaves(g, t, leaves, partial)

    # (c) dense case
    prefix = path[: k + 1]
    emb = _embed_dense_far_pair(g, t, k, prefix) or _embed_dense_close_pair(g, t, k, prefix)
    if emb is None:
        raise AssertionError(
            "dense sub-case reached a contradiction branch with verified preconditions"
        )
    return complete_leaves(g, t, leaves, emb)


def _embed_dense_far_pair(g: Graph, t: Tree, k: int, prefix: list[int]) -> PartialEmbedding | None:
    """Distance-3 pair: route the prefix out through a shortest path and keep
    going among the far endpoint's non-expanding neighbors."""
    for u0 in range(g.n):
        dist = bfs_distances(g, u0)
        far = sorted(v for v in range(g.n) if dist[v] == 3)
        for v0 in far:
            pool = (g.adj(v0) - expanding_vertices(g, v0, k)) - (g.adj(u0) | {u0})
            bs = sorted(b for b in g.adj(v0) if dist[b] == 2)
            bs.sort(key=lambda b: (b not in pool, b))
            for b in bs:
                mids = sorted(a for a in g.adj(u0) & g.adj(b))
                if not mids:
                    continue
                a = mids[0]
                used = {u0, a, b}
                tail = greedy_walk(g, b, pool, used, k - 2)
                if tail is None:
                    continue
                images = [u0, a, b] + tail
                return PartialEmbedding(dict(zip(prefix, images)))
    return None


def _embed_dense_close_pair(g: Graph, t: Tree, k: int, prefix: list[int]) -> PartialEmbedding | None:
    """Diameter-2 fallback: a non-adjacent pair with few common neighbors."""
    for u0 in range(g.n):
        nonexp = g.adj(u0) - expanding_vertices(g, u0, k)
        for v0 in range(g.n):
            if v0 == u0 or v0 in g.adj(u0):
                continue
            common = g.adj(u0) & g.adj(v0)
            if len(common) >= 6 * k:
                continue
            pool = nonexp - g.adj(v0) - {v0}
            for mid in sorted(common):
                used = {v0, mid, u0}
                tail = greedy_walk(g, u0, pool, used, k - 2)
                if tail is None:
                    continue
                images = [v0, mid, u0] + tail
                return PartialEmbedding(dict(zip(prefix, images)))
    return None


def solve_high_leaf_degree(
    g: Graph,
    t: Tree,
    k: int,
    failure_exponent: int,
    rng: Random,
    min_delta: int | None = None,
    path_length: int | None = None,
    node_budget: int | None = None,
) -> SolveOutcome:
    """Driver for guests with leaf degree >= k-1.

    Branches: small min degree -> plain containment search; no long path
    from the witness -> anchored hitting search over all candidate images;
    otherwise the unconditional construction.
    """
    delta = g.min_degree()
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    ld, witness = leaf_degree(t)
    if ld < k - 1:
        raise PreconditionViolated(f"leaf degree {ld} below {k - 1}")
    threshold = 11 * k * k if min_delta is None else min_delta
    needed_path = 3 * k if path_length is None else path_length

    if delta < threshold:
        return contains_tree_by_size(g, t, failure_exponent, rng, node_budget)

    if len(farthest_from(t, witness)) - 1 < needed_path:
        s_leaves = frozenset(x for x in t.adj(witness) if t.degree(x) == 1)
        exact_all = True
        rounds = 0
        for v in range(g.n):
            need = neighbor_deficiency(g, v, k)
            family = (frozenset(range(g.n)) - (g.adj(v) | {v}), need)
            inst = AhscInstance.make(g, t, {witness: v}, [family])
            res = solve_ahsc(inst, failure_exponent, rng_from(rng.getrandbits(63), v))
            rounds += res.trials
            exact_all = exact_all and res.exact
            if res.found:
                trimmed = {
                    tv: gv for tv, gv in res.embedding.mapping.items() if tv not in s_leaves
                }
                leaves = _leaf_block(t, witness, k)
                full = complete_leaves(g, t, leaves, PartialEmbedding(trimmed))
                return Contains(full, branch="high-leaf-anchored")
        if exact_all:
            return NotContained(reason="anchored search exhausted all images")
        return NotFound(rounds=rounds, failure_exponent=failure_exponent)

    emb = embed_high_leaf_degree_unconditional(g, t, witness, k, min_delta=threshold)
    return Contains(emb, branch="high-leaf-walk")
