"""Partial embeddings: the certificate currency of the whole solver.

A PartialEmbedding is an injective, edge-preserving map from a connected
subtree of the guest tree into the host graph.  This module also houses the
greedy extension engine (attach the next vertex to a free neighbor of its
already-mapped tree neighbor) and the certificate text format.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import ParseError, PreconditionViolated, read_ascii, read_pairs
from .graph import Graph
from .trees import Tree


class PartialEmbedding:
    """Injective map from a subtree of T into G; treated as a value."""

    __slots__ = ("mapping", "image")

    def __init__(self, mapping: Mapping[int, int]):
        self.mapping: dict[int, int] = dict(mapping)
        self.image: frozenset[int] = frozenset(self.mapping.values())

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
    require_full: bool = False,
) -> bool:
    """Check every invariant of e against g and t: injective, in range,
    edge-preserving, with a connected domain, and the whole guest when
    `require_full`."""
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
    return inner == 2 * (len(mapping) - 1)


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
    AssertionError.  With `hosts`, the sorted vertices of one component
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
    if not verify(out, g, t, require_full=target is None):
        raise AssertionError("greedy extension produced an invalid embedding")
    return out


# -- certificate text format ----------------------------------------------------------

def format_certificate(e: PartialEmbedding) -> str:
    lines = [f"{tv} {gv}" for tv, gv in sorted(e.mapping.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_certificate(text: str) -> PartialEmbedding:
    mapping: dict[int, int] = {}
    pairs = read_pairs(text.splitlines(), 1, "expected `t_vertex g_vertex`", "non-integer vertex")
    for lineno, tv, gv in pairs:
        if tv in mapping:
            raise ParseError(f"tree vertex {tv} mapped twice", lineno)
        mapping[tv] = gv
    return PartialEmbedding(mapping)


def read_certificate(path) -> PartialEmbedding:
    return parse_certificate(read_ascii(path))


def write_certificate(path, e: PartialEmbedding) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_certificate(e))
