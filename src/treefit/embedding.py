"""Partial embeddings: the certificate currency of the whole solver.

A PartialEmbedding is an injective, edge-preserving map from a connected
subtree of the guest tree into the host graph.  This module also houses
`verify`, the one check of every certificate, and the certificate text
format; Chvatal's greedy extension is in `treefit.paper.lemmas`.
"""

from __future__ import annotations

from typing import Mapping

from .errors import ParseError, read_ascii, read_pairs
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
