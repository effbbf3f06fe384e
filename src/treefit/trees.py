"""Guest tree type and the tree text format.

A `Tree` is a `Graph` (its adjacency, queries and edge checks) that is
connected and has n - 1 edges, checked at construction.  Subtrees are
always vertex subsets of the original tree (induced edges), never
re-indexed, so partial embeddings stay composable across pipeline stages;
`_active` checks such a `within` vertex set.

A tree's text has one reader, line by line, run with the cyclic collector
paused: a guest has at most min degree + k vertices, so its file is small
next to its host's, which `graph` reads in bulk.  A `str` reads as the file
of its UTF-8 bytes, and a line ends at LF (`errors.ascii_lines`).
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError, ascii_lines, integer, read_bytes, read_pairs
from .graph import Graph, _gc_paused


class Tree(Graph):
    """Connected graph on vertices 0..n-1, n >= 1, with n - 1 edges
    (checked at construction)."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("a tree has at least one vertex")
        super().__init__(n, edges)
        if self.edge_count != n - 1:
            raise ValueError(f"tree on {n} vertices needs {n - 1} edges, got {self.edge_count}")
        if not self._spans():
            raise ValueError("tree edges do not form a connected graph")

    def _spans(self) -> bool:
        """Whether the walk from vertex 0 reaches every vertex.  Its own walk,
        not `components()`: that sorts the vertices into a host table that a
        guest never reads, and keeps it for the tree's lifetime."""
        adj = self._adj
        seen = {0}
        for u in (order := [0]):  # grows while it is read: a BFS queue
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        return len(order) == self.n

    def leaves(self) -> list[int]:
        if self.n == 1:
            return [0]
        return [v for v in range(self.n) if len(self._adj[v]) == 1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tree(n={self.n})"


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


# -- text format -------------------------------------------------------------------

def parse_tree(text: str) -> Tree:
    """Parse the tree text format: `n` then n-1 lines `u v`.

    The collector is paused, as `graph` explains: a guest is small, but
    its reader's allocations would otherwise start collections that re-scan
    the hosts already loaded.
    """
    return _gc_paused(_parse_tree_lines, text)


def _parse_tree_lines(source: str | bytes) -> Tree:
    """Line-by-line reader: takes the written and loose forms alike and
    names the first bad line."""
    lines = ascii_lines(source)
    if not lines:
        raise ParseError("empty input", 1)
    try:
        n = integer(lines[0].strip())
    except ValueError:
        raise ParseError("expected vertex count", 1) from None
    if n < 1:
        raise ParseError("a tree has at least one vertex", 1)
    edges: dict[tuple[int, int], None] = {}  # in line order, each as (low, high)
    for lineno, u, v in read_pairs(lines[1:], 2, "expected `u v`", "non-integer endpoint"):
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ParseError(f"bad tree edge ({u},{v})", lineno)
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise ParseError(f"duplicate tree edge ({u},{v})", lineno)
        edges[key] = None
    if len(edges) != n - 1:  # before the tree is built: a header alone can claim 10**9 vertices
        raise ParseError(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}", len(lines))
    # built from the edges as checked above, not by `Tree(n, edges)`, which
    # would check each again: n - 1 distinct edges, none a loop, form a tree
    # exactly when they connect
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    t = Tree._from_adjacency(adj)
    if not t._spans():  # connectivity, which only the last line settles
        raise ParseError("tree edges do not form a connected graph", len(lines))
    return t


def format_tree(t: Tree) -> str:
    out = [str(t.n)]
    out.extend(f"{u} {v}" for u, v in sorted(t.edges()))
    return "\n".join(out) + "\n"


def read_tree(path) -> Tree:
    """The tree of a file, read as bytes by `parse_tree`'s reader."""
    return _gc_paused(_parse_tree_lines, read_bytes(path))


def write_tree(path, t: Tree) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_tree(t))
