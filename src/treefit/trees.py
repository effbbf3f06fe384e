"""Guest tree type and the tree text format.

A `Tree` is a `Graph` (its adjacency, queries and edge checks) that is
connected and has n - 1 edges, checked at construction.  Subtrees are
always vertex subsets of the original tree (induced edges), never
re-indexed, so partial embeddings stay composable across pipeline stages;
`_active` checks such a `within` vertex set.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import ParseError, read_ascii_bytes, read_pairs
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

# a well-formed tree text: `<digits>\n`, then edge lines `<digits> <digits>\n`
_TREE_TEXT = re.compile(rb"[0-9]+\n(?:[0-9]+ [0-9]+\n)*")


def parse_tree(text: str) -> Tree:
    """Parse the tree text format: `n` then n-1 lines `u v`.

    The text is encoded once, as ASCII, and parsed as `read_tree` parses a
    file's bytes, but with no CR translation: text with a CR goes to the
    line reader, as does text that does not encode.
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return _parse_tree_lines(text)
    return _parse_tree_bytes(data)


def _parse_tree_bytes(data: bytes) -> Tree:
    """The tree of ASCII `data`.

    Well-formed data is read in bulk passes: one shape check, one integer
    conversion, one range check, and connectivity.  `graph`'s reader takes
    only ids in the written form in bulk; this bulk path also takes ids
    with leading zeros, which `int` reads as the line reader does.  Any
    other data (CR, blank lines, tabs, signs), and any edge set that is not
    a tree, is decoded and goes through the line-by-line reader, which
    reports the error and its line.  The bulk path runs with the cyclic
    collector paused, as `graph` explains.
    """
    t = _gc_paused(_parse_tree_bulk, data)
    return _parse_tree_lines(data.decode("ascii")) if t is None else t


def _parse_tree_bulk(data: bytes) -> Tree | None:
    """The tree of `data` when it is well formed and its edges form a tree,
    else None."""
    if not _TREE_TEXT.fullmatch(data):
        return None
    n, *ends = map(int, data.split())
    us, vs = ends[0::2], ends[1::2]
    if not (1 <= n and len(us) == n - 1 and max(ends, default=0) < n):
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    t = Tree._from_adjacency(adj)
    # n - 1 lines connect n vertices only if none is a loop or a
    # repeated edge, so connectivity alone proves a tree
    return t if t._spans() else None


def _parse_tree_lines(text: str) -> Tree:
    """Line-by-line reader: takes the loose forms and names the first bad line."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    try:
        n = int(lines[0].strip())
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
    try:  # connectivity, which only the last line settles
        return Tree(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc), len(lines)) from None


def format_tree(t: Tree) -> str:
    out = [str(t.n)]
    out.extend(f"{u} {v}" for u, v in sorted(t.edges()))
    return "\n".join(out) + "\n"


def read_tree(path) -> Tree:
    """The tree of a file, read as bytes (`errors.read_ascii_bytes`)."""
    return _parse_tree_bytes(read_ascii_bytes(path))


def write_tree(path, t: Tree) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_tree(t))
