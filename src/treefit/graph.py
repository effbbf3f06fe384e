"""Graph representation and the graph-side primitives of the solver.

Hosts are `Graph`s; guests are `trees.Tree`, a subclass that checks at
construction that it is connected with n - 1 edges.  Vertices are dense
integers 0..n-1.  The graph is immutable after construction.  Its kept
tables are computed lazily, once per `Graph`, and kept in slots: the degree
table with its least and largest entries, the component split, and the
vertices by descending degree (`by_degree`), sorted once for the whole
graph and once for each component asked for.  Filling a slot is idempotent
(two readers that race both store equal values), so concurrent reads stay
safe.  Every other query is pure.
Vertex sets are plain Python sets/frozensets throughout.  The text readers
take their input by one rule, `errors.ascii_bytes`.

Bulk builds (`Graph(n, edges)` and the written-form reader here) and the
tree reader run with the cyclic garbage collector paused: they make only
strings, lists, dicts, sets and tuples of ints, which hold no cycles, so a
collection during one frees nothing and re-scans whatever else is alive,
such as hosts loaded before.  The pause is process-wide (`gc.disable()`),
and the collector is turned back on afterwards only if it was on before; a
thread that turns it off while another thread builds may find it back on.
"""

from __future__ import annotations

import gc
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import EmptyGraphError, ParseError, ascii_bytes, ascii_lines, integer, read_bytes, read_pairs

_T = TypeVar("_T")


def _gc_paused(build: Callable[..., _T], *args) -> _T:
    """`build(*args)` with the cyclic collector paused, turned back on
    afterwards, also when `build` raises, only if it was on before."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
        if was_on:
            gc.enable()


class Graph:
    """Simple undirected graph with adjacency sets and cached host tables:
    the degree table, its least and largest entries, the component split,
    and the vertices by descending degree."""

    __slots__ = (
        "n", "edge_count", "_adj", "_degrees", "_components", "_by_degree", "_by_degree_in",
        "_min_degree", "_max_degree",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.edge_count, self._adj = _gc_paused(_edge_sets, n, edges)
        self._clear_tables()

    @classmethod
    def _from_adjacency(cls, adj: Iterable[Iterable[int]]) -> "Graph":
        """Graph from per-vertex neighbour collections that are already
        symmetric and in range.  Duplicates within one collection collapse
        and a loop counts half an edge, so `edge_count` falls short of the
        edges meant when either is there: callers check the result (a host
        compares `edge_count`, a tree walks from vertex 0) before any query."""
        g = cls.__new__(cls)
        # a frozenset copied from a set is sized to fit, one grown from a
        # list is up to twice as large: keep hosts as small as Graph(n, edges)
        g._adj = tuple(map(frozenset, map(set, adj)))
        g.n = len(g._adj)
        g.edge_count = sum(map(len, g._adj)) // 2
        g._clear_tables()
        return g

    def _clear_tables(self) -> None:
        """Leave every lazily computed table unset, to be filled on first use."""
        self._degrees: tuple[int, ...] | None = None
        self._components: tuple[tuple[int, ...], ...] | None = None
        self._by_degree: tuple[int, ...] | None = None
        self._by_degree_in: dict[int, tuple[int, ...]] | None = None  # keyed by least vertex
        self._min_degree: int | None = None
        self._max_degree: int | None = None

    # -- basic queries ----------------------------------------------------

    def adj(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Every vertex's neighbour set, indexed by vertex."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        """Every vertex's degree, indexed by vertex; computed on first use."""
        degrees = self._degrees
        if degrees is None:
            degrees = self._degrees = tuple(map(len, self._adj))
        return degrees

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def min_degree(self) -> int:
        """Least degree over every vertex."""
        if self.n == 0:
            raise EmptyGraphError("minimum degree of the empty graph")
        if self._min_degree is None:
            self._min_degree = min(self.degrees())
        return self._min_degree

    def max_degree(self) -> int:
        """Largest degree over every vertex."""
        if self.n == 0:
            raise EmptyGraphError("maximum degree of the empty graph")
        if self._max_degree is None:
            self._max_degree = max(self.degrees())
        return self._max_degree

    def by_degree(self, among: Sequence[int] | None = None) -> tuple[int, ...]:
        """The vertices by descending degree, ties in ascending id: all of
        them, or with `among`, one component as `components()` gives it
        (named by its least vertex), its vertices alone.  Sorted on the
        first call for the graph or the component, the same object after
        that."""
        if among is None:
            if self._by_degree is None:
                self._by_degree = _ranked(range(self.n), self.degrees())
            return self._by_degree
        if self._by_degree_in is None:
            self._by_degree_in = {}
        order = self._by_degree_in.get(among[0])
        if order is None:
            order = self._by_degree_in[among[0]] = _ranked(among, self.degrees())
        return order

    # -- traversal --------------------------------------------------------

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex tuples of the components, each sorted, ordered by least
        vertex; computed on the first call, the same object after that.

        A tuple of tuples, so that no caller can change the kept split.  A
        connected graph costs one BFS: its walk ends as soon as every vertex
        has been reached."""
        if self._components is None:
            self._components = tuple(map(tuple, _component_split(self._adj, set(range(self.n)))))
        return self._components

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.edge_count})"


def _ranked(vertices: Iterable[int], degrees: Sequence[int]) -> tuple[int, ...]:
    """`vertices` by descending degree: a stable sort, so equal degrees keep
    the order given."""
    return tuple(sorted(vertices, key=degrees.__getitem__, reverse=True))


def _edge_sets(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, tuple[frozenset[int], ...]]:
    """The edge count and neighbour sets of `Graph(n, edges)`, which raises
    `ValueError` for an edge out of range, a loop or a repeated edge."""
    adj: list[set[int]] = [set() for _ in range(n)]
    m = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if v in adj[u]:
            raise ValueError(f"duplicate edge ({u},{v})")
        adj[u].add(v)
        adj[v].add(u)
        m += 1
    return m, tuple(frozenset(s) for s in adj)


def _component_split(adj: Sequence[frozenset[int]], unseen: set[int]) -> Iterator[list[int]]:
    """Vertex lists of the components that the vertices `unseen` induce,
    each sorted, by least vertex; the walk empties `unseen`."""
    s = 0
    while unseen:
        while s not in unseen:
            s += 1
        unseen.remove(s)
        comp = [s]
        for u in comp:  # grows while it is read: a BFS queue
            new = adj[u] & unseen
            if new:
                unseen -= new
                comp += new
                if not unseen:
                    break
        comp.sort()
        yield comp


# -- text format --------------------------------------------------------------

# bytes per bulk pass, run on to the end of the last line: one pass's token
# list stays small, and the per-pass calls are few next to the per-edge work
_CHUNK = 1 << 16


def _pair_tokens(chunk: bytes) -> list[bytes] | None:
    """The tokens of `chunk` when it is whole lines `<digits> <digits>\n`,
    else None: without its digits a well-formed chunk is `" \n"` once per
    line, and no digit run is empty when there are two tokens per line."""
    lines = chunk.count(b"\n")
    tokens = chunk.split()
    if (
        len(tokens) == 2 * lines
        and chunk.endswith(b"\n")
        and chunk.translate(None, b"0123456789") == b" \n" * lines
    ):
        return tokens
    return None


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: `n m` then m lines `u v` with u < v.

    The text is read as `read_graph` reads the file of its UTF-8 bytes
    (`errors.ascii_bytes`).
    """
    return _parse_graph_bytes(ascii_bytes(text))


def _parse_graph_bytes(data: bytes) -> Graph:
    """The graph of `data`, checked by `errors.ascii_bytes`.

    Data in the written form, where every edge end is an id `0..n-1` as
    `str` writes it, is read in chunks of whole lines.  The header is
    checked and the line count compared with its `m` before anything of
    size n is built.  Then each chunk gets a shape check (its digits
    deleted, what is left must be one `" \n"` per line), one table lookup
    per edge end (which also checks its range), an order check over its
    edges, and its edges appended to both ends' neighbour lists in file
    order; duplicates are found at the end by the degree sum.  The table
    holds one int object per vertex, so the neighbour sets share it.  Any
    other data (a rejected edge, an id with a leading zero, blank lines,
    tabs, signs) goes through the line-by-line reader, which accepts what
    it accepts and reports the first bad line.
    """
    g = _gc_paused(_parse_written_form, data)
    return _parse_graph_lines(data) if g is None else g


def _parse_written_form(data: bytes) -> Graph | None:
    """The graph of `data` when it is in the written form, else None."""
    start = data.find(b"\n") + 1
    head = _pair_tokens(data[:start])
    if head is None:
        return None
    n, m = map(int, head)
    if data.count(b"\n") != m + 1:  # counted first: the table's size is the header's n
        return None
    ids = dict(zip(map(b"%d".__mod__, range(n)), range(n)))
    adj: list[list[int]] = [[] for _ in range(n)]
    while start < len(data):
        end = data.find(b"\n", min(start + _CHUNK, len(data)) - 1) + 1 or len(data)
        tokens = _pair_tokens(data[start:end])
        if tokens is None:
            return None
        try:
            ends = list(map(ids.__getitem__, tokens))
        except KeyError:  # an id out of range or with a leading zero
            return None
        us, vs = ends[0::2], ends[1::2]
        if not all(map(lt, us, vs)):
            return None
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        start = end
    del ids
    g = Graph._from_adjacency(adj)
    return g if g.edge_count == m else None


def _parse_graph_lines(source: str | bytes) -> Graph:
    """Line-by-line reader: takes the loose forms and names the first bad line."""
    lines = ascii_lines(source)
    if not lines:
        raise ParseError("empty input", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("expected header `n m`", 1)
    try:
        n, m = integer(head[0]), integer(head[1])
    except ValueError:
        raise ParseError("non-integer header", 1) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", 1)
    edges: dict[tuple[int, int], None] = {}  # in line order
    for lineno, u, v in read_pairs(lines[1:], 2, "expected `u v`", "non-integer endpoint"):
        if u == v:
            raise ParseError(f"loop edge ({u},{v})", lineno)
        if not (0 <= u < v < n):
            raise ParseError(f"edge ({u},{v}) violates 0 <= u < v < n", lineno)
        if (u, v) in edges:
            raise ParseError(f"duplicate edge ({u},{v})", lineno)
        edges[u, v] = None
    if len(edges) != m:
        raise ParseError(f"header claims {m} edges, found {len(edges)}", len(lines))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(out) + "\n"


def read_graph(path) -> Graph:
    """The graph of a file, read as bytes (`errors.ascii_bytes`)."""
    return _parse_graph_bytes(ascii_bytes(read_bytes(path)))


def write_graph(path, g: Graph) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_graph(g))
