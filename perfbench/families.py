"""Seeded instance families for the verdict benchmark.

Hosts and guests are generated here with the standard library only, so an
edit to ``treefit.generate`` cannot shift a workload.  The 3-partition
reductions come from ``treefit.hardness`` because they are the paper's own
construction; the recorded digest catches any change to them.

An instance is labelled "yes" or "no" by the exact oracle
(``brute_force_contains`` under ``ORACLE_NODE_CAP``) or by its construction,
never by ``solve``.  An instance the oracle cannot finish keeps the label
``None``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ORACLE_NODE_CAP = 200_000
# sweep and tight draw their (n, delta, k) from this fixed stream, the same for
# every seed; the seed picks the graphs, the guests and the solver seeds
_PARAM_SEED = 0x5EED_9A7A


@dataclass
class Host:
    n: int
    edges: list[tuple[int, int]]  # u < v, sorted

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def text(self) -> str:
        return f"{self.n} {len(self.edges)}\n" + "".join(f"{u} {v}\n" for u, v in self.edges)


@dataclass
class Guest:
    n: int
    edges: list[tuple[int, int]]

    def text(self) -> str:
        return f"{self.n}\n" + "".join(f"{u} {v}\n" for u, v in self.edges)


@dataclass
class Instance:
    name: str
    host: str  # key into Workload.hosts
    guest: Guest
    label: str | None  # "yes", "no" or None (oracle hit its cap)
    source: str  # what the label rests on


@dataclass
class Workload:
    hosts: dict[str, Host]
    instances: list[Instance]


# -- random hosts ------------------------------------------------------------------

def _host_from_adj(adj: list[set[int]]) -> Host:
    n = len(adj)
    return Host(n, [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v])


def min_degree_host(n: int, delta: int, rng: random.Random) -> list[set[int]]:
    """G(n, p) with p near (delta+1)/(n-1), then edges from each deficient
    vertex to random non-neighbours until every degree reaches delta."""
    p = min(0.95, (delta + 1) / (n - 1))
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    for u in range(n):
        while len(adj[u]) < delta:
            v = rng.choice([w for w in range(n) if w != u and w not in adj[u]])
            adj[u].add(v)
            adj[v].add(u)
    return adj


def dense_host(n: int, delta: int, rng: random.Random, offset: int = 0) -> list[set[int]]:
    """Complete graph minus n-1-delta random perfect matchings (n even), so
    every degree is at least delta and most are exactly delta."""
    adj = [set(range(n)) - {u} for u in range(n)]
    for _ in range(n - 1 - delta):
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            adj[a].discard(b)
            adj[b].discard(a)
    return [{v + offset for v in s} for s in adj]


# -- random guests -------------------------------------------------------------------

def _relabel(n: int, edges: list[tuple[int, int]], rng: random.Random) -> Guest:
    perm = list(range(n))
    rng.shuffle(perm)
    return Guest(n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def random_tree(n: int, rng: random.Random) -> Guest:
    return Guest(n, sorted((rng.randrange(v), v) for v in range(1, n)))


def random_path(n: int, rng: random.Random) -> Guest:
    return _relabel(n, [(v - 1, v) for v in range(1, n)], rng)


def bounded_degree_tree(n: int, cap: int, rng: random.Random) -> Guest:
    """Random attachment where no vertex exceeds degree `cap` (cap >= 2)."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        open_ = [u for u in range(v) if deg[u] < cap]
        u = rng.choice(open_)
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return _relabel(n, edges, rng)


def leaf_degree_one_tree(n: int, rng: random.Random) -> Guest:
    """Random tree in which every vertex has at most one leaf neighbour: a
    random skeleton with one pendant on each skeleton leaf and on a random
    set of other skeleton vertices."""
    while True:
        m = rng.randint((n + 1) // 2, n - 1)
        skeleton = [(rng.randrange(v), v) for v in range(1, m)]
        deg = [0] * m
        for u, v in skeleton:
            deg[u] += 1
            deg[v] += 1
        leaves = [v for v in range(m) if deg[v] <= 1]
        others = [v for v in range(m) if deg[v] > 1]
        extra = n - m - len(leaves)
        if 0 <= extra <= len(others):
            anchors = leaves + rng.sample(others, extra)
            edges = skeleton + [(a, m + i) for i, a in enumerate(anchors)]
            return _relabel(n, edges, rng)


# -- labels ------------------------------------------------------------------------

def certificate_ok(host_edges: set[tuple[int, int]], host_n: int, guest: Guest, mapping) -> bool:
    """Independent check: total over the guest, injective, in range, and every
    guest edge lands on a host edge."""
    if not isinstance(mapping, dict) or set(mapping) != set(range(guest.n)):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if not all(isinstance(x, int) and 0 <= x < host_n for x in images):
        return False
    for u, v in guest.edges:
        a, b = mapping[u], mapping[v]
        if (min(a, b), max(a, b)) not in host_edges:
            return False
    return True


def oracle_label(host: Host, guest: Guest) -> str | None:
    from treefit import Contains, Graph, Tree, brute_force_contains
    from treefit.errors import BudgetExceededError

    try:
        out = brute_force_contains(Graph(host.n, host.edges), Tree(guest.n, guest.edges), ORACLE_NODE_CAP)
    except BudgetExceededError:
        return None
    if isinstance(out, Contains):
        if not certificate_ok(set(host.edges), host.n, guest, out.embedding.mapping):
            raise AssertionError("oracle certificate fails the independent check")
        return "yes"
    return "no"


# -- families ------------------------------------------------------------------------

def sweep(seed: int) -> Workload:
    """The ROADMAP baseline family: 300 min-degree hosts, n 13-40, delta
    2..n-3, with random guests of delta(G)+k vertices, k 2-4 (at most n)."""
    params = random.Random(_PARAM_SEED)
    rng = random.Random(f"sweep/{seed}")
    hosts: dict[str, Host] = {}
    instances = []
    for i in range(300):
        n = params.randint(13, 40)
        delta = params.randint(2, n - 3)
        k = params.randint(2, 4)
        host = _host_from_adj(min_degree_host(n, delta, rng))
        guest = random_tree(min(min(host.degrees()) + k, n), rng)
        hosts[f"s{i:03d}"] = host
        instances.append(Instance(f"s{i:03d}", f"s{i:03d}", guest, oracle_label(host, guest), "oracle"))
    return Workload(hosts, instances)


def tight(seed: int) -> Workload:
    """2500 sparse hosts on 12 vertices, delta 2-3, with spanning guests whose
    maximum degree is at most the host's.  Exact-search times spread over
    four orders of magnitude, and larger n only widens that, so the family
    buys steady percentiles with many small instances: on 14 vertices, 2000
    made a run with its two passes take 40-66 s, and 1200 left p90 moving
    by 0.17 of its median between seeds."""
    params = random.Random(_PARAM_SEED + 1)
    rng = random.Random(f"tight/{seed}")
    hosts: dict[str, Host] = {}
    instances = []
    for i in range(2500):
        host = _host_from_adj(min_degree_host(12, params.randint(2, 3), rng))
        guest = bounded_degree_tree(12, max(2, max(host.degrees())), rng)
        hosts[f"t{i:04d}"] = host
        instances.append(Instance(f"t{i:04d}", f"t{i:04d}", guest, oracle_label(host, guest), "oracle"))
    return Workload(hosts, instances)


def hub(seed: int) -> Workload:
    """600 hosts on 30 vertices: a min-degree-4 graph on 29 vertices plus one
    hub joined to all of them, with random guests of delta(G)+2 = 7 vertices.
    The hub's degree tips the crossover to the colorful DP, which decides
    every instance in a trial or two of about 10 ms, so the DP's cost per
    verdict is measured over hundreds of like instances instead of the
    sweep's two dozen uneven ones."""
    rng = random.Random(f"hub/{seed}")
    hosts: dict[str, Host] = {}
    instances = []
    for i in range(600):
        adj = min_degree_host(29, 4, rng)
        adj.append(set(range(29)))
        for v in range(29):
            adj[v].add(29)
        host = _host_from_adj(adj)
        guest = random_tree(min(host.degrees()) + 2, rng)
        hosts[f"h{i:03d}"] = host
        instances.append(Instance(f"h{i:03d}", f"h{i:03d}", guest, oracle_label(host, guest), "oracle"))
    return Workload(hosts, instances)


def large(seed: int) -> Workload:
    """Dense connected hosts, two-block hosts and 3-partition YES reductions."""
    rng = random.Random(f"large/{seed}")
    hosts: dict[str, Host] = {}
    instances: list[Instance] = []
    shapes = (("tree", lambda s: random_tree(s, rng)), ("path", lambda s: random_path(s, rng)),
              ("ld1", lambda s: leaf_degree_one_tree(s, rng)))
    for i, n in enumerate((360, 360, 600, 600)):
        host = _host_from_adj(dense_host(n, n - rng.randint(20, 30), rng))
        delta = min(host.degrees())
        key = f"dense{i}"
        hosts[key] = host
        for shape, make in shapes:
            k = rng.randint(2, 4)
            guest = make(delta + k)
            label, source = oracle_label(host, guest), "oracle"
            if label is None and 4 * k * (n - delta) <= delta:
                label, source = "yes", "dense-regime"
            instances.append(Instance(f"{key}-{shape}", key, guest, label, source))
    for i, (na, nb) in enumerate(((200, 120), (240, 160))):
        a = dense_host(na, na - rng.randint(20, 30), rng)
        b = dense_host(nb, nb - rng.randint(20, 30), rng, offset=na)
        host = _host_from_adj(a + b)
        key = f"blocks{i}"
        hosts[key] = host
        for block, (size, adj) in enumerate(((na, a), (nb, b))):
            delta = min(len(s) for s in adj)
            k = rng.randint(2, 4)
            guest = random_tree(min(delta + k, size), rng)
            instances.append(Instance(f"{key}-{block}", key, guest, oracle_label(host, guest), "oracle"))
    from treefit.hardness import ThreePartitionInstance, forward_certificate, generate_hardness_instance

    for sizes, target in (((3, 3, 3), 9), ((3, 3, 4), 10), ((3, 4, 4), 11)):
        red = generate_hardness_instance(ThreePartitionInstance(sizes, target), 1.0)
        host = Host(red.graph.n, sorted(red.graph.edges()))
        guest = Guest(red.tree.n, sorted(red.tree.edges()))
        cert = forward_certificate(red, [(0, 1, 2)]).mapping
        if not certificate_ok(set(host.edges), host.n, guest, cert):
            raise AssertionError("forward certificate fails the independent check")
        key = "hard" + "".join(map(str, sizes))
        hosts[key] = host
        instances.append(Instance(key, key, guest, "yes", "forward_certificate"))
    return Workload(hosts, instances)


FAMILIES = {"sweep": sweep, "tight": tight, "hub": hub, "large": large}
