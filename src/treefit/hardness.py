"""Hard instance generator: triple-partition numbers become a (host, guest)
pair whose guest barely exceeds the host's minimum degree.

The guest is a two-level star gadget (root, one branch per number, one
pendant block); the host stacks cliques whose sizes encode the target sum,
with a hub whose degree forces the root's image and a clique block whose
carefully punched non-adjacencies force each branch into one clique.  A YES
partition maps straight onto an explicit certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .embedding import PartialEmbedding, verify
from .errors import InvalidPartitionError, InvalidThreePartitionError
from .graph import Graph
from .trees import Tree


# the most host edges `generate_hardness_instance` builds: the tests and the
# benchmark build at most about 2M, and 10M take gigabytes to build and read
MAX_HOST_EDGES = 10_000_000


@dataclass(frozen=True)
class ThreePartitionInstance:
    """3n positive numbers with target B: can they split into n triples each
    summing to B?  Validity needs sum = n*B and B/4 < s < B/2 elementwise."""

    sizes: tuple[int, ...]
    target: int

    @property
    def n_triples(self) -> int:
        return len(self.sizes) // 3

    def validate(self, strict_bounds: bool = True) -> None:
        if len(self.sizes) == 0 or len(self.sizes) % 3 != 0:
            raise InvalidThreePartitionError("need a positive multiple of 3 numbers")
        if any(s <= 0 for s in self.sizes):
            raise InvalidThreePartitionError("sizes must be positive")
        n = self.n_triples
        if sum(self.sizes) != n * self.target:
            raise InvalidThreePartitionError(
                f"sizes sum to {sum(self.sizes)}, expected {n * self.target}"
            )
        if strict_bounds:
            for s in self.sizes:
                if not (4 * s > self.target and 2 * s < self.target):
                    raise InvalidThreePartitionError(
                        f"size {s} outside (target/4, target/2)"
                    )


@dataclass(frozen=True)
class ReductionOutput:
    graph: Graph
    tree: Tree
    epsilon: float
    delta: int
    max_degree: int
    # guest landmarks
    root: int
    branch_roots: tuple[int, ...]            # v_i, one per number
    branch_leaves: tuple[tuple[int, ...], ...]  # R_i blocks
    pendants: tuple[int, ...]                # u_j block
    # host landmarks
    hub: int                                 # x
    clique_slots: tuple[tuple[int, ...], ...]   # y_i^(1..3) per clique
    cliques: tuple[tuple[int, ...], ...]        # L_i
    z_block: tuple[int, ...]
    punched: tuple[tuple[int, ...], ...]        # Z_i^(h) in (i, h) order
    pendant_cliques: int

    def landmark_lines(self) -> list[str]:
        rows = [
            {"role": "root", "tree_vertex": self.root},
            {"role": "hub", "graph_vertex": self.hub},
        ]
        for i, (v, block) in enumerate(zip(self.branch_roots, self.branch_leaves)):
            rows.append({"role": "branch", "index": i, "tree_vertex": v, "leaves": list(block)})
        for i, (clique, slots) in enumerate(zip(self.cliques, self.clique_slots)):
            rows.append({"role": "clique", "index": i, "vertices": list(clique), "slots": list(slots)})
        rows.append({"role": "pendants", "tree_vertices": list(self.pendants)})
        rows.append({"role": "z_block", "graph_vertices": list(self.z_block)})
        for j, z in enumerate(self.punched):
            rows.append({"role": "punched", "index": j, "graph_vertices": list(z)})
        return [json.dumps(r, separators=(",", ":")) for r in rows]


def generate_hardness_instance(
    inst: ThreePartitionInstance,
    epsilon: float,
    strict_bounds: bool = True,
) -> ReductionOutput:
    """Build the (host, guest) pair; every structural invariant is audited
    before returning."""
    inst.validate(strict_bounds=strict_bounds)
    if not epsilon > 0:  # NaN too
        raise InvalidThreePartitionError("epsilon must be positive")
    sizes = inst.sizes
    m = len(sizes)
    n = inst.n_triples
    total = sum(sizes)
    target = inst.target
    # the pendant block must fit one punched set per branch, so the min
    # degree is at least 3*total+6n-2 rather than the weaker total+4n-2.  A
    # host of min degree d has at least d(d+1)/2 edges: checked in ints
    # first, since a sum beyond a float's range overflows the float below
    floor = 3 * total + 6 * n - 2
    if floor * (floor + 1) // 2 > MAX_HOST_EDGES:
        raise InvalidThreePartitionError(
            f"sizes too large: min degree at least 3*sum+6n-2, more than {MAX_HOST_EDGES:,} host edges"
        )
    # a float first, so that a tiny epsilon gives inf and not an overflow
    delta = max((total + 3) / epsilon, floor)
    pendant = float(total) * (delta - target - 2) * (delta + 1) * delta / 2  # edges of the pendant cliques
    if not pendant <= MAX_HOST_EDGES:
        raise InvalidThreePartitionError(
            f"epsilon {epsilon}: min degree {delta:.4g}, {pendant:.3g} host edges, more than {MAX_HOST_EDGES:,}"
        )
    delta = math.ceil(delta)
    max_deg = delta + 2

    # guest -----------------------------------------------------------------
    tree_edges: list[tuple[int, int]] = []
    root = 0
    nxt = 1
    branch_roots = []
    branch_leaves = []
    for s in sizes:
        v = nxt
        nxt += 1
        tree_edges.append((root, v))
        block = tuple(range(nxt, nxt + s))
        nxt += s
        tree_edges.extend((v, leaf) for leaf in block)
        branch_roots.append(v)
        branch_leaves.append(block)
    pendants = tuple(range(nxt, nxt + max_deg - m))
    nxt += max_deg - m
    tree_edges.extend((root, u) for u in pendants)
    tree = Tree(nxt, tree_edges)

    # host -------------------------------------------------------------------
    edges: list[tuple[int, int]] = []
    idx = 0
    cliques = []
    clique_slots = []
    for _ in range(n):
        members = tuple(range(idx, idx + target + 3))
        idx += target + 3
        cliques.append(members)
        clique_slots.append(members[:3])
        edges.extend(
            (a, b) for ai, a in enumerate(members) for b in members[ai + 1 :]
        )
    pendant_cliques = 0
    for clique in cliques:
        for w in clique[3:]:
            for _ in range(delta - target - 2):
                block = tuple(range(idx, idx + delta + 1))
                idx += delta + 1
                edges.extend(
                    (a, b) for ai, a in enumerate(block) for b in block[ai + 1 :]
                )
                edges.append((w, block[0]))
                pendant_cliques += 1
    for i in range(n):
        for j in range(i + 1, n):
            edges.extend(
                (a, b) for a in clique_slots[i] for b in clique_slots[j]
            )
    hub = idx
    idx += 1
    for slots in clique_slots:
        edges.extend((hub, y) for y in slots)
    z_block = tuple(range(idx, idx + max_deg - m))
    idx += max_deg - m
    edges.extend((hub, z) for z in z_block)
    edges.extend(
        (a, b) for ai, a in enumerate(z_block) for b in z_block[ai + 1 :]
    )
    punched = []
    cursor = 0
    for i in range(n):
        for _ in range(3):
            hole = z_block[cursor : cursor + target + 1]
            if len(hole) < target + 1:
                raise AssertionError("pendant block too small for disjoint holes")
            punched.append(tuple(hole))
            cursor += target + 1
    for slot_index, hole in enumerate(punched):
        i, h = divmod(slot_index, 3)
        y = clique_slots[i][h]
        hole_set = set(hole)
        edges.extend((y, z) for z in z_block if z not in hole_set)
    graph = Graph(idx, ((min(a, b), max(a, b)) for a, b in edges))

    out = ReductionOutput(
        graph=graph,
        tree=tree,
        epsilon=epsilon,
        delta=delta,
        max_degree=max_deg,
        root=root,
        branch_roots=tuple(branch_roots),
        branch_leaves=tuple(branch_leaves),
        pendants=pendants,
        hub=hub,
        clique_slots=tuple(clique_slots),
        cliques=tuple(cliques),
        z_block=z_block,
        punched=tuple(punched),
        pendant_cliques=pendant_cliques,
    )
    audit_reduction(out, inst)
    return out


def audit_reduction(out: ReductionOutput, inst: ThreePartitionInstance) -> None:
    """Assert the full degree spectrum and size identities."""
    g, t = out.graph, out.tree
    delta, max_deg = out.delta, out.max_degree
    total = sum(inst.sizes)
    if t.n != delta + 3 + total:
        raise AssertionError("guest size identity broken")
    if t.n > (1 + out.epsilon) * delta:
        raise AssertionError("guest exceeds (1+eps)*min_degree")
    if g.min_degree() != delta or g.max_degree() != max_deg:
        raise AssertionError("host degree extremes broken")
    slot_set = {y for slots in out.clique_slots for y in slots}
    punched_members: dict[int, int] = {}
    for hole in out.punched:
        for z in hole:
            punched_members[z] = punched_members.get(z, 0) + 1
    if punched_members and max(punched_members.values()) > 1:
        raise AssertionError("punched sets overlap")
    for clique in out.cliques:
        for w in clique[3:]:
            if g.degree(w) != delta:
                raise AssertionError(f"clique interior vertex {w} degree {g.degree(w)}")
    for y in slot_set:
        if g.degree(y) != delta + 1:
            raise AssertionError(f"slot vertex {y} degree {g.degree(y)}")
    if g.degree(out.hub) != max_deg:
        raise AssertionError("hub degree broken")
    for z in out.z_block:
        if not (max_deg - 1 <= g.degree(z) <= max_deg):
            raise AssertionError(f"pendant-block vertex {z} degree {g.degree(z)}")


def forward_certificate(
    out: ReductionOutput, partition: Sequence[Sequence[int]]
) -> PartialEmbedding:
    """The explicit embedding a valid triple partition induces."""
    n = len(out.cliques)
    flat = sorted(i for triple in partition for i in triple)
    if len(partition) != n or flat != list(range(3 * n)):
        raise InvalidPartitionError("partition must split indices 0..3n-1 into triples")
    sizes = tuple(len(block) for block in out.branch_leaves)
    for triple in partition:
        if len(triple) != 3:
            raise InvalidPartitionError("every part must be a triple")
        if sum(sizes[i] for i in triple) != len(out.cliques[0]) - 3:
            raise InvalidPartitionError(
                f"triple {tuple(triple)} does not sum to the target"
            )
    mapping: dict[int, int] = {out.root: out.hub}
    for u, z in zip(out.pendants, out.z_block):
        mapping[u] = z
    for h, triple in enumerate(partition):
        free = [w for w in out.cliques[h][3:]]
        for slot, i in enumerate(sorted(triple)):
            mapping[out.branch_roots[i]] = out.clique_slots[h][slot]
            block = out.branch_leaves[i]
            taken, free = free[: len(block)], free[len(block) :]
            mapping.update(dict(zip(block, taken)))
    emb = PartialEmbedding(mapping)
    if not verify(emb, out.graph, out.tree, require_full=True):
        raise AssertionError("forward certificate failed verification")
    return emb
