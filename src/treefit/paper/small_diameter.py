"""Randomized engine for compact, non-splittable guests on escape-free hosts.

Without long paths, big separations, or escape vertices to exploit, the
solver guesses where leaf-adjacent guest vertices land: it samples k-1
distinct neighbors of a host vertex, tries every injection from a small set
of representative leaf-adjacent guest vertices onto the sample, and hands
each pinned map to the anchored solver, which reduces to annotated hitting
searches plus a saturating matching for the final leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from random import Random
from typing import Iterator

from ..embedding import PartialEmbedding, verify
from ..errors import PreconditionViolated
from ..graph import Graph
from ..outcome import Contains, NotContained, NotFound, SolveOutcome
from ..seeds import rng_from
from ..trees import Tree
from .ahsc import AhscInstance, solve_ahsc
from .lemmas import (
    RootedView,
    TreeIsSeparableError,
    assert_not_separable,
    canonical_code,
    chvatal_extend,
    extended,
    is_q_escape,
    leaf_degree,
    max_bipartite_matching,
    neighbor_deficiency,
)


@dataclass(frozen=True)
class MultiLeafParams:
    """One guess of the anchored solver's hidden witness parameters."""

    saved: tuple[int, ...]        # per-anchor saved non-neighbor counts, capped
    problematic: frozenset[int]   # anchor images still short of their deficiency
    boundary: frozenset[int]      # occupied block neighbors off the common hood
    saved_from_block: int         # occupied vertices outside the block's closed hood


@dataclass(frozen=True)
class WCandidates:
    """Representative leaf-adjacent guest vertices, grouped by branch shape."""

    w_set: frozenset[int]
    root: int
    representatives: tuple[tuple[int, ...], ...]


def _centroid(t: Tree) -> int:
    view = RootedView.build(t, 0)
    best, best_heavy = 0, t.n
    for v in range(t.n):
        heavy = t.n - view.size[v]
        for c in view.children[v]:
            heavy = max(heavy, view.size[c])
        if heavy < best_heavy:
            best, best_heavy = v, heavy
    return best


def _leaf_adjacent(t: Tree) -> set[int]:
    leaves = set(t.leaves())
    return {v for v in range(t.n) if t.adj(v) & leaves}


def build_w_candidates(t: Tree, k: int, p: int, separable_q: int | None = None) -> WCandidates:
    """Representatives per isomorphism class of the centroid's branches.

    The guest must not split into two parts of k**p (or separable_q)
    vertices each; the centroid's branches are then all small, and k-1
    representatives per branch shape cover some witness embedding.
    """
    threshold = k ** p if separable_q is None else separable_q
    assert_not_separable(t, threshold)
    root = _centroid(t)
    view = RootedView.build(t, root)
    for c in view.children[root]:
        if view.size[c] >= threshold:
            raise TreeIsSeparableError(
                f"branch at {c} has {view.size[c]} vertices despite the split check"
            )
    branches: dict[str, list[int]] = {}
    subtree_of: dict[int, set[int]] = {}
    for c in view.children[root]:
        stack, verts = [c], set()
        while stack:
            x = stack.pop()
            verts.add(x)
            stack.extend(view.children[x])
        subtree_of[c] = verts
        code = canonical_code(t, c, within=verts)
        branches.setdefault(code, []).append(c)
    leafy = _leaf_adjacent(t)
    w_set: set[int] = set()
    reps: list[tuple[int, ...]] = []
    for code in sorted(branches):
        members = sorted(branches[code])[: max(k - 1, 0)]
        reps.append(tuple(members))
        for c in members:
            w_set |= subtree_of[c] & leafy
    w_set.discard(root)
    return WCandidates(frozenset(w_set), root, tuple(reps))


def _block_ground(g: Graph, block: list[int]) -> list[int]:
    """Occupied-boundary ground set: neighbors of the block that are not
    common to every block member."""
    union_nbrs: set[int] = set()
    common: set[int] | None = None
    for u in block:
        union_nbrs |= g.adj(u)
        common = set(g.adj(u)) if common is None else common & g.adj(u)
    return sorted((union_nbrs - set(block)) - (common or set()))


def enumerate_multi_leaf_params(
    g: Graph, images: list[int], k: int
) -> Iterator[MultiLeafParams]:
    """All candidate witness parameters, lexicographic in the saved vector."""
    deficiency = [neighbor_deficiency(g, u, k) for u in images]
    for saved in product(*[range(d + 1) for d in deficiency]):
        block = [images[i] for i in range(len(images)) if saved[i] < deficiency[i]]
        if not block:
            yield MultiLeafParams(saved, frozenset(), frozenset(), 0)
            continue
        ground = _block_ground(g, block)
        x_cap = min(len(block) * (k - 1), len(ground))
        block_min = min(
            saved[i] for i in range(len(images)) if saved[i] < deficiency[i]
        )
        for size in range(x_cap + 1):
            for chosen in combinations(ground, size):
                for a_b in range(block_min + 1):
                    yield MultiLeafParams(
                        saved, frozenset(block), frozenset(chosen), a_b
                    )


def params_of_witness(
    g: Graph, images: list[int], k: int, witness_image: set[int]
) -> MultiLeafParams:
    """The parameters a given witness image set induces (used by tests to
    confirm the enumeration covers every witness)."""
    deficiency = [neighbor_deficiency(g, u, k) for u in images]
    saved = tuple(
        min(len(witness_image - (g.adj(u) | {u})), d)
        for u, d in zip(images, deficiency)
    )
    block = [images[i] for i in range(len(images)) if saved[i] < deficiency[i]]
    if not block:
        return MultiLeafParams(saved, frozenset(), frozenset(), 0)
    ground = set(_block_ground(g, block))
    boundary = frozenset(witness_image & ground)
    closed_block = frozenset().union(*((g.adj(u) | {u}) for u in block))
    a_b = len(witness_image - closed_block)
    block_min = min(saved[i] for i in range(len(images)) if saved[i] < deficiency[i])
    return MultiLeafParams(saved, frozenset(block), boundary, min(a_b, block_min))


def solve_with_leaf_anchor(
    g: Graph,
    t: Tree,
    kappa: dict[int, int],
    k: int,
    failure_exponent: int,
    rng: Random,
) -> SolveOutcome:
    """Decide containment given the images of k-1 leaf-adjacent vertices.

    For each parameter guess, solves the induced annotated hitting instance
    over the guest minus one leaf per anchor, extends greedily, and places
    the dropped leaves through a matching saturating the pinned images.
    """
    delta = g.min_degree()
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    anchors = sorted(kappa)
    if len(anchors) != k - 1:
        raise PreconditionViolated(f"need exactly {k - 1} pinned vertices")
    if len(set(kappa.values())) != len(anchors):
        raise PreconditionViolated("pinned images must be distinct")
    leaves = set(t.leaves())
    for s in anchors:
        if not (t.adj(s) & leaves):
            raise PreconditionViolated(f"pinned vertex {s} is not leaf-adjacent")

    if k == 1:
        return Contains(chvatal_extend(g, t, PartialEmbedding({})), branch="chvatal")

    chosen_leaves = [min(t.adj(s) & leaves) for s in anchors]
    active = frozenset(range(t.n)) - set(chosen_leaves)
    images = [kappa[s] for s in anchors]
    everything = frozenset(range(g.n))

    exact_all = True
    rounds = 0
    for params in enumerate_multi_leaf_params(g, images, k):
        families = [(frozenset(g.adj(u)), a) for u, a in zip(images, params.saved)]
        if params.problematic:
            closed_block = frozenset().union(
                *((g.adj(u) | {u}) for u in params.problematic)
            )
            families.append((params.boundary, len(params.boundary)))
            families.append((everything - closed_block, params.saved_from_block))
        if any(quota > len(fam) for fam, quota in families):
            continue  # trivially unsatisfiable guess
        inst = AhscInstance.make(g, t, kappa, families, active)
        res = solve_ahsc(inst, failure_exponent, rng_from(rng.getrandbits(63), rounds))
        rounds += res.trials + 1
        exact_all = exact_all and res.exact
        if not res.found:
            continue
        trunk = chvatal_extend(g, t, PartialEmbedding(res.embedding.mapping), active)
        outside = sorted(everything - trunk.image)
        matched = dict(max_bipartite_matching(g, images, outside))
        if len(matched) < len(images):
            continue  # dead parameter guess, not an error
        extension = {
            leaf: matched[kappa[s]] for leaf, s in zip(chosen_leaves, anchors)
        }
        full = extended(trunk, extension)
        if not verify(full, g, t, require_full=True):
            raise AssertionError("anchored completion produced a bad embedding")
        return Contains(full, branch="multi-leaf-anchor")
    if exact_all:
        return NotContained(reason="anchored parameter space exhausted")
    return NotFound(rounds=rounds, failure_exponent=failure_exponent)


def solve_small_diameter(
    g: Graph,
    t: Tree,
    k: int,
    p: int,
    failure_exponent: int,
    rng: Random,
    min_delta: int | None = None,
    escape_q: int | None = None,
    separable_q: int | None = None,
    round_budget: int | None = None,
) -> SolveOutcome:
    """Round loop: pick a host vertex round-robin, sample k-1 of its
    neighbors, try every injection of representatives onto the sample."""
    delta = g.min_degree()
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    need_delta = k ** (3 * p + 1) if min_delta is None else min_delta
    q_escape = k ** p if escape_q is None else escape_q
    if delta < need_delta:
        raise PreconditionViolated(f"min degree {delta} below {need_delta}")
    if t.n >= 2 and leaf_degree(t)[0] >= k:
        raise PreconditionViolated(f"leaf degree must stay below {k}")
    for v in range(g.n):
        if is_q_escape(g, v, q_escape):
            raise PreconditionViolated(f"host has a {q_escape}-escape vertex ({v})")
    try:
        candidates = build_w_candidates(t, k, p, separable_q)
    except TreeIsSeparableError as exc:
        raise PreconditionViolated(f"guest is separable: {exc}") from exc

    total_rounds = 2 * (k ** (p + 2)) * failure_exponent
    if round_budget is not None:
        total_rounds = min(total_rounds, round_budget)
    pool = sorted(candidates.w_set)
    for round_index in range(total_rounds):
        u = round_index % g.n
        neighbors = sorted(g.adj(u))
        if len(neighbors) < k - 1 or len(pool) < k - 1:
            continue  # degenerate round still counts against the budget
        sample = rng.sample(neighbors, k - 1)
        for chosen in permutations(pool, k - 1):
            kappa = dict(zip(chosen, sample))
            outcome = solve_with_leaf_anchor(
                g, t, kappa, k, failure_exponent,
                rng_from(rng.getrandbits(63), round_index),
            )
            if isinstance(outcome, Contains):
                return outcome
    return NotFound(
        rounds=total_rounds, failure_exponent=failure_exponent, note="round budget spent"
    )
