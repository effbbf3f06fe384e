"""The master solver: size check, component split, greedy guarantee, then
plain containment search.

Also houses the brute-force oracle (an independent backtracking search used
by the verification suites; deliberately sharing no code with the solver's
own exact branch) and certificate checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .color_coding import DEFAULT_NODE_BUDGET, contains_tree_by_size
from .embedding import PartialEmbedding, chvatal_extend, verify
from .errors import BudgetExceededError, EmptyGraphError
from .graph import Graph
from .outcome import Contains, NotContained, NotFound, SolveOutcome
from .seeds import rng_from
from .trees import Tree


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    failure_exponent: int = 20
    node_budget: int | None = DEFAULT_NODE_BUDGET  # None removes the budget and may run forever


def verify_certificate(g: Graph, t: Tree, e: PartialEmbedding) -> bool:
    """Full-domain check that e embeds every guest vertex into the host."""
    return verify(e, g, t, require_full=True)


def brute_force_contains(
    g: Graph, t: Tree, node_cap: int | None = None
) -> SolveOutcome:
    """Exact backtracking oracle with degree and remaining-size pruning."""
    if t.n > g.n:
        return NotContained(reason="guest larger than host")
    root = max(range(t.n), key=lambda v: (t.degree(v), -v))
    order = [root]
    parent = {root: -1}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(t.adj(u), key=lambda x: (-t.degree(x), x)):
            if v not in parent:
                parent[v] = u
                order.append(v)
                queue.append(v)

    assignment: dict[int, int] = {}
    taken: set[int] = set()
    nodes = 0

    def attempt(depth: int) -> bool:
        nonlocal nodes
        if depth == t.n:
            return True
        tv = order[depth]
        if depth == 0:
            pool = range(g.n)
        else:
            pool = sorted(g.adj(assignment[parent[tv]]))
        for gv in pool:
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise BudgetExceededError(nodes)
            if gv in taken or g.degree(gv) < t.degree(tv):
                continue
            assignment[tv] = gv
            taken.add(gv)
            if attempt(depth + 1):
                return True
            taken.discard(gv)
            del assignment[tv]
        return False

    if attempt(0):
        emb = PartialEmbedding(assignment)
        if not verify_certificate(g, t, emb):
            raise AssertionError("oracle produced an invalid embedding")
        return Contains(emb, branch="oracle")
    return NotContained(reason="exhaustive oracle")


def solve(g: Graph, t: Tree, config: SolveConfig | None = None) -> SolveOutcome:
    """Decide whether the host contains the guest tree.

    One-sided: Contains always carries a verified certificate; NotContained
    only comes from exact branches; NotFound records the spent randomness.
    The engine that builds a certificate checks it once, over the whole
    guest: `chvatal_extend`, `exact_constrained_embed` or
    `colorful_full_tree_dp` calls `verify(..., require_full=True)` before
    returning it, and `solve` adds no second check.
    Each host component at least as large as the guest runs the same
    steps in place, with component-local slack: the greedy guarantee, then
    `contains_tree_by_size`.  The first certificate wins; the misses of all
    components merge into one NotFound.
    """
    config = config or SolveConfig()
    if g.n == 0:
        raise EmptyGraphError("cannot solve on an empty host")
    if t.n > g.n:
        return NotContained(reason="guest larger than host")

    components = g.components()
    split = len(components) > 1
    misses: list[NotFound] = []
    stream = 0
    for comp in components:
        # a connected host is searched whole on colouring stream 0; the
        # components of a split host in place, on streams 1, 2, ...
        stream += 1
        if len(comp) < t.n:
            continue
        hosts = comp if split else None
        if t.n - g.min_degree(hosts) <= 1:
            emb = chvatal_extend(g, t, PartialEmbedding({}), hosts=hosts)
            return Contains(emb, branch="greedy-guarantee")
        out = contains_tree_by_size(
            g,
            t,
            config.failure_exponent,
            lambda: rng_from(config.seed, stream if split else 0, 1),
            config.node_budget,
            hosts=hosts,
        )
        if isinstance(out, Contains):
            return out
        if isinstance(out, NotFound):
            misses.append(out)
        elif not split:
            return out  # the search's own NotContained reason
    if misses:
        return NotFound(
            rounds=sum(m.rounds for m in misses),
            seed=config.seed,
            failure_exponent=config.failure_exponent,
            note="; ".join(filter(None, (m.note for m in misses))),
        )
    return NotContained(reason="no component can host the guest")
