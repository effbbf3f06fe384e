"""The master solver: size check, component split, then exact containment
search under a node budget; within Chvatal's bound its first descent is the lemma's greedy.

Also houses the brute-force oracle (an independent backtracking search used
by the verification suites; deliberately sharing no code with the solver's
own exact branch) and certificate checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .color_coding import DEFAULT_NODE_BUDGET, exact_constrained_embed
from .embedding import PartialEmbedding, verify
from .errors import BudgetExceededError, EmptyGraphError
from .graph import Graph
from .outcome import Contains, NotContained, NotFound, SolveOutcome
from .trees import Tree


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0  # echoed in NotFound; `solve` draws no random numbers
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
    # pools[d]: the host candidates left for guest vertex order[d], in the
    # order a recursive search would try them; a loop, not recursion, so
    # that a guest of thousands of vertices does not reach Python's limit
    pools = [iter(range(g.n))]
    while pools:
        depth = len(pools) - 1
        tv = order[depth]
        for gv in pools[-1]:
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise BudgetExceededError(nodes)
            if gv in taken or g.degree(gv) < t.degree(tv):
                continue
            assignment[tv] = gv
            taken.add(gv)
            break
        else:  # every candidate failed: back up to the previous guest vertex
            pools.pop()
            if pools:
                taken.discard(assignment.pop(order[depth - 1]))
            continue
        if depth + 1 == t.n:
            emb = PartialEmbedding(assignment)
            if not verify_certificate(g, t, emb):
                raise AssertionError("oracle produced an invalid embedding")
            return Contains(emb, branch="oracle")
        pools.append(iter(sorted(g.adj(assignment[parent[order[depth + 1]]]))))
    return NotContained(reason="exhaustive oracle")


def solve(g: Graph, t: Tree, config: SolveConfig | None = None) -> SolveOutcome:
    """Decide whether the host contains the guest tree.

    One-sided: Contains always carries a verified certificate; NotContained
    only comes from exact steps; NotFound says the node budget ran out and
    claims no bound (`rounds` and `failure_exponent` stay 0).
    The search checks its certificate once, over the whole guest
    (`verify(..., require_full=True)`), and `solve` adds no second check.
    Each host component at least as large as the guest runs the search in
    place under `config.node_budget`; a guest within Chvatal's bound for
    the component takes exactly |T| nodes.  The first certificate wins; the
    budget misses of all components merge into one NotFound.
    """
    config = config or SolveConfig()
    if g.n == 0:
        raise EmptyGraphError("cannot solve on an empty host")
    if t.n > g.n:
        return NotContained(reason="guest larger than host")

    components = g.components()
    split = len(components) > 1
    misses = 0
    for comp in components:
        if len(comp) < t.n:
            continue
        hosts = comp if split else None  # a connected host is searched whole
        try:
            emb = exact_constrained_embed(g, t, node_cap=config.node_budget, hosts=hosts)
        except BudgetExceededError:
            misses += 1
            continue
        if emb is not None:
            return Contains(emb, branch="exact-search")
        if not split:
            return NotContained(reason="exhaustive search")
    if misses:
        return NotFound(rounds=0, seed=config.seed, note="; ".join(["BudgetExceeded"] * misses))
    return NotContained(reason="no component can host the guest")
