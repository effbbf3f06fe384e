"""Annotated hitting subtree containment (AHSC), and the colour coding it
searches with.

Find a connected subtree of the guest whose embedding respects a pinned
partial map and hits every (set, quota) family: enumerate candidate
subtrees (the minimal pinned spine plus attachment trees per composition
of the quotas) and decide each through `contains_tree_by_size`.  It
runs the core's exact search under its node budget, and colour
coding (Alon, Yuster and Zwick's colorful DP over random colourings) only
after a budget miss; the trials then get their own `node_budget` nodes'
worth, so a miss can spend about twice the budget.  The high-leaf and
small-diameter engines search with it; `solve` uses the exact search
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, compress, product
from random import Random
from typing import Iterable, Mapping, Sequence

from ..color_coding import DEFAULT_NODE_BUDGET, Family, _guest_plan, exact_constrained_embed
from ..embedding import PartialEmbedding, verify
from ..errors import BudgetExceededError
from ..graph import Graph
from ..outcome import Contains, NotContained, NotFound, SolveOutcome
from ..seeds import rng_from
from ..trees import Tree, _active
from .lemmas import canonical_code, components_avoiding, minimal_spanning_subtree, tree_diameter

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Coloring:
    """A palette assignment over host vertices; -1 marks an unusable vertex."""

    colors: tuple[int, ...]
    palette: int


def trial_count(witness_size: int, failure_exponent: int) -> int:
    """Independent colorings needed to push the miss probability below
    2**-failure_exponent for a witness of the given size."""
    return max(1, math.ceil(math.exp(witness_size) * failure_exponent * LN2))


def sample_coloring(
    g: Graph, palette: int, rng: Random, fixed: Mapping[int, int] | None = None
) -> Coloring:
    """Uniform coloring with reserved colors pinned to the given vertices.

    Reserved colors are exclusive: unpinned vertices draw, in ascending
    order, only from the remaining palette (and become unusable when none
    remains).
    """
    fixed = dict(fixed or {})
    colors = [-1] * g.n
    for gv, c in fixed.items():
        if not (0 <= c < len(fixed)):
            raise ValueError("reserved colors must be 0..len(fixed)-1")
        colors[gv] = c
    lo = len(fixed)
    if palette > lo:
        for v in range(g.n):
            if v not in fixed:
                colors[v] = rng.randrange(lo, palette)
    return Coloring(tuple(colors), palette)


def colorful_full_tree_dp(
    g: Graph,
    t: Tree,
    coloring: Coloring,
    kappa: Mapping[int, int] | None = None,
    families: Sequence[Family] = (),
    within: Iterable[int] | None = None,
) -> PartialEmbedding | None:
    """Embed the whole (sub)tree with pairwise-distinct colors, or None.

    The embedding respects kappa pointwise and hits at least the quota in
    every family.  The guest is read in the order of the core's
    `_guest_plan`, without the leaf split, bottom-up.  State per (guest
    position, host vertex): reachable (color-mask, capped quota vector)
    pairs with self-contained back pointers for reconstruction.
    """
    order, _, pin_at, kids_at, _ = _guest_plan(t, kappa, within, split=False)
    size = len(order)
    if size > coloring.palette:
        return None
    fams = [(frozenset(F), int(q)) for F, q in families]
    goal = tuple(q for _, q in fams)

    colors = coloring.colors
    degree = g.degrees()

    def unit_quota(gv: int) -> tuple[int, ...]:
        return tuple(min(1 if gv in F else 0, q) for F, q in fams)

    def add_quota(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(min(x + y, q) for x, y, (_, q) in zip(a, b, fams))

    # states[pos][gv]: {(mask, quota): backptr}; backptr is ("base",) or
    # ("join", prev_bp, child_pos, child_gv, child_bp)
    states: dict[int, dict[int, dict[tuple[int, tuple[int, ...]], tuple]]] = {}
    first = list(accumulate(kids_at, initial=1))  # each position's first child
    for pos in reversed(range(size)):
        need = kids_at[pos] + (pos > 0)
        pinned = pin_at[pos]
        candidates = compress(range(g.n), map(need.__le__, degree)) if pinned is None else (pinned,)
        table: dict[int, dict] = {
            gv: {(1 << colors[gv], unit_quota(gv)): ("base",)} for gv in candidates if colors[gv] >= 0
        }
        for child in range(first[pos], first[pos + 1]):
            child_states = states[child]
            nxt: dict[int, dict] = {}
            for gv, entries in table.items():
                merged: dict = {}
                neighbor_tables = [
                    (u, child_states[u]) for u in sorted(g.adj(gv)) if u in child_states
                ]
                for (mask, quota), bp in entries.items():
                    for u, sub in neighbor_tables:
                        for (m2, q2), bp2 in sub.items():
                            if mask & m2:
                                continue
                            key = (mask | m2, add_quota(quota, q2))
                            if key not in merged:
                                merged[key] = ("join", bp, child, u, bp2)
                if merged:
                    nxt[gv] = merged
            table = nxt
            if not table:
                break
        states[pos] = table

    root_table = states[0]

    def reconstruct(pos: int, gv: int, bp: tuple) -> dict[int, int]:
        if bp[0] == "base":
            return {order[pos]: gv}
        _, prev_bp, child, child_gv, child_bp = bp
        out = reconstruct(pos, gv, prev_bp)
        out.update(reconstruct(child, child_gv, child_bp))
        return out

    for gv in sorted(root_table):
        for key in sorted(root_table[gv]):
            _, quota = key
            if quota == goal:
                mapping = reconstruct(0, gv, root_table[gv][key])
                emb = PartialEmbedding(mapping)
                if not verify(emb, g, t, require_full=within is None):
                    raise AssertionError("colorful DP reconstructed an invalid embedding")
                return emb
    return None


def contains_tree_by_size(
    g: Graph,
    t: Tree,
    failure_exponent: int,
    rng: Random,
    node_budget: int | None = None,
    kappa: Mapping[int, int] | None = None,
    families: Sequence[Family] = (),
    within: Iterable[int] | None = None,
) -> SolveOutcome:
    """Decide containment of the whole guest, or of its connected subset
    `within` (a set of guest ids: a repeated id counts once), respecting
    the pins `kappa` and the quota `families`: exact search within
    `node_budget` nodes, then colour coding only if the search ran out of
    budget (never with `node_budget=None`, which leaves the search
    unbounded).  One-sided: no false positives.

    After a search miss the trials get their own `node_budget` nodes'
    worth, so a miss can spend about twice the budget: each trial costs
    about 2^s * s * n nodes for a witness of s vertices, so a miss has run
    `min(trial_count, node_budget // (2^s * s * n))` of them and carries a
    `BudgetExceeded` note when the cap cut them short.  `rng` draws the
    colourings, and only when a trial runs."""
    within = None if within is None else _active(t, within)
    s = t.n if within is None else len(within)
    if s > g.n:
        return NotContained(reason="guest larger than host")
    try:
        emb = exact_constrained_embed(g, t, kappa, families, within, node_budget)
    except BudgetExceededError:
        pass  # only a finite node_budget runs out; the trials get as much again
    else:
        if emb is None:
            return NotContained(reason="exhaustive search")
        return Contains(emb, branch="exact-search")

    total = trial_count(s, failure_exponent)
    per_trial = (2 ** min(s, 60)) * s * max(g.n, 1)
    capped = min(total, max(0, node_budget // per_trial))
    note = "BudgetExceeded" if capped < total else ""
    # pinned images take the reserved colors, in guest-vertex order
    reserved = {kappa[tv]: i for i, tv in enumerate(sorted(kappa))} if kappa else None
    for _ in range(capped):
        coloring = sample_coloring(g, s, rng, reserved)
        emb = colorful_full_tree_dp(g, t, coloring, kappa, families, within)
        if emb is not None:
            return Contains(emb, branch="color-coding")
    return NotFound(rounds=capped, failure_exponent=failure_exponent, note=note)


@dataclass(frozen=True)
class AhscInstance:
    """Find a connected subtree of t (within the active subset) whose
    embedding respects kappa and meets every (set, quota) family."""

    g: Graph
    t: Tree
    kappa: tuple[tuple[int, int], ...]
    families: tuple[Family, ...] = ()
    within: frozenset[int] | None = None

    @staticmethod
    def make(
        g: Graph,
        t: Tree,
        kappa: Mapping[int, int] | None = None,
        families: Sequence[Family] = (),
        within: Iterable[int] | None = None,
    ) -> "AhscInstance":
        items = tuple(sorted((kappa or {}).items()))
        images = [gv for _, gv in items]
        if len(set(images)) != len(images):
            raise ValueError("kappa must be injective")
        fams = tuple((frozenset(F), int(q)) for F, q in families)
        act = None if within is None else frozenset(within)
        return AhscInstance(g, t, items, fams, act)

    @property
    def kappa_map(self) -> dict[int, int]:
        return dict(self.kappa)

    @property
    def active(self) -> frozenset[int]:
        return self.within if self.within is not None else frozenset(range(self.t.n))


@dataclass(frozen=True)
class AhscResult:
    """`exact`: every candidate subtree was decided exactly.  `trials`: the
    color-coding trials of the subtrees that were missed; a color-coding hit
    adds none, because `contains_tree_by_size` does not report how many
    trials it took."""

    subtree: frozenset[int] | None
    embedding: PartialEmbedding | None
    exact: bool
    trials: int = 0

    @property
    def found(self) -> bool:
        return self.embedding is not None


def compositions_at_most(total: int, terms: int):
    """All tuples of `terms` non-negative ints summing to <= total, lexicographic."""
    comp = [0] * terms
    spare = total
    while True:
        yield tuple(comp)
        if terms and spare:
            comp[-1] += 1
            spare -= 1
            continue
        # the quota is spent: zero the last nonzero term, raise the one before it
        j = terms - 1
        while j > 0 and not comp[j]:
            j -= 1
        if j <= 0:
            return
        spare += comp[j] - 1
        comp[j] = 0
        comp[j - 1] += 1


def rooted_subtrees_with_leaf_count(
    t: Tree, root: int, leaf_target: int, within: Iterable[int], max_size: int
) -> list[frozenset[int]]:
    """Connected vertex sets containing `root` inside `within` whose induced
    subtree has exactly `leaf_target` leaves besides the root, one
    representative per rooted-isomorphism class."""
    universe = frozenset(within)
    if root not in universe:
        raise ValueError("root outside the universe")
    seen: set[frozenset[int]] = set()
    start = frozenset({root})
    queue = [start]
    seen.add(start)
    matches: list[frozenset[int]] = []
    while queue:
        cur = queue.pop(0)
        degs = {v: len(t.adj(v) & cur) for v in cur}
        leaves = sum(1 for v in cur if v != root and degs[v] <= 1)
        if leaves == leaf_target:
            matches.append(cur)
        if len(cur) < max_size:
            boundary = set()
            for v in cur:
                boundary |= (t.adj(v) & universe) - cur
            for v in sorted(boundary):
                nxt = cur | {v}
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    by_code: dict[str, frozenset[int]] = {}
    for cand in sorted(matches, key=lambda s: (len(s), sorted(s))):
        code = canonical_code(t, root, within=cand)
        if code not in by_code:
            by_code[code] = cand
    return list(by_code.values())


def solve_ahsc(inst: AhscInstance, failure_exponent: int, rng: Random) -> AhscResult:
    """Enumerate candidate subtrees (minimal pinned spine plus attachment
    trees per composition) and try each with `contains_tree_by_size` under
    the default node budget: exact search first, color coding only after a
    budget miss."""
    g, t = inst.g, inst.t
    active = inst.active
    kappa = inst.kappa_map
    fams = list(inst.families)
    total_quota = sum(q for _, q in fams)

    for F, q in fams:
        if q > len(F):
            return AhscResult(None, None, exact=True)
    if total_quota > len(active):
        return AhscResult(None, None, exact=True)

    if not kappa:
        if total_quota == 0:
            return AhscResult(frozenset(), PartialEmbedding({}), exact=True)
        exact_all = True
        trials_total = 0
        for anchor_index, w in enumerate(sorted(active)):
            for v in range(g.n):
                sub = AhscInstance.make(g, t, {w: v}, fams, active)
                res = solve_ahsc(sub, failure_exponent, rng_from(rng.getrandbits(63), anchor_index, v))
                trials_total += res.trials
                if res.found:
                    return AhscResult(res.subtree, res.embedding, res.exact, trials_total)
                exact_all = exact_all and res.exact
        return AhscResult(None, None, exact=exact_all, trials=trials_total)

    pinned = sorted(kappa)
    spine = minimal_spanning_subtree(t, pinned, active)
    spine_order = sorted(spine)
    diam = tree_diameter(t)

    # component of each spine vertex after deleting the spine's edges: the
    # vertex, and every component of the active part minus the spine that
    # holds a neighbour of it
    comps = {w: {w} for w in spine_order}
    for comp in components_avoiding(t, spine | (set(range(t.n)) - active)):
        for w in set().union(*map(t.adj, comp)) & spine:
            comps[w].update(comp)

    candidate_cache: dict[tuple[int, int], list[frozenset[int]]] = {}

    def candidates(w: int, a: int) -> list[frozenset[int]]:
        key = (w, a)
        if key not in candidate_cache:
            if a == 0:
                candidate_cache[key] = [frozenset({w})]
            else:
                candidate_cache[key] = rooted_subtrees_with_leaf_count(
                    t, w, a, comps[w], max_size=min(len(comps[w]), a * max(diam, 1) + 1)
                )
        return candidate_cache[key]

    exact_all = True
    trials_done = 0
    tried: set[frozenset[int]] = set()
    for comp_vec in compositions_at_most(total_quota, len(spine_order)):
        lists = []
        ok = True
        for w, a in zip(spine_order, comp_vec):
            cands = candidates(w, a)
            if not cands:
                ok = False
                break
            lists.append(cands)
        if not ok:
            continue
        for choice in product(*lists):
            subtree = frozenset(spine.union(*choice))
            if subtree in tried:
                continue
            tried.add(subtree)
            out = contains_tree_by_size(
                g, t, failure_exponent, rng, DEFAULT_NODE_BUDGET, kappa, fams, subtree
            )
            if isinstance(out, Contains):
                exact = exact_all and out.branch != "color-coding"
                return AhscResult(subtree, out.embedding, exact, trials_done)
            if isinstance(out, NotFound):
                exact_all = False
                trials_done += out.rounds
    return AhscResult(None, None, exact=exact_all, trials=trials_done)
