"""Annotated hitting subtree containment (AHSC).

Find a connected subtree of the guest whose embedding respects a pinned
partial map and hits every (set, quota) family: enumerate candidate
subtrees (the minimal pinned spine plus attachment trees per composition
of the quotas) and decide each through the core's search driver,
`color_coding.contains_tree_by_size`.  The high-leaf and small-diameter
engines search with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Iterable, Mapping, Sequence

from ..color_coding import DEFAULT_NODE_BUDGET, Family, contains_tree_by_size
from ..embedding import PartialEmbedding
from ..graph import Graph
from ..outcome import Contains, NotFound
from ..seeds import rng_from
from ..trees import Tree
from .lemmas import canonical_code, contains_rooted_subtree, minimal_spanning_subtree, tree_diameter


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
    if terms == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in compositions_at_most(total - first, terms - 1):
            yield (first,) + rest


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

    # component of each spine vertex after deleting the spine's edges
    comps: dict[int, frozenset[int]] = {}
    for w in spine_order:
        comp = {w}
        queue = [x for x in t.adj(w) & active if x not in spine]
        while queue:
            v = queue.pop()
            if v in comp:
                continue
            comp.add(v)
            queue.extend(x for x in t.adj(v) & active if x not in comp and x not in spine)
        comps[w] = frozenset(comp)

    candidate_cache: dict[tuple[int, int], list[frozenset[int]]] = {}

    def candidates(w: int, a: int) -> list[frozenset[int]]:
        key = (w, a)
        if key not in candidate_cache:
            if a == 0:
                candidate_cache[key] = [frozenset({w})]
            else:
                found = rooted_subtrees_with_leaf_count(
                    t, w, a, comps[w], max_size=min(len(comps[w]), a * max(diam, 1) + 1)
                )
                for cand in found:
                    if contains_rooted_subtree(t, w, t, w, comps[w], cand) is None:
                        raise AssertionError("generated attachment is not a rooted subtree")
                candidate_cache[key] = found
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
                g, t, failure_exponent, lambda: rng, DEFAULT_NODE_BUDGET, kappa, fams, subtree
            )
            if isinstance(out, Contains):
                exact = exact_all and out.branch != "color-coding"
                return AhscResult(subtree, out.embedding, exact, trials_done)
            if isinstance(out, NotFound):
                exact_all = False
                trials_done += out.rounds
    return AhscResult(None, None, exact=exact_all, trials=trials_done)
