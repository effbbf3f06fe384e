"""Medium-diameter guests: trivial-path contraction, escape vertices,
separators, and the dispatcher that picks among them.

All four engines here are constructive and always succeed inside their
stated regimes; under relaxed thresholds (used by tests) every postcondition
is still verified, never assumed.
"""

from __future__ import annotations

import math

from ..embedding import PartialEmbedding, verify
from ..errors import PreconditionViolated
from ..graph import Graph
from ..trees import Tree
from .lemmas import (
    RootedView,
    chvatal_extend,
    complete_leaves,
    components_avoiding,
    diametral_path,
    find_separable_edge,
    greedy_extend,
    greedy_extend_adjacency,
    is_q_escape,
    leaf_degree,
    maximal_trivial_paths,
    minimal_spanning_subtree,
    neighbor_deficiency,
    nonescape_separator,
    shortest_path_between,
    tree_diameter,
)
from .preserving import embed_via_preserving_path, modulator_to_preserving_path


def _leaf_block(t: Tree, k: int, mandatory: list[int]) -> list[int]:
    """k-1 leaves including the mandatory ones, lowest-index fill."""
    leaves = [v for v in t.leaves() if v not in mandatory]
    block = list(mandatory) + leaves[: k - 1 - len(mandatory)]
    if len(block) != k - 1:
        raise PreconditionViolated(f"guest has fewer than {k - 1} leaves")
    return block


def embed_via_trivial_paths(
    g: Graph,
    t: Tree,
    k: int,
    min_delta: int | None = None,
    min_diam: int | None = None,
) -> PartialEmbedding:
    """Embed a long-diameter guest by contracting its spine.

    Spans the leaf-neighbor set with a subtree, caps its trivial paths at 2k
    edges, embeds the capped tree greedily, splices a path through the
    needed non-neighbors into the longest capped path, then re-inflates
    every path by single-vertex insertions.  Both failure modes divert to
    preserving-path constructions.
    """
    delta = g.min_degree()
    dpath = diametral_path(t)
    diam_t = len(dpath) - 1
    if k < 3:
        raise PreconditionViolated("needs k >= 3")
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    if leaf_degree(t)[0] >= k:
        raise PreconditionViolated(f"leaf degree must stay below {k}")
    need_delta = 2 * k * diam_t if min_delta is None else min_delta
    need_diam = 2 * k ** 4 if min_diam is None else min_diam
    if delta < need_delta:
        raise PreconditionViolated(f"min degree {delta} below {need_delta}")
    if diam_t < need_diam:
        raise PreconditionViolated(f"guest diameter {diam_t} below {need_diam}")

    block = _leaf_block(t, k, [dpath[0], dpath[-1]])
    anchors = sorted({min(t.adj(leaf)) for leaf in block})
    spine = minimal_spanning_subtree(t, anchors)
    originals = maximal_trivial_paths(t, within=spine, breaks=anchors)
    cap = 2 * k

    # abstract capped tree: terminal nodes keep tree ids, capped interiors
    # become positional slots
    endpoints = sorted({p[0] for p in originals} | {p[-1] for p in originals})
    adjacency: dict = {("t", v): set() for v in endpoints}
    slot_chains: list[list] = []
    for i, path in enumerate(originals):
        kept = min(len(path) - 1, cap)
        chain = [("t", path[0])]
        for j in range(1, kept):
            chain.append(("s", i, j))
        chain.append(("t", path[-1]))
        slot_chains.append(chain)
        for a, b in zip(chain, chain[1:]):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    if len(adjacency) > delta + 1:
        raise PreconditionViolated("capped spine larger than min_degree+1")
    if not adjacency:
        adjacency = {("t", min(spine)): set()}
        endpoints = sorted(spine)
    placement = greedy_extend_adjacency(g, adjacency, {})

    images: list[list[int]] = [[placement[node] for node in chain] for chain in slot_chains]
    terminal_image = {v: placement[("t", v)] for v in endpoints}
    used = set(placement.values())

    # the non-neighbors each anchor still needs saved
    targets: set[int] = set()
    for w in anchors:
        w_img = terminal_image[w]
        need = neighbor_deficiency(g, w_img, k)
        pool = sorted(set(range(g.n)) - (g.adj(w_img) | {w_img}))
        if len(pool) < need:
            raise AssertionError("host lacks non-neighbors for an anchor")
        targets |= set(pool[:need])
    targets -= used

    if originals:
        long_i = _longest_on_diametral(t, spine, originals, k)
        result = _splice_and_inflate(
            g, t, k, originals, images, terminal_image, used, targets, long_i, block, anchors
        )
        if result is not None:
            return result
    elif targets:
        raise AssertionError("single-vertex spine cannot absorb saved targets")

    mapping: dict[int, int] = dict(terminal_image)
    for path, img in zip(originals, images):
        for tv, gv in zip(path, img):
            mapping[tv] = gv
    return complete_leaves(g, t, block, PartialEmbedding(mapping))


def _longest_on_diametral(
    t: Tree, spine: set[int], originals: list[list[int]], k: int
) -> int:
    dpath_w = diametral_path(t, within=spine)
    d_edges = {frozenset(e) for e in zip(dpath_w, dpath_w[1:])}
    best, best_len = -1, -1
    for i, path in enumerate(originals):
        if all(frozenset(e) in d_edges for e in zip(path, path[1:])):
            if len(path) - 1 > best_len:
                best, best_len = i, len(path) - 1
    if best < 0:
        raise AssertionError("no trivial path lies on the spine diameter")
    segments = max(1, 2 * (k - 1))
    if best_len < math.ceil((len(dpath_w) - 1) / segments):
        raise AssertionError("longest spine path shorter than the pigeonhole bound")
    return best


def _splice_and_inflate(
    g: Graph,
    t: Tree,
    k: int,
    originals: list[list[int]],
    images: list[list[int]],
    terminal_image: dict[int, int],
    used: set[int],
    targets: set[int],
    long_i: int,
    block: list[int],
    anchors: list[int],
) -> PartialEmbedding | None:
    """Thread `targets` into the long path's image, then re-inflate every
    capped path.  Returns a finished embedding when a diversion fires, else
    None and the caller assembles the mapping."""
    cap_edges = len(images[long_i]) - 1
    mid = cap_edges // 2
    seq = [images[long_i][mid]] + sorted(targets) + [images[long_i][mid + 1]]
    fixed = frozenset(used) - {seq[0], seq[-1]}

    q_path = [seq[0]]
    for idx in range(1, len(seq)):
        goal = seq[idx]
        remaining = set(seq[idx + 1 : -1])
        forbidden = (fixed | set(q_path[:-1]) | remaining) - {q_path[-1], goal}
        hop = shortest_path_between(g, [q_path[-1]], [goal], forbidden)
        if hop is None or len(hop) - 1 > 2 * k + 1:
            modulator = set(forbidden)
            path = modulator_to_preserving_path(g, modulator, k)
            return embed_via_preserving_path(g, t, path, k)
        q_path.extend(hop[1:])

    owed = (len(originals[long_i]) - 1) - cap_edges
    if (len(q_path) - 1) - 1 > owed:
        raise AssertionError("spliced path exceeds the contraction budget")
    images[long_i] = images[long_i][: mid + 1] + q_path[1:-1] + images[long_i][mid + 1 :]
    used.update(q_path)

    # single-vertex re-inflation
    while True:
        deficient = next(
            (
                i
                for i, (orig, img) in enumerate(zip(originals, images))
                if len(img) < len(orig)
            ),
            None,
        )
        if deficient is None:
            break
        img = images[deficient]
        found = None
        for v in range(g.n):
            if v in used:
                continue
            spot = next(
                (
                    j
                    for j in range(len(img) - 1)
                    if img[j] in g.adj(v) and img[j + 1] in g.adj(v)
                ),
                None,
            )
            if spot is not None:
                found = (v, spot)
                break
        if found is None:
            return _restart_through_window(
                g, t, k, originals, images, used, deficient, long_i, block, anchors
            )
        v, spot = found
        img.insert(spot + 1, v)
        used.add(v)
    return None


def _restart_through_window(
    g: Graph,
    t: Tree,
    k: int,
    originals: list[list[int]],
    images: list[list[int]],
    used: set[int],
    deficient: int,
    long_i: int,
    block: list[int],
    anchors: list[int],
) -> PartialEmbedding:
    """Stalled re-inflation: a 2k-window of the stuck image is automatically
    deficiency-covering for everything unused, so re-embed the whole spine
    fresh through that window."""
    window = images[deficient][: 2 * k]
    if len(window) < 2 * k:
        raise AssertionError("stuck path too short for the restart window")
    allowed = (set(range(g.n)) - used) | set(window)
    for v in sorted(allowed - set(window)):
        if len(set(window) - g.adj(v)) < k - 1:
            raise AssertionError("window misses the non-neighbor guarantee")

    long_orig = originals[long_i]
    segment = None
    anchor_set = set(anchors)
    for start in range(1, len(long_orig) - 2 * k):
        cand = long_orig[start : start + 2 * k]
        if not (set(cand) & anchor_set):
            segment = cand
            break
    if segment is None:
        raise AssertionError("no anchor-free window on the long trivial path")

    spine = {v for path in originals for v in path}
    seed = dict(zip(segment, window))
    mapping = greedy_extend(g, t, seed, spine, allowed=frozenset(allowed))
    return complete_leaves(g, t, block, PartialEmbedding(mapping))


def embed_via_escape(
    g: Graph,
    t: Tree,
    k: int,
    q: int | None = None,
) -> PartialEmbedding:
    """Map the guest's max-degree vertex onto an escape vertex and grow
    short feelers out of the neighborhood until every anchor is covered."""
    delta = g.min_degree()
    diam_t = tree_diameter(t)
    if q is None:
        q = 2 * k * k * diam_t
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    if delta < q:
        raise PreconditionViolated(f"min degree {delta} below q={q}")
    if max(t.degree(v) for v in range(t.n)) < k * k:
        raise PreconditionViolated(f"guest max degree below k^2 = {k * k}")
    if leaf_degree(t)[0] >= k:
        raise PreconditionViolated(f"leaf degree must stay below {k}")
    escape = next((v for v in range(g.n) if is_q_escape(g, v, q)), None)
    if escape is None:
        raise PreconditionViolated(f"host has no {q}-escape vertex")

    hub = max(range(t.n), key=lambda v: (t.degree(v), -v))
    block = _leaf_block(t, k, [])
    anchors = sorted({min(t.adj(leaf)) for leaf in block})
    spine = minimal_spanning_subtree(t, set(anchors) | {hub})
    if len(spine) > delta + 1:
        raise PreconditionViolated("anchor spine larger than min_degree+1")
    mapping = dict(
        chvatal_extend(g, t, PartialEmbedding({hub: escape}), spine).mapping
    )

    limit = (k - 1) ** 2 + 1
    for _ in range(limit + 1):
        image = set(mapping.values())
        lacking = None
        for w in anchors:
            saved = len(image - (g.adj(mapping[w]) | {mapping[w]}))
            if saved < neighbor_deficiency(g, mapping[w], k):
                lacking = w
                break
        if lacking is None:
            break
        w_img = mapping[lacking]
        fresh = sorted(
            x
            for x in t.adj(hub)
            if x not in mapping and t.degree(x) > 1
        )
        if not fresh:
            raise AssertionError("hub ran out of non-leaf neighbors")
        x = fresh[0]
        step = _escape_step(g, escape, w_img, image)
        if step is None:
            raise AssertionError("escape vertex failed to reach a saved vertex")
        if len(step) == 1:
            mapping[x] = step[0]
        else:
            y = min(v for v in t.adj(x) if v != hub)
            mapping[x], mapping[y] = step
    else:
        raise AssertionError("escape expansion exceeded its iteration bound")
    return complete_leaves(g, t, block, PartialEmbedding(mapping))


def _escape_step(
    g: Graph, hub_img: int, avoid_img: int, image: set[int]
) -> list[int] | None:
    """A free vertex off avoid_img's neighborhood within two free steps of
    the hub image: [v] for a direct neighbor, [mid, v] through one hop."""
    bad = g.adj(avoid_img) | image | {avoid_img}
    direct = sorted(g.adj(hub_img) - bad)
    if direct:
        return [direct[0]]
    for mid in sorted(g.adj(hub_img) - image):
        options = sorted(g.adj(mid) - bad - {mid})
        if options:
            return [mid, options[0]]
    return None


def embed_or_separator(
    g: Graph,
    t: Tree,
    k: int,
    min_delta: int | None = None,
) -> PartialEmbedding | set[int]:
    """Grow feelers from disjoint depth-2 branch roots; on a global stall the
    blocked frontier certifies a small separator, validated before return."""
    delta = g.min_degree()
    diam_t = tree_diameter(t)
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    if leaf_degree(t)[0] >= k:
        raise PreconditionViolated(f"leaf degree must stay below {k}")
    if max(t.degree(v) for v in range(t.n)) >= k * k:
        raise PreconditionViolated(f"guest max degree must stay below k^2 = {k * k}")
    need_delta = (k ** 5) * diam_t if min_delta is None else min_delta
    if delta < need_delta:
        raise PreconditionViolated(f"min degree {delta} below {need_delta}")

    view = RootedView.build(t, 0)
    heights = [0] * t.n
    for v in reversed(view.order):
        for c in view.children[v]:
            heights[v] = max(heights[v], heights[c] + 1)
    depth2 = [v for v in range(t.n) if heights[v] == 2]
    if len(depth2) < k * k - k:
        raise AssertionError(
            "fewer depth-2 branches than the counting argument guarantees"
        )
    feeler_roots = depth2[: (k - 1) ** 2]
    anchors = []
    for v in depth2[(k - 1) ** 2 : (k - 1) ** 2 + (k - 1)]:
        child = min(c for c in view.children[v] if heights[c] == 1)
        anchors.append(child)
    anchors.sort()
    block = [min(c for c in view.children[w]) for w in anchors]

    spine = minimal_spanning_subtree(t, set(feeler_roots) | set(anchors))
    if len(spine) > delta + 1:
        raise PreconditionViolated("feeler spine larger than min_degree+1")
    mapping = greedy_extend(g, t, {}, spine)
    available = list(feeler_roots)

    guard = (k - 1) ** 2 + 1
    for _ in range(guard + 1):
        image = set(mapping.values())
        lacking = [
            w
            for w in anchors
            if len(image - (g.adj(mapping[w]) | {mapping[w]}))
            < neighbor_deficiency(g, mapping[w], k)
        ]
        if not lacking:
            break
        progress = False
        for w in lacking:
            w_img = mapping[w]
            for u in list(available):
                step = _escape_step(g, mapping[u], w_img, image)
                if step is None:
                    continue
                if len(step) == 1:
                    child = min(c for c in view.children[u])
                    mapping[child] = step[0]
                else:
                    child = min(c for c in view.children[u] if heights[c] >= 1)
                    grandchild = min(view.children[child])
                    mapping[child], mapping[grandchild] = step
                available.remove(u)
                progress = True
                break
            if progress:
                break
        if not progress:
            image = set(mapping.values())
            reach: set[int] = set()
            for u in available:
                reach |= g.adj(mapping[u]) - image
            blocked = frozenset(range(g.n)).intersection(
                *(g.adj(mapping[w]) for w in lacking)
            )
            separator = image | (set(blocked) - reach)
            _validate_separator(g, separator, reach)
            limit = 2 * k * (k - 1) * (diam_t + 2)
            if len(separator) > limit:
                raise AssertionError(f"stall separator exceeds its bound {limit}")
            return separator
    else:
        raise AssertionError("feeler expansion exceeded its iteration bound")
    return complete_leaves(g, t, block, PartialEmbedding(mapping))


def _validate_separator(g: Graph, separator: set[int], inside: set[int]) -> None:
    rest = set(range(g.n)) - separator
    if not rest & inside or not rest - inside:
        raise AssertionError("separator does not split the host")
    for v in rest & inside:
        if g.adj(v) & (rest - inside):
            raise AssertionError("edge crosses the claimed separator")


def embed_with_separator(
    g: Graph,
    t: Tree,
    k: int,
    s: set[int],
    enforce: bool = True,
) -> PartialEmbedding:
    """Split the guest at a balanced edge and embed the two sides on the two
    sides of a (minimalized) separator, joined through one separator vertex."""
    delta = g.min_degree()
    if t.n != delta + k:
        raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
    sep = set(s)
    if len(g.components()) != 1:
        raise PreconditionViolated("host must be connected")
    if len(components_avoiding(g, sep)) < 2:
        raise PreconditionViolated("given set is not a separator")
    if enforce:
        if delta < 3 * len(sep):
            raise PreconditionViolated(f"min degree {delta} below 3|S| = {3 * len(sep)}")
        if delta < 15 * k:
            raise PreconditionViolated(f"min degree {delta} below 15k = {15 * k}")
        if leaf_degree(t)[0] >= k:
            raise PreconditionViolated(f"leaf degree must stay below {k}")

    changed = True
    while changed:
        changed = False
        for v in sorted(sep):
            if len(components_avoiding(g, sep - {v})) > 1:
                sep.discard(v)
                changed = True
    edge = find_separable_edge(t, len(sep) + k)
    if edge is None:
        raise PreconditionViolated(
            f"guest does not split into parts of {len(sep) + k} vertices"
        )
    x, y = edge
    if t.degree(x) > t.degree(y):
        x, y = y, x
    if 3 * t.degree(x) > delta:
        raise AssertionError("light endpoint exceeds a third of the min degree")

    comps = [set(c) for c in components_avoiding(g, sep)]
    best = None
    for sv in sorted(sep):
        for ci, comp in enumerate(comps):
            count = len(g.adj(sv) & comp)
            if best is None or count > best[0]:
                best = (count, sv, ci)
    count, joint, ci = best
    side_a = comps[ci]
    side_b = set(range(g.n)) - sep - side_a

    x_side = next(set(c) for c in components_avoiding(t, {y}) if x in c)
    y_side = set(range(t.n)) - x_side
    if count < len(t.adj(x) & x_side):
        raise AssertionError("chosen separator vertex too poor for the light side")

    b_anchor = min(g.adj(joint) & side_b)
    mapping_y = greedy_extend(g, t, {y: b_anchor}, y_side, allowed=frozenset(side_b))
    mapping_x = greedy_extend(
        g, t, {x: joint}, x_side, allowed=frozenset(side_a | {joint})
    )
    mapping = dict(mapping_y)
    mapping.update(mapping_x)
    out = PartialEmbedding(mapping)
    if not verify(out, g, t, require_full=True):
        raise AssertionError("separator split produced an invalid embedding")
    return out


def solve_medium(
    g: Graph,
    t: Tree,
    k: int,
    diam_branch: int | None = None,
    escape_q: int | None = None,
    separable_q: int | None = None,
    enforce: bool = True,
) -> PartialEmbedding:
    """Dispatcher: long diameter -> contraction; small max degree -> feelers
    then separator; escape vertex -> escape growth; separable guest -> build
    a separator around a non-escape vertex and split."""
    delta = g.min_degree()
    diam_t = tree_diameter(t)
    d_branch = 2 * k ** 11 if diam_branch is None else diam_branch
    q_escape = 4 * k ** 13 if escape_q is None else escape_q
    q_sep = 2 * k ** 14 if separable_q is None else separable_q
    if enforce:
        if k < 3:
            raise PreconditionViolated("needs k >= 3")
        if len(g.components()) > 1:
            raise PreconditionViolated("host must be connected")
        if t.n != delta + k:
            raise PreconditionViolated(f"guest must have min_degree+{k} vertices")
        if leaf_degree(t)[0] >= k:
            raise PreconditionViolated(f"leaf degree must stay below {k}")
        if delta < k ** 17:
            raise PreconditionViolated(f"min degree {delta} below {k ** 17}")
        if g.n < delta + 2 * k ** 14:
            raise PreconditionViolated(f"host on {g.n} vertices below {delta + 2 * k ** 14}")
        if diam_t > 8 * (k ** 6) * math.log2(max(delta, 2)):
            raise PreconditionViolated("guest diameter too large for this engine")

    if diam_t >= d_branch:
        if enforce:
            return embed_via_trivial_paths(g, t, k)
        return embed_via_trivial_paths(g, t, k, min_delta=delta, min_diam=d_branch)

    if max(t.degree(v) for v in range(t.n)) < k * k:
        result = embed_or_separator(
            g, t, k, min_delta=None if enforce else delta
        )
        if isinstance(result, PartialEmbedding):
            return result
        return embed_with_separator(g, t, k, result, enforce=enforce)

    if any(is_q_escape(g, v, q_escape) for v in range(g.n)):
        return embed_via_escape(g, t, k, q=min(q_escape, 2 * k * k * diam_t))

    if find_separable_edge(t, q_sep) is not None:
        low = min(range(g.n), key=lambda v: (g.degree(v), v))
        separator = nonescape_separator(g, low, q_escape)
        return embed_with_separator(g, t, k, separator, enforce=enforce)

    raise PreconditionViolated(
        "no branch applies: need a long diameter, a small max degree, an "
        "escape vertex, or a separable guest"
    )
