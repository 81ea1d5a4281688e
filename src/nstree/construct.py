"""Normal-tree constructions.

The central routine is a greedy loop that grows a normal tree from a
root one sweep at a time. In sweep n it looks at every component D of
the graph minus the current tree, picks target vertices inside D by
consulting canonical independent-path families between the tree
neighbors of D, and extends the tree finitely into D so the targets
become tree vertices. Each extension keeps a down-closed part of the
one depth-first tree from the root, so a run searches the graph once
and a spanning run ends with dfs_nst's tree. Three public entry points
share the loop: the plain spanning run, a run that only chases a
prescribed vertex set, and a run that additionally covers one vertex of
the first cover class meeting each component. Every tie is broken by
least vertex id, so runs are reproducible and the returned trace
replays exactly.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from collections.abc import Set as AbstractSet
from itertools import chain, combinations

from ._record import Record, _set
from .connectivity import _network
from .graph import Graph, _check_int, _check_vertex
from .tree import RootedTree

SPANNING = "spanning"
BUDGET_EXHAUSTED = "budget-exhausted"
TARGET_COVERED = "target-covered"


class ExtensionStep(Record):
    """One extension of the tree into one component.

    step is the sweep index; extensions made during the same sweep
    share it. selections lists ((v, w), k) meaning path k of the
    canonical v-w family was the least-index member meeting the
    component. fallback_vertex is set when no selected path met the
    component and the least component vertex was targeted instead.
    added holds the new (child, parent) tree edges, so any prefix of a
    trace reconstructs its tree.
    """

    __slots__ = ("step", "component", "attach_vertex", "entry_vertex",
                 "targets", "selections", "fallback_vertex", "added")

    def __init__(
        self, step: int, component: frozenset[int], attach_vertex: int, entry_vertex: int,
        targets: frozenset[int], selections: tuple[tuple[tuple[int, int], int], ...],
        fallback_vertex: int | None, added: tuple[tuple[int, int], ...],
    ) -> None:
        _set(self, "step", step)
        _set(self, "component", component)
        _set(self, "attach_vertex", attach_vertex)
        _set(self, "entry_vertex", entry_vertex)
        _set(self, "targets", targets)
        _set(self, "selections", selections)
        _set(self, "fallback_vertex", fallback_vertex)
        _set(self, "added", added)


class RunTrace(Record):
    __slots__ = ("steps", "tree", "status")

    def __init__(self, steps: tuple[ExtensionStep, ...], tree: RootedTree, status: str) -> None:
        _set(self, "steps", steps)
        _set(self, "tree", tree)
        _set(self, "status", status)

    def prefix_tree(self, count: int) -> RootedTree:
        """Tree after the first `count` extensions, 0 <= count <= len(steps)."""
        if not 0 <= _check_int("prefix count", count) <= len(self.steps):
            raise ValueError(f"prefix count must be in 0..{len(self.steps)}, got {count}")
        parent: dict[int, int] = {}
        for s in self.steps[:count]:
            parent.update(s.added)
        return RootedTree(self.tree.root, parent)


class DispersedCover(Record):
    """Ordered list of vertex sets whose union covers the host graph."""

    __slots__ = ("sets",)

    def __init__(self, sets: tuple[frozenset[int], ...]) -> None:
        _set(self, "sets", sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


def dfs_nst(g: Graph, r: int) -> RootedTree:
    """Depth-first spanning tree from r, children in ascending id order.

    Depth-first trees are always normal: any edge of the graph joins an
    ancestor-descendant pair.
    """
    if _check_vertex(r) not in g:
        raise ValueError(f"root {r} not in graph")
    parent = _dfs(g, r)
    if len(parent) + 1 != len(g):
        raise ValueError("graph is disconnected")
    # the map's keys run in preorder with ascending children
    return RootedTree._from_preorder(r, parent)


def _dfs(g: Graph, r: int) -> dict[int, int]:
    """Parent map of the depth-first tree from r of r's component,
    children in ascending id order.

    Vertices enter the map in discovery order, which is the tree's
    preorder with ascending children; so every parent precedes its
    children. The search is the recursive one, kept by hand: the open
    vertex x and its neighbour iterator are held in locals, and x
    descends into its next unseen neighbour, or closes. Descending
    pushes x's suspended frame on a stack, and closing pops the frame
    of x's parent. The map is the seen set, with r marked in it until
    the search ends.
    """
    adj = g._adj
    parent = {r: r}
    stack = []
    x = r
    nbrs = iter(adj[r])
    while True:
        for y in nbrs:
            if y not in parent:
                parent[y] = x
                stack.append((x, nbrs))
                x = y
                nbrs = iter(adj[y])
                break
        else:
            if not stack:
                break
            x, nbrs = stack.pop()
    del parent[r]
    return parent


def _extend(
    t: RootedTree,
    tree: set[int],
    h: int,
    nbrs: AbstractSet[int],
    targets: frozenset[int],
) -> tuple[int, tuple[tuple[int, int], ...], list[int]]:
    """Grow tree, a down-closed vertex set of the depth-first tree t,
    in place into the component that is the subtree of t below h.

    h lies outside the tree and its t parent t_d inside: the search from
    the root entered the component from t_d, its deepest tree neighbor,
    at t_d's least neighbor in it. Keeping the down-closures of the
    targets keeps the tree down-closed in t, and so normal. Returns t_d,
    the new (child, parent) edges in ascending order, and the tops of
    the components left outside the tree, in preorder.
    """
    index, pre, end, parent = t._index, t._pre, t._end, t._parent
    t_d = parent[h]
    if t_d not in nbrs:
        raise AssertionError(
            f"component top {h} hangs below {t_d}, which is not a tree neighbor of the component"
        )
    # the neighborhood is a chain when every member is an ancestor of
    # t_d: its preorder interval holds t_d's number
    i = index[t_d]
    nums = [*map(index.__getitem__, nbrs)]
    if max(nums) > i or min(map(end.__getitem__, nums)) <= i:
        raise AssertionError(
            f"tree neighborhood of the component is not a chain of ancestors of {t_d} "
            "(tree is not normal)"
        )
    keep = {h}
    for x in targets:
        while x not in keep:
            keep.add(x)
            x = parent[x]
    tree |= keep
    # t has no cross edges, so those components are the subtrees below
    # the children of kept vertices that are not kept; a walk below h that
    # enters kept vertices and jumps over any other's subtree meets them
    tops = []
    j = index[h]
    stop = end[j]
    while j < stop:
        v = pre[j]
        if v in keep:
            j += 1
        else:
            tops.append(v)
            j = end[j]
    return t_d, tuple(sorted(zip(keep, map(parent.__getitem__, keep)))), tops


def omega_nst(
    g: Graph,
    r: int,
    step_budget: int | None = None,
    kappa_small: int | None = None,
) -> RunTrace:
    """Grow a normal spanning tree by sweeps of path-guided extensions.

    Sweep n extends into every component D of the graph minus the
    current tree: for each pair v < w of tree neighbors of D, the
    least-index member of the canonical v-w path family meeting D
    contributes its vertices inside D as targets (least component
    vertex as fallback when nothing is selected). Stops when spanning
    or after step_budget sweeps. kappa_small, when given, ignores
    pairs whose connectivity exceeds it.
    """
    return _run(g, r, step_budget, kappa_small, None)


def local_normal_tree(
    g: Graph,
    u: Iterable[int],
    r: int,
    step_budget: int | None = None,
    kappa_small: int | None = None,
) -> RunTrace:
    """Grow a normal tree just far enough to contain the vertex set u.

    Same sweep loop as omega_nst, but components disjoint from u are
    left alone and each extension additionally targets the least
    uncovered u-vertex of its component. Ends target-covered once
    u is inside the tree (spanning when that coincides with all of g).
    """
    u = frozenset(map(_check_vertex, u))
    if not u <= g.vertex_set:
        raise ValueError(f"target vertices not in graph: {sorted(u - g.vertex_set)}")
    return _run(g, r, step_budget, kappa_small, (u,))


def nst_from_dispersed_cover(
    g: Graph,
    cover: DispersedCover,
    r: int,
    step_budget: int | None = None,
    kappa_small: int | None = None,
) -> RunTrace:
    """omega_nst variant that respects an ordered vertex-set cover.

    Each extension into a component D additionally targets the least
    vertex of D ∩ V_i for the first cover class V_i meeting D.
    """
    for v in chain.from_iterable(cover.sets):
        _check_vertex(v)
    stray = [sorted(s - g.vertex_set) for s in cover.sets if not s <= g.vertex_set]
    if stray:
        raise ValueError(f"cover contains vertices outside the graph: {stray[0]}")
    union = frozenset().union(*cover.sets)
    if union != g.vertex_set:
        raise ValueError(f"cover misses vertices: {sorted(g.vertex_set - union)}")
    return _run(g, r, step_budget, kappa_small, cover.sets)


def levels_of(t: RootedTree) -> DispersedCover:
    """Distance classes from the root, V_0 = {root} first.

    Levels of a normal tree are antichains: two vertices at the same
    depth are never ancestor and descendant.
    """
    return DispersedCover(tuple(map(frozenset, t._levels())))


def _run(
    g: Graph,
    r: int,
    step_budget: int | None,
    kappa_small: int | None,
    classes: Sequence[frozenset[int]] | None,
) -> RunTrace:
    """The sweep loop of the three entry points, grown inside the one
    depth-first tree dfs_nst(g, r).

    classes is None for omega_nst, (u,) for local_normal_tree and the
    cover's sets for nst_from_dispersed_cover. With classes, an
    extension into a component D also targets the least vertex of D in
    the first class that meets D, and a D that no class meets is carried
    over as it is. The run ends target-covered when no class meets any
    component, before the budget is checked.
    """
    # the one depth-first tree from r; every extension is a down-closed
    # part of it, so a tree vertex's parent is its t parent
    t = dfs_nst(g, r)
    if step_budget is not None and _check_int("step budget", step_budget) < 0:
        raise ValueError(f"step budget must be non-negative, got {step_budget}")
    if kappa_small is not None and _check_int("kappa_small", kappa_small) < 0:
        raise ValueError(f"kappa_small must be non-negative, got {kappa_small}")

    # log only if the program has imported logging and enabled this logger
    logging = sys.modules.get("logging")
    logger = logging.getLogger(__name__) if logging else None
    debug = logger is not None and logger.isEnabledFor(logging.DEBUG)
    info = logger is not None and logger.isEnabledFor(logging.INFO)

    # the canonical families' vertex sequences, computed once per graph
    # and kept on its network for every later sweep on it; the selection
    # indices in the trace refer to these enumerations
    sweep_paths = _network(g)._sweep_paths
    # a pair above kappa_small is discarded as soon as it shows one path too many
    limit = None if kappa_small is None else kappa_small + 1

    adj, pre, end, index = g._adj, t._pre, t._end, t._index

    def component(h: int) -> tuple[int, int, frozenset[int]]:
        # the subtree below h, an interval of the preorder
        i = index[h]
        d = frozenset(pre[i : end[i]])
        return min(d), h, d

    # the components of g - tree, by least vertex, each with its top h:
    # the vertex outside the tree whose t parent is in it; those of g - r
    # are the subtrees below r's children
    comps = sorted(map(component, t.children(r)))
    tree = {r}
    steps: list[ExtensionStep] = []
    sweep = 0
    while True:
        if not comps:
            status = SPANNING
            break
        # the components partition the vertices outside the tree, so the
        # classes lie in the tree once no class meets a component
        if classes is not None and all(c.isdisjoint(d) for _, _, d in comps for c in classes):
            status = TARGET_COVERED
            break
        if step_budget is not None and sweep >= step_budget:
            status = BUDGET_EXHAUSTED
            break
        # extending into one component never changes another component
        # or its tree neighborhood, so the sweep may grow the tree freely
        # and split up only the component it extended into
        after: list[tuple[int, int, frozenset[int]]] = []
        for comp in comps:
            least, h, d = comp
            targets: set[int] = set()
            if classes is not None:
                for c in classes:
                    if not c.isdisjoint(d):
                        targets.add(min(c & d))
                        break
                else:  # no class meets d: it is carried over
                    after.append(comp)
                    continue
            near = {y for x in d for y in adj[x] if y in tree}
            selections: list[tuple[tuple[int, int], int]] = []
            for v, w in combinations(sorted(near), 2):
                fam = sweep_paths(v, w, limit)
                if fam is None:
                    continue
                for k, seq in enumerate(fam, 1):
                    if not d.isdisjoint(seq):
                        selections.append(((v, w), k))
                        targets |= d.intersection(seq)
                        if debug:
                            logger.debug(
                                "sweep %d: pair (%d,%d) path %d meets component %s",
                                sweep, v, w, k, sorted(d),
                            )
                        break
            fallback = None
            if not targets:
                fallback = least
                targets.add(fallback)
            chosen = frozenset(targets)
            t_d, added, tops = _extend(t, tree, h, near, chosen)
            after += map(component, tops)
            steps.append(ExtensionStep(
                step=sweep, component=d, attach_vertex=t_d, entry_vertex=h,
                targets=chosen, selections=tuple(selections),
                fallback_vertex=fallback, added=added,
            ))
            if info:
                logger.info(
                    "sweep %d: extended at %d into component %s, entry %d, %d targets",
                    sweep, t_d, sorted(d), h, len(targets),
                )
        comps = sorted(after)
        sweep += 1
    if status != SPANNING:
        # t restricted to the down-closed tree is still in preorder with
        # ascending children
        t = RootedTree._from_preorder(r, {v: p for v, p in t._parent.items() if v in tree})
    return RunTrace(tuple(steps), t, status)
