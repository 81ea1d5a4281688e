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
from collections.abc import Callable, Iterable
from collections.abc import Set as AbstractSet

from ._record import Record, _set
from .connectivity import _network
from .graph import Graph
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
        """Tree after the first `count` extensions."""
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
    if r not in g:
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
    children. The search is the recursive one, kept by hand: each open
    vertex holds an iterator over its neighbours, and the top one
    descends into its next unseen neighbour, or closes. The map is the
    seen set, with r marked in it until the search ends.
    """
    adj = g._adj
    parent = {r: r}
    stack = [(r, iter(adj[r]))]
    while stack:
        x, nbrs = stack[-1]
        for y in nbrs:
            if y not in parent:
                parent[y] = x
                stack.append((y, iter(adj[y])))
                break
        else:
            stack.pop()
    del parent[r]
    return parent


def _extend(
    dfs: dict[int, int],
    depth: dict[int, int],
    order: list[int],
    nbrs: AbstractSet[int],
    targets: frozenset[int],
) -> tuple[int, int, tuple[tuple[int, int], ...], list[tuple[frozenset[int], list[int]]]]:
    """Grow the tree marked by depth into the component whose vertices
    order lists in preorder of the depth-first tree dfs, in place.

    The tree is a down-closed part of dfs and the component a subtree
    of dfs hanging off it, entered at its first vertex r_d, whose dfs
    parent is the deepest tree neighbor t_d of the component: the
    search from the root entered the component from t_d, at t_d's
    least neighbor in it. The extension keeps the down-closures of the
    targets in that subtree, which keeps the tree down-closed in dfs,
    and so normal. Returns t_d, r_d, the new (child, parent) edges in
    ascending order, and the components left outside the tree, by their
    first vertex in preorder, each as its vertex set and its preorder.

    A depth-first tree has no cross edges, so those components are
    exactly the subtrees of dfs hanging off kept vertices.
    """
    t_d = max(nbrs, key=depth.__getitem__)
    # a normal tree's neighborhood of the component is a chain: all of
    # it lies on the root path of its deepest member
    found = 1
    x = t_d
    while found < len(nbrs) and x in dfs:
        x = dfs[x]
        if x in nbrs:
            found += 1
    if found < len(nbrs):
        raise AssertionError(
            "tree neighborhood of the component is not a chain (tree is not normal)"
        )
    r_d = order[0]
    if dfs[r_d] != t_d:
        raise AssertionError(
            f"component entered at {r_d}, which does not hang below its deepest "
            f"tree neighbor {t_d} in the depth-first tree"
        )
    keep = {r_d}
    for x in targets:
        while x not in keep:
            keep.add(x)
            x = dfs[x]
    added: list[tuple[int, int]] = []
    rest: list[list[int]] = []
    # keep is closed under dfs parents, so a subtree hanging off it holds
    # no kept vertex and runs unbroken in preorder
    for v in order:
        p = dfs[v]
        if v in keep:
            added.append((v, p))
        elif p in keep:
            rest.append([v])
        else:
            rest[-1].append(v)
    for v, p in added:
        depth[v] = depth[p] + 1
    return t_d, r_d, tuple(sorted(added)), [(frozenset(c), c) for c in rest]


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
    return _run(g, r, step_budget, kappa_small, skip=None, extra_target=None)


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
    u = frozenset(u)
    if not u <= g.vertex_set:
        raise ValueError(f"target vertices not in graph: {sorted(u - g.vertex_set)}")
    return _run(
        g,
        r,
        step_budget,
        kappa_small,
        skip=lambda d: not (u & d),
        extra_target=lambda d: min(u & d),
    )


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
    stray = [sorted(s - g.vertex_set) for s in cover.sets if not s <= g.vertex_set]
    if stray:
        raise ValueError(f"cover contains vertices outside the graph: {stray[0]}")
    union = frozenset().union(*cover.sets) if cover.sets else frozenset()
    if union != g.vertex_set:
        raise ValueError(f"cover misses vertices: {sorted(g.vertex_set - union)}")

    def first_class_target(d: frozenset[int]) -> int:
        for s in cover.sets:
            if s & d:
                return min(s & d)
        raise AssertionError("cover validated to span the graph")

    return _run(g, r, step_budget, kappa_small, skip=None, extra_target=first_class_target)


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
    skip: Callable[[frozenset[int]], bool] | None,
    extra_target: Callable[[frozenset[int]], int] | None,
) -> RunTrace:
    if r not in g:
        raise ValueError(f"root {r} not in graph")
    # the one depth-first tree from r; every extension is a down-closed
    # part of it, so the tree is marked by depth and a tree vertex's
    # parent is its dfs parent
    dfs = _dfs(g, r)
    if len(dfs) + 1 != len(g):
        raise ValueError("graph is disconnected")
    if step_budget is not None and step_budget < 0:
        raise ValueError(f"step budget must be non-negative, got {step_budget}")
    if kappa_small is not None and kappa_small < 0:
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

    # the components of g - tree, each as its vertex set and its vertices
    # in preorder, by least vertex; those of g - r are the subtrees below
    # r's children, each one unbroken in preorder
    split: list[list[int]] = []
    for v, p in dfs.items():
        if p == r:
            split.append([v])
        else:
            split[-1].append(v)
    comps = sorted(((frozenset(c), c) for c in split), key=_least)
    depth = {r: 0}
    steps: list[ExtensionStep] = []
    sweep = 0
    while True:
        if not comps:
            status = SPANNING
            break
        # the components partition the vertices outside the tree, so the
        # targets lie in the tree once every component is skipped
        if skip is not None and all(skip(d) for d, _ in comps):
            status = TARGET_COVERED
            break
        if step_budget is not None and sweep >= step_budget:
            status = BUDGET_EXHAUSTED
            break
        # extending into one component never changes another component
        # or its tree neighborhood, so the sweep may grow the tree freely
        # and split up only the component it extended into
        after: list[tuple[frozenset[int], list[int]]] = []
        for comp in comps:
            d, order = comp
            if skip is not None and skip(d):
                after.append(comp)
                continue
            near = {y for x in order for y in g.neighbors(x) if y in depth}
            nbrs = sorted(near)
            selections: list[tuple[tuple[int, int], int]] = []
            targets: set[int] = set()
            for i, v in enumerate(nbrs):
                for w in nbrs[i + 1 :]:
                    fam = sweep_paths(v, w, limit)
                    if fam is None:
                        continue
                    for k, seq in enumerate(fam, 1):
                        inside = d.intersection(seq)
                        if inside:
                            selections.append(((v, w), k))
                            targets |= inside
                            if debug:
                                logger.debug(
                                    "sweep %d: pair (%d,%d) path %d meets component %s",
                                    sweep, v, w, k, sorted(d),
                                )
                            break
            if extra_target is not None:
                targets.add(extra_target(d))
            fallback = None
            if not targets:
                fallback = min(d)
                targets.add(fallback)
            t_d, r_d, added, rest = _extend(dfs, depth, order, near, frozenset(targets))
            after += rest
            steps.append(ExtensionStep(
                step=sweep, component=d, attach_vertex=t_d, entry_vertex=r_d,
                targets=frozenset(targets), selections=tuple(selections),
                fallback_vertex=fallback, added=added,
            ))
            if info:
                logger.info(
                    "sweep %d: extended at %d into component %s, entry %d, %d targets",
                    sweep, t_d, sorted(d), r_d, len(targets),
                )
        comps = sorted(after, key=_least)
        sweep += 1
    # dfs restricted to the down-closed tree is still in preorder with
    # ascending children
    tree = {v: p for v, p in dfs.items() if v in depth}
    return RunTrace(tuple(steps), RootedTree._from_preorder(r, tree), status)


def _least(comp: tuple[frozenset[int], list[int]]) -> int:
    """The least vertex of a component, by which the sweeps order them."""
    return min(comp[1])
