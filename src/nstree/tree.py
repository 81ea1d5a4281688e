"""Rooted trees, the tree order, and normality checking."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .graph import Graph, components, neighborhood


class RootedTree:
    """Rooted tree given by a parent map.

    The vertex set is the root plus the keys of the parent map. The map
    must be acyclic with every vertex reaching the root, which the
    constructor verifies once; all queries after that are cheap.
    """

    __slots__ = ("_root", "_parent", "_depth", "_children", "_order")

    def __init__(self, root: int, parent: Mapping[int, int] = ()) -> None:
        parent = dict(parent)
        if root in parent:
            raise ValueError(f"root {root} must not have a parent")
        children: dict[int, list[int]] = {root: []}
        for v in parent:
            children.setdefault(v, [])
        for v, p in parent.items():
            if p != root and p not in parent:
                raise ValueError(f"parent {p} of {v} is not a tree vertex")
            children[p].append(v)
        # breadth-first from the root, the growing order list serving as
        # the queue; depths double as the acyclicity check: a cycle in the
        # parent map is unreachable from the root and left without a depth
        depth: dict[int, int] = {root: 0}
        order: list[int] = [root]
        sorted_children: dict[int, tuple[int, ...]] = {}
        for v in order:
            cs = sorted_children[v] = tuple(sorted(children[v]))
            for c in cs:
                depth[c] = depth[v] + 1
            order.extend(cs)
        if len(depth) != len(parent) + 1:
            stranded = sorted(set(parent) - set(depth))
            raise ValueError(f"parent map has a cycle through {stranded}")
        self._root = root
        self._parent = parent
        self._depth = depth
        self._children = sorted_children
        self._order = tuple(order)

    @property
    def root(self) -> int:
        return self._root

    @property
    def parent_map(self) -> dict[int, int]:
        return dict(self._parent)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Tree vertices in breadth-first order from the root."""
        return self._order

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._depth)

    def parent(self, v: int) -> int | None:
        self._check(v)
        return self._parent.get(v)

    def children(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._children[v]

    def depth(self, v: int) -> int:
        self._check(v)
        return self._depth[v]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((v, p) if v < p else (p, v) for v, p in self._parent.items()))

    def __contains__(self, v: object) -> bool:
        return v in self._depth

    def __len__(self) -> int:
        return len(self._depth)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._root == other._root and self._parent == other._parent

    def __hash__(self) -> int:
        return hash((self._root, tuple(sorted(self._parent.items()))))

    def __repr__(self) -> str:
        return f"RootedTree(root={self._root}, {len(self._depth)} vertices)"

    def _check(self, v: int) -> None:
        if v not in self._depth:
            raise ValueError(f"vertex {v} not in tree")


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of a normality check.

    When normal is false, witness is a triple (u, v, path): two
    incomparable tree vertices joined by a path whose interior avoids
    the tree. The path is given as the full vertex sequence from u to v,
    so a bare chord appears as (u, v, (u, v)).
    """

    normal: bool
    witness: tuple[int, int, tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.normal


def tree_leq(t: RootedTree, u: int, v: int) -> bool:
    """True iff u lies on the root-to-v path, i.e. u is an ancestor of v or u == v."""
    t._check(u)
    t._check(v)
    du, dv = t.depth(u), t.depth(v)
    if du > dv:
        return False
    while dv > du:
        v = t._parent[v]
        dv -= 1
    return u == v


def down_closure(t: RootedTree, v: int) -> frozenset[int]:
    """All vertices on the root-to-v path, v and root included."""
    t._check(v)
    out = {v}
    while v != t.root:
        v = t._parent[v]
        out.add(v)
    return frozenset(out)


def is_chain(t: RootedTree, s: Iterable[int]) -> bool:
    """True iff the vertices of s are pairwise comparable in the tree order.

    Empty and single-vertex sets are chains. A set is a chain exactly
    when it sits inside the down-closure of its deepest member.
    """
    s = set(s)
    if len(s) <= 1:
        for v in s:
            t._check(v)
        return True
    deepest = max(s, key=lambda v: (t.depth(v), v))
    return s <= down_closure(t, deepest)


def is_normal(g: Graph, t: RootedTree) -> NormalityReport:
    """Check whether t is a normal tree of g.

    Normality means the endpoints of every path of g that starts and
    ends in the tree but is otherwise disjoint from it are comparable in
    the tree order. Such a path is either a single edge between tree
    vertices or runs through one component of g minus the tree, so it
    suffices to check (a) every g-edge between tree vertices has
    comparable ends and (b) the tree neighborhood of every such
    component is a chain.
    """
    tv = t.vertex_set
    if not tv <= g.vertex_set:
        raise ValueError(f"tree vertices not in graph: {sorted(tv - g.vertex_set)}")
    for u, v in t.edges():
        if not g.has_edge(u, v):
            raise ValueError(f"tree edge {u}-{v} is not an edge of the graph")
    for u, v in g.edges:
        if u in tv and v in tv:
            if not (tree_leq(t, u, v) or tree_leq(t, v, u)):
                return NormalityReport(False, (u, v, (u, v)))
    for comp in components(g, removed=tv):
        nbrs = neighborhood(g, comp, tv)
        if is_chain(t, nbrs):
            continue
        u, v = _incomparable_pair(t, nbrs)
        return NormalityReport(False, (u, v, _through_path(g, u, v, comp)))
    return NormalityReport(True)


def _incomparable_pair(t: RootedTree, s: frozenset[int]) -> tuple[int, int]:
    vs = sorted(s)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not (tree_leq(t, u, v) or tree_leq(t, v, u)):
                return u, v
    raise AssertionError("no incomparable pair in a non-chain")


def _through_path(g: Graph, u: int, v: int, interior: frozenset[int]) -> tuple[int, ...]:
    # shortest u-v path with all inner vertices inside the given
    # component; exists because u and v both neighbor the component
    prev: dict[int, int] = {}
    frontier = [u]
    seen = {u}
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y == v:
                    path = [v, x]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                if y in interior and y not in seen:
                    seen.add(y)
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    raise AssertionError(f"no path from {u} to {v} through component")


def separates_incomparable(g: Graph, t: RootedTree, u: int, v: int) -> bool:
    """Whether down_closure(u) ∩ down_closure(v) separates u from v in g.

    For a normal tree this always holds; it is exposed as a cross-check
    for the construction algorithms, not as a decision procedure.
    """
    if tree_leq(t, u, v) or tree_leq(t, v, u):
        raise ValueError(f"vertices {u} and {v} are comparable")
    sep = down_closure(t, u) & down_closure(t, v)
    for comp in components(g, removed=frozenset(sep)):
        if u in comp and v in comp:
            return False
    return True
