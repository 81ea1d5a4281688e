"""Rooted trees, the tree order, and normality checking."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain

from ._record import Record, _set
from .graph import Graph, _check_vertex, components


class RootedTree:
    """Rooted tree given by a parent map.

    The vertex set is the root plus the keys of the parent map. The map
    must be acyclic with every vertex reaching the root, which the
    constructor verifies once; all queries after that are cheap.

    Every tree is numbered the one way, by _number: in preorder with
    ascending children, the subtree of the vertex numbered i being the
    index range [i, end[i]), so u <= v in the tree order exactly when
    i_u <= i_v < end[i_u]. The constructor checks the map and lists its
    preorder; _from_preorder, for a map already in preorder, skips both.
    The depths are computed on first read, and the breadth-first vertex
    order on each read, from the levels (_levels).
    """

    __slots__ = ("_root", "_parent", "_index", "_pre", "_end", "_depth")

    def __init__(self, root: int, parent: Mapping[int, int] = ()) -> None:
        parent = dict(parent)
        if root in parent:
            raise ValueError(f"root {root} must not have a parent")
        children: dict[int, list[int]] = {v: [] for v in parent}
        children[root] = []
        for v, p in parent.items():
            try:
                children[p].append(v)
            except KeyError:
                raise ValueError(f"parent {p} of {v} is not a tree vertex") from None
        # preorder with ascending children: the listing descends straight
        # into a vertex's least child, and its later siblings wait on a
        # stack, greatest first; a cycle in the parent map is unreachable
        # from the root and left out
        pre: list[int] = []
        stack: list[int] = []
        v = root
        while True:
            pre.append(v)
            cs = children[v]
            if len(cs) == 1:
                v = cs[0]
            elif cs:
                cs.sort(reverse=True)
                v = cs.pop()
                stack += cs
            elif stack:
                v = stack.pop()
            else:
                break
        if len(pre) != len(parent) + 1:
            stranded = sorted(set(parent).difference(pre))
            raise ValueError(f"parent map has a cycle through {stranded}")
        self._number(root, parent, pre)

    @classmethod
    def _from_preorder(cls, root: int, parent: dict[int, int]) -> RootedTree:
        """The tree of a parent map whose keys run in preorder with
        ascending children, as a depth-first search that scans neighbours
        in ascending order discovers them. The map is trusted and kept,
        not copied: nothing is checked, and the numbering is the map's
        own order.
        """
        t = cls.__new__(cls)
        t._number(root, parent, [root, *parent])
        return t

    def _number(self, root: int, parent: dict[int, int], pre: list[int]) -> None:
        """Set up the tree with preorder pre, reading each vertex's
        parent from the parent map."""
        n = len(pre)
        index = dict(zip(pre, range(n)))
        # a subtree ends where the subtree of its last child ends, and a
        # leaf's right after itself; children follow their parent, so a
        # backward pass sees every end before it passes it up
        end = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            p = index[parent[pre[i]]]
            if end[p] < end[i]:
                end[p] = end[i]
        self._root = root
        self._parent = parent
        self._index = index
        self._pre = pre
        self._end = end
        self._depth: list[int] | None = None

    @property
    def root(self) -> int:
        return self._root

    @property
    def parent_map(self) -> dict[int, int]:
        return dict(self._parent)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Tree vertices in breadth-first order from the root."""
        # breadth-first order with ascending children lists each level
        # in preorder
        return tuple(chain.from_iterable(self._levels()))

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._index)

    def parent(self, v: int) -> int | None:
        self._num(v)
        return self._parent.get(v)

    def children(self, v: int) -> tuple[int, ...]:
        # the first child follows v in preorder, each next one follows
        # the subtree of its elder sibling
        i = self._num(v)
        pre, end = self._pre, self._end
        stop = end[i]
        out = []
        j = i + 1
        while j < stop:
            out.append(pre[j])
            j = end[j]
        return tuple(out)

    def depth(self, v: int) -> int:
        return self._depths()[self._num(v)]

    def _depths(self) -> list[int]:
        """The depth of every vertex, by preorder number."""
        if self._depth is None:
            # a parent precedes its children in preorder
            index, parent, pre = self._index, self._parent, self._pre
            depth = [0] * len(pre)
            for j, p in enumerate(map(index.__getitem__, map(parent.__getitem__, pre[1:])), 1):
                depth[j] = depth[p] + 1
            self._depth = depth
        return self._depth

    def _levels(self) -> list[list[int]]:
        """The vertices by depth from the root, each level in preorder."""
        levels: list[list[int]] = []
        # a parent precedes its children in preorder, so each depth is at
        # most one past the deepest level yet
        for v, d in zip(self._pre, self._depths()):
            if d < len(levels):
                levels[d].append(v)
            else:
                levels.append([v])
        return levels

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((v, p) if v < p else (p, v) for v, p in self._parent.items()))

    def __contains__(self, v: object) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._root == other._root and self._parent == other._parent

    def __hash__(self) -> int:
        return hash((self._root, tuple(sorted(self._parent.items()))))

    def __repr__(self) -> str:
        return f"RootedTree(root={self._root}, {len(self._index)} vertices)"

    def _num(self, v: int) -> int:
        """The preorder number of v. A value that equals an id but is not
        an int, such as True or 1.0, raises the TypeError Graph raises."""
        try:
            return self._index[_check_vertex(v)]
        except KeyError:
            raise ValueError(f"vertex {v} not in tree") from None


class NormalityReport(Record):
    """Outcome of a normality check.

    When normal is false, witness is a triple (u, v, path): two
    incomparable tree vertices joined by a path whose interior avoids
    the tree. The path is given as the full vertex sequence from u to v,
    so a bare chord appears as (u, v, (u, v)).
    """

    __slots__ = ("normal", "witness")

    def __init__(
        self, normal: bool, witness: tuple[int, int, tuple[int, ...]] | None = None
    ) -> None:
        _set(self, "normal", normal)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.normal


def tree_leq(t: RootedTree, u: int, v: int) -> bool:
    """True iff u lies on the root-to-v path, i.e. u is an ancestor of v or u == v."""
    i = t._num(u)
    j = t._num(v)
    return i <= j < t._end[i]


def down_closure(t: RootedTree, v: int) -> frozenset[int]:
    """All vertices on the root-to-v path, v and root included."""
    t._num(v)
    parent, root = t._parent, t._root
    out = {v}
    while v != root:
        v = parent[v]
        out.add(v)
    return frozenset(out)


def is_chain(t: RootedTree, s: Iterable[int]) -> bool:
    """True iff the vertices of s are pairwise comparable in the tree order.

    Empty and single-vertex sets are chains. A set is a chain exactly
    when every member is an ancestor of (or equal to) the member with
    the largest preorder number, which takes one interval test each.
    Unlike the other tree queries, members are not checked to be ints:
    the answer carries no vertex, and a test per member would tax the
    calls on many small sets.
    """
    if iter(s) is s:  # an iterator is read once, and kept for the message
        s = tuple(s)
    index = t._index
    try:
        nums = list(map(index.__getitem__, s))
    except KeyError:
        # name the non-member that comes first in set order
        v = next(v for v in set(s) if v not in index)
        raise ValueError(f"vertex {v} not in tree") from None
    if len(nums) <= 1:
        return True
    last = max(nums)
    end = t._end
    for i in nums:
        if end[i] <= last:
            return False
    return True


def is_normal(g: Graph, t: RootedTree) -> NormalityReport:
    """Check whether t is a normal tree of g.

    Normality means the endpoints of every path of g that starts and
    ends in the tree but is otherwise disjoint from it are comparable in
    the tree order. Such a path is either a single edge between tree
    vertices or runs through one component of g minus the tree, so it
    suffices to check (a) every g-edge between tree vertices has
    comparable ends and (b) the tree neighborhood of every such
    component is a chain. With the preorder intervals of t each
    comparison is O(1), so the check is O(n + m) plus the test that
    every tree edge is an edge of g.

    (a) is one pass over the edges of g, each end read by its preorder
    number. A vertex outside the tree reads as the root's number 0; the
    root is comparable with every vertex, so an edge with an end
    outside passes. A spanning tree leaves no component, so (b) is
    skipped for it.
    """
    index, end = t._index, t._end
    if not g.vertex_set.issuperset(index):
        raise ValueError(f"tree vertices not in graph: {sorted(index.keys() - g.vertex_set)}")
    adj = g._adj
    # every child is in its parent's neighbour tuple
    for v, p in t._parent.items():
        if v not in adj[p]:
            # name the least missing edge
            for a, b in t.edges():
                if not g.has_edge(a, b):
                    raise ValueError(f"tree edge {a}-{b} is not an edge of the graph")
    spanning = len(index) == len(g)
    if spanning:
        num = index
    else:
        num = dict.fromkeys(g.vertices, 0)
        num.update(index)
    for u, v in g.edges:
        i = num[u]
        j = num[v]
        if i < j:
            if j >= end[i]:
                return NormalityReport(False, (u, v, (u, v)))
        elif i >= end[j]:
            return NormalityReport(False, (u, v, (u, v)))
    if spanning:  # no component is left outside
        return NormalityReport(True)
    for comp in components(g, removed=t.vertex_set):
        nbrs = {y for x in comp for y in adj[x] if y in index}
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
