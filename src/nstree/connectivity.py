"""Vertex connectivity: independent path families and minimum separators.

Everything here reduces to unit-vertex-capacity maximum flow in the
split-vertex network, where a graph vertex becomes an in-node and an
out-node joined by a through-arc whose capacity is 1 when the vertex
may be consumed or cut, unbounded otherwise. The network is never
built as arcs: with unit through-arcs, a vertex's residual arcs follow
from its predecessor and successor on its path, so a flow is two links
per vertex. Augmenting paths are found breadth-first over ascending
node ids, source and sink last, and the paths the final flow splits
into are sorted, so every result is a deterministic function of the
graph alone. That determinism is load-bearing: the construction
algorithms select paths by index out of these families, and reruns
must pick the same paths. The network of a graph is built once
(FlowNetwork) and answers any number of queries; the public functions
and the constructions reuse the network of the graph they were called
with last (_network). That network also holds the families the sweeps
have computed on its graph, so sweeps on one graph share them.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet

from ._record import Record, _set
from .graph import Graph

_INF = 1 << 30


class Path(Record):
    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]) -> None:
        if not vertices:
            raise ValueError("a path has at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"repeated vertex in path {vertices}")
        _set(self, "vertices", vertices)

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple((u, v) if u < v else (v, u) for u, v in zip(vs, vs[1:]))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


class PathFamily(Record):
    """Independent v-w paths in a fixed canonical order, indexed from 1.

    Member paths share no vertex besides v and w. The order is part of
    the contract: construction algorithms pick the least index whose
    path meets a component, and an index must mean the same path on
    every run over the same graph.
    """

    __slots__ = ("v", "w", "paths")

    def __init__(self, v: int, w: int, paths: tuple[Path, ...]) -> None:
        seen: set[int] = set()
        for p in paths:
            if p.ends != (v, w):
                raise ValueError(f"path {p.vertices} does not run from {v} to {w}")
            inner = set(p.interior)
            if inner & seen:
                raise ValueError(f"paths share interior vertices {sorted(inner & seen)}")
            seen |= inner
        _set(self, "v", v)
        _set(self, "w", w)
        _set(self, "paths", paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, index: int) -> Path:
        """1-based, matching least-index selection."""
        if index < 1:
            raise IndexError(f"path indices start at 1, got {index}")
        return self.paths[index - 1]


class Separator(Record):
    """A vertex set s together with the two sides a, b it separates."""

    __slots__ = ("s", "a", "b")

    def __init__(self, s: frozenset[int], a: frozenset[int], b: frozenset[int]) -> None:
        _set(self, "s", s)
        _set(self, "a", a)
        _set(self, "b", b)


class InseparableError(ValueError):
    """No separator disjoint from both sides exists (an edge joins them directly)."""


class FlowNetwork:
    """Unit-vertex-capacity flow network of a graph, built once and
    queried many times.

    The flow is that of the split-vertex network: the vertex of
    ascending rank k has an in-node and an out-node joined by a
    through-arc, and every edge u-v gives the arcs out(u)->in(v) and
    out(v)->in(u). The network keeps the rank map and, for each rank,
    the tuple of its neighbors' ranks with its own rank in its ascending
    place (_nbrs). That tuple lists the arcs of the vertex's out-node
    by ascending head, the tie-break of the breadth-first search: edge
    arcs to the neighbors' in-nodes and, at its own rank, the reverse of
    its through-arc.

    A flow keeps no arc capacities. Every interior vertex carries at
    most one unit, so its state is two links, the ranks before and after
    it on its path (pred and succ, -1 while it carries none), and every
    residual arc follows from them (see _pair_search). The source v is
    never entered, and pred[y] == v marks each first vertex y of a
    path, w itself for a direct v-w edge. The search stops at the first
    path into w, so w is never left either.

    Blocked vertices are never entered, so one network answers for its
    induced subgraphs: the other vertices are found in the order of the
    subgraph's network, and every path, family and cut is that
    subgraph's. find_fat_tk and is_dispersed each run all their routings
    and cuts on one network. Cuts (_cut) run on the same links with
    unbounded edges and an excluded edge skipped.

    The neighbor tuples never change once built. The one mutable part is
    _families, the sweeps' memo: the vertex sequences _paths(v, w,
    limit) gave, unmasked, keyed (v, w, limit). A family depends on the
    graph alone, so the memo is valid for as long as the network lives.
    Only construct._run reads and fills it; other queries neither read
    nor write it, so a loop over all pairs does not pile families up.
    """

    __slots__ = ("graph", "_rank", "_nbrs", "_families")

    def __init__(self, g: Graph) -> None:
        self.graph = g
        rank = {v: k for k, v in enumerate(g.vertices)}
        self._rank = rank
        self._nbrs = [tuple(sorted([k, *map(rank.__getitem__, g.neighbors(v))]))
                      for k, v in enumerate(g.vertices)]
        self._families: dict[tuple[int, int, int | None], tuple[tuple[int, ...], ...] | None] = {}

    def kappa(self, v: int, w: int) -> int:
        """Largest number of independent v-w paths."""
        _check_pair(self.graph, v, w)
        return self._pair_flow(v, w, None)[0]

    def family(
        self, v: int, w: int, limit: int | None = None, blocked: AbstractSet[int] = frozenset()
    ) -> PathFamily | None:
        """Canonical maximum family of independent v-w paths.

        With a limit, stops once `limit` paths are found and returns
        None instead of a family, skipping the decomposition. The paths
        avoid the blocked vertices: the family is that of the subgraph
        induced by the other vertices.
        """
        _check_pair(self.graph, v, w)
        if v in blocked or w in blocked:
            raise ValueError(f"endpoints {v} and {w} must not be blocked")
        if not blocked <= self.graph.vertex_set:
            raise ValueError(f"blocked vertices not in graph: {sorted(blocked - self.graph.vertex_set)}")
        seqs = self._paths(v, w, limit, blocked)
        if seqs is None:
            return None
        return PathFamily(v, w, tuple(map(Path, seqs)))

    def _paths(
        self, v: int, w: int, limit: int | None, blocked: AbstractSet[int] = frozenset()
    ) -> tuple[tuple[int, ...], ...] | None:
        """Vertex sequences of the canonical family, sorted; None once
        `limit` paths are found. Arguments are taken as valid.

        Each path starts at a neighbor y of v with pred[y] == v and
        follows succ to w. Raises AssertionError unless the paths are
        simple, their interiors pairwise disjoint and free of v and w,
        and as many as the flow value: the invariants a PathFamily holds.
        """
        total, pred, succ = self._pair_flow(v, w, limit, blocked)
        if limit is not None and total >= limit:
            return None
        vs = self.graph.vertices
        kv, kw = self._rank[v], self._rank[w]
        seen = {v}
        seqs = []
        for y in self._nbrs[kv]:
            if pred[y] != kv:
                continue
            seq = [v]
            while y != kw:
                x = vs[y]
                if x in seen:
                    raise AssertionError(f"paths from {v} to {w} meet at {x}")
                seen.add(x)
                seq.append(x)
                y = succ[y]
                if y < 0:
                    raise AssertionError(f"flow from {v} to {w} is not conserved at {x}")
            seq.append(w)
            seqs.append(tuple(seq))
        if len(seqs) != total:
            raise AssertionError(f"{len(seqs)} paths from {v} to {w} carry a flow of {total}")
        seqs.sort()
        return tuple(seqs)

    def _pair_flow(
        self, v: int, w: int, limit: int | None, blocked: AbstractSet[int] = frozenset()
    ) -> tuple[int, list[int], list[int]]:
        """Value and path links (pred, succ) of the maximum v-w flow
        avoiding the blocked vertices, or of the first `limit`
        augmenting paths."""
        rank = self._rank
        kv, kw = rank[v], rank[w]
        n = len(rank)
        pred = [-1] * n
        succ = [-1] * n
        # in-nodes the search never enters: v's and the blocked ones
        fresh = [-1] * n
        fresh[kv] = -2
        # every path leaves v and enters w by an edge of its own to an
        # unblocked neighbor, so a flow that many strong is maximum
        # without a failing search
        nbrs = self.graph.neighbors
        if blocked:
            for x in blocked:
                fresh[rank[x]] = -2
            bound = min(len([x for x in nbrs(v) if x not in blocked]),
                        len([x for x in nbrs(w) if x not in blocked]))
        else:
            bound = min(len(nbrs(v)), len(nbrs(w)))
        if limit is not None:
            bound = min(bound, limit)
        total = 0
        while total < bound and _pair_search(self._nbrs, fresh, pred, succ, kv, kw):
            total += 1
        return total, pred, succ

    def _cut(
        self, a: frozenset[int], b: frozenset[int], sides_cuttable: bool,
        blocked: AbstractSet[int] = frozenset(), excluded: tuple[int, int] | None = None,
        value: int = _INF,
    ) -> frozenset[int]:
        """Vertices whose through-arcs form the sink-side minimum a-b cut.

        Edges are unbounded, so the cut consists of through-arcs: 0 for
        a blocked vertex, 1 for any other, and unbounded for a and b
        unless sides_cuttable. The cut is that of the subgraph induced
        by the unblocked vertices, without the edge `excluded` if its
        ends are adjacent.

        A caller that knows the flow's value passes it as `value`, and
        the flow stops there; with cuttable sides it stops at
        min(|a|, |b|) too, since every unit of flow leaves through one
        of a's through-arcs and arrives through one of b's. A maximum
        flow reached that way spares the search that would fail and
        leaves the residual network that search would have left, so
        the cut is the same.

        Raises AssertionError unless the cut has as many vertices as the
        flow is strong, the max-flow min-cut identity.
        """
        rank, nbrs = self._rank, self._nbrs
        n = len(rank)
        if sides_cuttable:
            value = min(value, len(a), len(b))
        else:
            blocked = blocked - a - b
        if excluded is not None:
            u, x = rank[excluded[0]], rank[excluded[1]]
            nbrs = list(nbrs)
            nbrs[u] = tuple(y for y in nbrs[u] if y != x)
            nbrs[x] = tuple(y for y in nbrs[x] if y != u)
        # pred is -2 for a blocked vertex, x for a used cuttable source x,
        # and never set for a vertex whose through-arc is unbounded
        pred = [-1] * n
        succ = [-1] * n
        fresh = [-1] * n
        for x in blocked:
            pred[rank[x]] = fresh[rank[x]] = -2
        starts = sorted(rank[x] for x in a)
        for k in starts:
            fresh[k] = -2
        sink = bytearray(n)
        for x in b:
            sink[rank[x]] = 1
        total = 0
        while total < value and _cut_search(nbrs, fresh, pred, succ, starts, sink, sides_cuttable):
            total += 1
        # the vertices whose in-node or out-node still reaches a sink
        # out-node in the residual network, found backwards from those
        side_in = bytearray(n)
        side_out = bytearray(sink)
        outs = [k for k in range(n) if sink[k]]
        ins: list[int] = []
        while outs or ins:
            if outs:
                y = outs.pop()
                # into out(y): y's through-arc while it has room, and the
                # reverse of y's outflow (an unbounded source's out-node
                # is never here once the flow is maximum, so y has one
                # outflow at most)
                for t in (y if pred[y] == -1 else -1, succ[y]):
                    if t >= 0 and not side_in[t]:
                        side_in[t] = 1
                        ins.append(t)
            else:
                y = ins.pop()
                # into in(y): every edge, and the reverse of y's
                # through-arc while y carries flow; an unused y's in-node
                # is only reached from its out-node, which is here then
                for x in nbrs[y]:
                    if not side_out[x]:
                        side_out[x] = 1
                        outs.append(x)
        vs = self.graph.vertices
        cut = frozenset(vs[k] for k in range(n) if side_out[k] and not side_in[k] and pred[k] != -2)
        if len(cut) != total:
            raise AssertionError(f"a cut of {len(cut)} vertices for a flow of {total}")
        return cut


def _pair_search(
    nbrs: list[tuple[int, ...]], fresh: list[int], pred: list[int], succ: list[int], kv: int, kw: int
) -> bool:
    """Augment the v-w flow in pred and succ along its next augmenting
    path; False when none is left.

    The search queues out-nodes by vertex rank and scans each one's
    neighbor tuple as the split-vertex network lists that out-node's
    arcs: edges, and at its own rank its own in-node, reached by the
    reverse of its through-arc while it carries flow and entered already
    otherwise. It enters an in-node at most once, never v's or a blocked
    one (marked in fresh), and leaves it at once by its one residual
    arc: an unused vertex by its through-arc, a used one back to
    pred[y]. For v it skips the edges that carry v's paths. The edge
    from any other x to succ[x] needs no test: a used x is only reached
    back from in(succ[x]), which is then entered already. So in-nodes
    are expanded in the order a layered search would scan them, every
    node is reached by the same arc, and the same augmenting path is
    found.

    seen[y] is the out-node rank that entered in-node y, y itself when
    it was entered by the reverse of its own through-arc; came[z] is
    the in-node rank that reached out-node z.
    """
    seen = fresh.copy()
    came = [-1] * len(nbrs)
    came[kv] = kv
    queue = []
    for y in nbrs[kv]:
        if seen[y] == -1 and pred[y] != kv:
            seen[y] = kv
            if y == kw:
                pred[kw] = kv  # the direct edge carries a path
                return True
            p = pred[y]
            if p < 0:
                p = y
            if came[p] == -1:
                came[p] = y
                queue.append(p)
    for x in queue:  # grows while it is read: a FIFO queue
        for y in nbrs[x]:
            if seen[y] == -1:
                seen[y] = x
                if y == kw:
                    succ[x] = kw
                    _augment(seen, came, pred, succ, x)
                    return True
                p = pred[y]
                if p < 0:
                    p = y
                if came[p] == -1:
                    came[p] = y
                    queue.append(p)
    return False


def _cut_search(
    nbrs: list[tuple[int, ...]], fresh: list[int], pred: list[int], succ: list[int],
    starts: list[int], sink: bytearray, cuttable: bool,
) -> bool:
    """Augment the cut's flow in pred and succ along its next augmenting
    path from a start's out-node to a sink's; False when none is left.

    The search of _pair_search with unbounded edges: no edge is skipped
    (the excluded one is already gone from nbrs), and entering a sink's
    unused in-node ends the search. A start's in-node is never entered;
    its out-node starts the search while the start has room, always
    when sides are not cuttable, and once otherwise.
    """
    seen = fresh.copy()
    came = [-1] * len(nbrs)
    queue = []
    for s in starts:
        if pred[s] == -1:
            came[s] = s
            if sink[s]:
                pred[s] = s  # a path of one vertex in a and b
                return True
            queue.append(s)
    for x in queue:
        for y in nbrs[x]:
            if seen[y] == -1:
                seen[y] = x
                p = pred[y]
                if p < 0:
                    if sink[y]:
                        succ[x] = y
                        s = _augment(seen, came, pred, succ, x)
                        if cuttable:
                            pred[y] = x
                            pred[s] = s
                        return True
                    p = y
                if came[p] == -1:
                    came[p] = y
                    queue.append(p)
    return False


def _augment(seen: list[int], came: list[int], pred: list[int], succ: list[int], x: int) -> int:
    """Relink pred and succ along the augmenting path that reaches
    out-node x, walking it back to its start, whose rank is returned.

    Every in-node y on the path is entered from seen[y]: by an edge,
    which becomes y's inflow, or by the reverse of y's own through-arc,
    which frees y. Out-node x was reached from in-node came[x]: by x's
    through-arc, or by the reverse of x's outflow to it, which the
    path's next arc has already replaced.
    """
    while True:
        y = came[x]
        u = seen[y]
        if u < 0:  # in(y) is never entered: out(y) starts the path
            return x
        if u == y:
            pred[y] = succ[y] = -1
        else:
            pred[y] = u
            succ[u] = y
        x = u


_last: FlowNetwork | None = None


def _network(g: Graph) -> FlowNetwork:
    """The network of g: the one built last if it was built for this
    very Graph object, else a new one, which takes its place.

    One network is held, never more: a sweep or a fat-TK search asks
    about one graph many times in a row, and a slot per graph would
    keep the network of every live graph in memory. The sweeps' family
    memo lives on the network, so it is dropped with it as soon as
    another graph is asked about. Each query allocates its own
    capacities, and the memo's entries are immutable and stored by one
    dict assignment each, so concurrent callers may share a network:
    two sweeps that race on one key compute the same family and store
    equal values. The held entry is replaced in one assignment, and a
    caller racing another reads one of the two.
    """
    global _last
    net = _last
    if net is None or net.graph is not g:
        net = _last = FlowNetwork(g)
    return net


def _check_pair(g: Graph, v: int, w: int) -> None:
    if v == w:
        raise ValueError(f"endpoints must differ, got {v} twice")
    for x in (v, w):
        if x not in g:
            raise ValueError(f"vertex {x} not in graph")


def kappa(g: Graph, v: int, w: int) -> int:
    """Largest number of independent v-w paths.

    Paths are independent when they share no vertex other than v and w;
    a direct v-w edge counts as one member of the family.
    """
    return _network(g).kappa(v, w)


def max_independent_paths(g: Graph, v: int, w: int) -> PathFamily:
    """Canonical maximum family of independent v-w paths.

    The family is a deterministic function of the graph: augmentation
    and decomposition break ties by least id, then the paths are sorted
    by vertex sequence. Index 1 is the lexicographically least path.
    Returns the empty family when v and w are in different components.
    """
    fam = _network(g).family(v, w)
    assert fam is not None  # no limit given
    return fam


def _check_sides(g: Graph, a: frozenset[int], b: frozenset[int]) -> None:
    if not a or not b:
        raise ValueError("both sides must be nonempty")
    if not a <= g.vertex_set or not b <= g.vertex_set:
        raise ValueError("sides must be subsets of the graph")


def min_separator(
    g: Graph, a: frozenset[int] | set[int], b: frozenset[int] | set[int]
) -> Separator:
    """Minimum vertex set disjoint from a and b meeting every a-b path.

    |S| equals the maximum number of a-b paths with pairwise disjoint
    interiors outside a ∪ b. Raises InseparableError when an edge joins
    a directly to b, since then no separator avoiding both sides exists.
    """
    a = frozenset(a)
    b = frozenset(b)
    _check_sides(g, a, b)
    if a & b:
        raise ValueError(f"sides overlap on {sorted(a & b)}")
    for u in sorted(a):
        for x in g.neighbors(u):
            if x in b:
                raise InseparableError(f"edge {u}-{x} joins the two sides directly")
    return Separator(_network(g)._cut(a, b, sides_cuttable=False), a, b)


def min_blocking_set(
    g: Graph, a: frozenset[int] | set[int], b: frozenset[int] | set[int]
) -> Separator:
    """Minimum vertex set meeting every a-b path, endpoints included.

    Unlike min_separator, the blocking set may contain vertices of a or
    b, so one always exists: sides may overlap or be joined by an edge,
    and any shared vertex is forced into the result. A single vertex
    counts as a path from itself to itself, which is what makes
    blocking sets the right notion for separating a probe set from a
    structure it touches.
    """
    a = frozenset(a)
    b = frozenset(b)
    _check_sides(g, a, b)
    return Separator(_network(g)._cut(a, b, sides_cuttable=True), a, b)
