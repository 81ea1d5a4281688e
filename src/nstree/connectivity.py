"""Vertex connectivity: independent path families and minimum separators.

Everything here reduces to unit-vertex-capacity maximum flow. A graph
vertex splits into an in-node and an out-node joined by a through-arc
whose capacity is 1 when the vertex may be consumed or cut, effectively
unbounded otherwise. Augmenting paths are found breadth-first over
ascending node ids, source and sink last, and the paths the final
flow splits into are sorted, so every result is a deterministic
function of the graph alone. That determinism is load-bearing: the
construction algorithms select paths by index out of these families,
and reruns must pick the same paths. The network of a
graph is built once (FlowNetwork) and answers any number of queries;
the public functions and the constructions reuse the network of the
graph they were called with last (_network). That network also holds
the families the sweeps have computed on its graph, so sweeps on one
graph share them.
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
    """Split-vertex network of a graph, built once and queried many times.

    The vertex of ascending rank k becomes in-node 2k and out-node 2k+1,
    joined by the through-arc 2k; every edge u-v gives the arcs
    out(u)->in(v) and out(v)->in(u). Arcs come in pairs: a forward arc
    a (even) and its residual a ^ 1. Each node lists its arcs by
    ascending head node, the tie-break of the breadth-first search.

    A query copies a base capacity list (through-arcs 1, edge arcs 1 for
    path counting or unbounded for cuts), raises the through-arcs its
    endpoints or sides may not be cut at, and augments. Source and sink
    are implicit: the search starts from the sources' in-nodes in
    ascending order and stops at the first sink-side out-node it
    discovers. That is exactly the augmenting path an explicit source
    and sink carrying the two largest node ids would give, so results
    match the canonical order defined by that network.

    Every arc joins an in-node to an out-node, so the search alternates
    between them, and an in-node with a unit through-arc has one
    residual arc at most: the through-arc while unused, the reverse of
    its one inflow arc while used, none when blocked. The search
    therefore expands an in-node the moment it discovers it (see _bfs),
    and a query records each in-node's inflow arc as it augments. The
    decomposition walks those records back from the sink (_decompose).

    Capacity masks let one network answer for its subgraphs: a blocked
    vertex's through-arc and an excluded edge's two arcs get capacity 0.
    A blocked in-node can be discovered but discovers nothing, so the
    other nodes are found in the order of the induced subgraph's network
    and every path, family and cut is that subgraph's. find_fat_tk and
    is_dispersed each run all their routings and cuts on one network.

    The arc lists never change once built. The one mutable part is
    _families, the sweeps' memo: the vertex sequences _paths(v, w,
    limit) gave, unmasked, keyed (v, w, limit). A family depends on the
    graph alone, so the memo is valid for as long as the network lives.
    Only construct._run reads and fills it; other queries neither read
    nor write it, so a loop over all pairs does not pile families up.
    """

    __slots__ = ("graph", "_rank", "_head", "_arcs", "_families")

    def __init__(self, g: Graph) -> None:
        self.graph = g
        vs = g.vertices
        n = len(vs)
        rank = {v: k for k, v in enumerate(vs)}
        head = [0] * (2 * n)
        head[0::2] = range(1, 2 * n, 2)
        head[1::2] = range(0, 2 * n, 2)
        ins: list[list[int]] = [[] for _ in range(n)]
        outs: list[list[int]] = []
        # visiting vertices in ascending order appends every in-node's
        # arcs in ascending head order too
        for k, v in enumerate(vs):
            below = len(ins[k])  # one arc per lower neighbor so far
            ins[k].append(2 * k)
            out = []
            for x in g.neighbors(v):
                j = rank[x]
                out.append(len(head))
                ins[j].append(len(head) + 1)
                head += (2 * j, 2 * k + 1)
            outs.append(out[:below] + [2 * k + 1] + out[below:])
        self._rank = rank
        self._head = head
        self._arcs = [arcs for pair in zip(ins, outs) for arcs in pair]
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
        """
        total, cap, into = self._pair_flow(v, w, limit, blocked)
        if limit is not None and total >= limit:
            return None
        return self._decompose(v, w, total, cap, into)

    def _decompose(
        self, v: int, w: int, total: int, cap: list[int], into: list[int]
    ) -> tuple[tuple[int, ...], ...]:
        """Vertex sequences of the v-w flow of value `total` that cap and
        into hold after _pair_flow, sorted.

        Each flow arc into w's in-node starts a path; from there the
        walk goes back along the recorded inflow into[in(x)] of every
        interior x, the residual arc of x's one inflow, until it reaches
        v. An interior vertex has one inflow and one outflow, so these
        are the paths a least-next walk forward from v gives.

        Raises AssertionError unless the paths are simple, their
        interiors pairwise disjoint and free of v and w, and as many as
        the flow value: the invariants a PathFamily holds.
        """
        vs = self.graph.vertices
        head = self._head
        kv, kw = self._rank[v], self._rank[w]
        seen = {w}
        seqs = []
        # in(w) lists the residual arc of each arc into it, 1 under flow
        for r in self._arcs[2 * kw]:
            if r == 2 * kw or not cap[r]:
                continue
            seq = [w]
            while True:
                k = head[r] >> 1
                if k == kv:
                    break
                x = vs[k]
                if x in seen:
                    raise AssertionError(f"paths from {v} to {w} meet at {x}")
                seen.add(x)
                seq.append(x)
                # into[y] == y: the through-arc is unused, nothing enters x
                r = into[2 * k]
                if r == 2 * k or not cap[r]:
                    raise AssertionError(f"flow from {v} to {w} is not conserved at {x}")
            seq.append(v)
            seq.reverse()
            seqs.append(tuple(seq))
        if len(seqs) != total:
            raise AssertionError(f"{len(seqs)} paths from {v} to {w} carry a flow of {total}")
        seqs.sort()
        return tuple(seqs)

    def _pair_flow(
        self, v: int, w: int, limit: int | None, blocked: AbstractSet[int] = frozenset()
    ) -> tuple[int, list[int], list[int]]:
        """Value, residual capacities and recorded inflows of the
        maximum v-w flow avoiding the blocked vertices, or of the first
        `limit` augmenting paths."""
        rank = self._rank
        kv, kw = rank[v], rank[w]
        cap = [1, 0] * (len(self._head) // 2)
        cap[2 * kv] = cap[2 * kw] = _INF
        # every path leaves v and enters w by an edge of its own to an
        # unblocked neighbor, so a flow that many strong is maximum
        # without a failing search
        nbrs = self.graph.neighbors
        if blocked:
            for x in blocked:
                cap[2 * rank[x]] = 0
            bound = min(len([x for x in nbrs(v) if x not in blocked]),
                        len([x for x in nbrs(w) if x not in blocked]))
        else:
            bound = min(len(nbrs(v)), len(nbrs(w)))
        if limit is not None:
            bound = min(bound, limit)
        into = list(range(len(self._arcs)))
        return self._max_flow(cap, into, [2 * kv], {2 * kw + 1}, bound), cap, into

    def _cut(
        self, a: frozenset[int], b: frozenset[int], sides_cuttable: bool,
        blocked: AbstractSet[int] = frozenset(), excluded: tuple[int, int] | None = None,
        value: int = _INF,
    ) -> frozenset[int]:
        """Vertices whose through-arcs form the sink-side minimum a-b cut.

        Edge arcs are unbounded, so the cut consists of through-arcs;
        those of a and b are unbounded too unless sides_cuttable. The
        cut is that of the subgraph induced by the unblocked vertices,
        without the edge `excluded` if its ends are adjacent.

        A caller that knows the flow's value passes it as `value`, and
        the flow stops there; with cuttable sides it stops at
        min(|a|, |b|) too, since every unit of flow leaves through one
        of a's through-arcs and arrives through one of b's. A maximum
        flow reached that way spares the search that would fail and
        leaves the residual network that search would have left, so
        the cut is the same.
        """
        rank = self._rank
        head, arcs = self._head, self._arcs
        cap = [1, 0] * len(rank) + [_INF, 0] * (len(head) // 2 - len(rank))
        for x in blocked:
            cap[2 * rank[x]] = 0
        if not sides_cuttable:
            for x in a | b:
                cap[2 * rank[x]] = _INF
        else:
            value = min(value, len(a), len(b))
        skip = []
        if excluded is not None:
            # the edge arcs out(u) -> in(v) and out(v) -> in(u)
            u, v = excluded
            skip = [e for x, y in ((u, v), (v, u))
                    for e in arcs[2 * rank[x] + 1] if head[e] == 2 * rank[y]]
        for e in skip:
            cap[e] = 0
        sinks = {2 * rank[x] + 1 for x in b}
        self._max_flow(cap, list(range(len(arcs))), sorted(2 * rank[x] for x in a), sinks, value)
        # nodes that still reach a sink-side out-node in the residual network
        side = bytearray(len(arcs))
        for y in sinks:
            side[y] = 1
        frontier = list(sinks)
        while frontier:
            nxt = []
            for y in frontier:
                for r in arcs[y]:
                    x = head[r]
                    if not side[x] and cap[r ^ 1]:
                        side[x] = 1
                        nxt.append(x)
            frontier = nxt
        for e in range(len(rank) * 2, len(head), 2):
            if side[head[e]] and not side[head[e ^ 1]] and e not in skip:
                raise AssertionError(f"minimum cut crosses edge arc {e}")
        # a blocked vertex's out-node may reach the sink, its in-node never
        vs = self.graph.vertices
        cut = frozenset(vs[k] for k in range(len(vs)) if side[2 * k + 1] and not side[2 * k])
        return cut - blocked

    def _max_flow(
        self, cap: list[int], into: list[int], starts: list[int], sinks: set[int], limit: int
    ) -> int:
        """Augment along breadth-first paths from the in-nodes `starts` to
        the out-nodes `sinks` until none is left or `limit` are found;
        cap holds the residual capacities afterwards.

        into[y] is the residual arc of in-node y's inflow while its unit
        through-arc is used, and y itself, the through-arc, while it is
        not; the caller passes list(range(len(arcs))), the empty flow.
        """
        head, arcs = self._head, self._arcs
        size = len(arcs)
        total = 0
        while total < limit:
            prev = [-1] * size
            for s in starts:
                prev[s] = -2
            y = _bfs(head, arcs, cap, into, prev, starts, sinks)
            if y < 0:
                return total
            a = prev[y]
            while a >= 0:
                cap[a] -= 1
                cap[a ^ 1] += 1
                into[y] = a ^ 1
                y = head[a ^ 1]
                a = prev[y]
            total += 1
        return total


def _bfs(
    head: list[int],
    arcs: list[list[int]],
    cap: list[int],
    into: list[int],
    prev: list[int],
    starts: list[int],
    sinks: set[int],
) -> int:
    """First sink-side out-node discovered breadth-first, recording in
    prev the arc that reached each node; -1 when no sink is reachable.

    Only out-nodes wait in the queue. An in-node is expanded the moment
    it is discovered: in O(1) when its through-arc is a unit one, since
    then it has one residual arc at most (the through-arc if unused,
    into[y] if used, none if blocked), or by scanning its arcs in order
    when the through-arc is unbounded. In a layered search every node
    discovered while scanning layer i lands in layer i + 1 in discovery
    order; here the out-nodes of layer i + 2 are appended in the order
    their in-nodes of layer i + 1 were discovered, which is the order a
    layered search would scan those in-nodes in. So every node is
    reached by the same arc, and the same augmenting path is found.
    """
    queue: list[int] = []
    for y in starts:
        # a start is never entered, so its only residual arc is its through-arc
        if cap[y]:
            z = y + 1
            if prev[z] == -1:
                prev[z] = y
                if z in sinks:
                    return z
                queue.append(z)
    for x in queue:  # grows while it is read: a FIFO queue
        for a in arcs[x]:
            if cap[a]:
                y = head[a]
                if prev[y] == -1:
                    prev[y] = a
                    c = cap[y]
                    if c > 1:
                        for r in arcs[y]:
                            if cap[r]:
                                z = head[r]
                                if prev[z] == -1:
                                    prev[z] = r
                                    if z in sinks:
                                        return z
                                    queue.append(z)
                        continue
                    r = y if c else into[y]
                    if cap[r]:
                        z = head[r]
                        if prev[z] == -1:
                            prev[z] = r
                            if z in sinks:
                                return z
                            queue.append(z)
    return -1


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
