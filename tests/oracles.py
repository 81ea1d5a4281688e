"""Brute-force reference implementations.

Everything here is deliberately naive: direct enumeration with no
shortcuts shared with the library code, so agreement is evidence, not
tautology. Only run these on small graphs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from collections.abc import Set as AbstractSet
from itertools import combinations
from operator import contains

from nstree import (
    BUDGET_EXHAUSTED,
    SPANNING,
    TARGET_COVERED,
    CertificateReport,
    ExtensionStep,
    FatTKCertificate,
    Graph,
    GraphGenerator,
    NormalityReport,
    RootedTree,
    RunTrace,
    components,
    is_connected,
)
from nstree import connectivity
from nstree.connectivity import FlowNetwork, _network
from nstree.tree import _incomparable_pair, _through_path

_INF = 1 << 30


def connected_graphs(n: int):
    """Every connected labeled graph on vertices 0..n-1, by edge bitmask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(range(n), edges)
        if is_connected(g):
            yield g


def t_paths(g: Graph, t: RootedTree) -> list[list[int]]:
    """All paths with both ends in the tree and everything else outside it.

    Each path appears once, listed from its smaller endpoint. A bare
    edge between tree vertices counts.
    """
    tv = t.vertex_set
    out: list[list[int]] = []
    for u in sorted(tv):
        stack: list[list[int]] = [[u]]
        while stack:
            path = stack.pop()
            x = path[-1]
            for y in g.neighbors(x):
                if y in tv:
                    if y > u and (len(path) > 1 or y > x):
                        out.append(path + [y])
                elif y not in path:
                    stack.append(path + [y])
    return out


def brute_is_normal(g: Graph, t: RootedTree) -> bool:
    return all(
        ref_tree_leq(t, p[0], p[-1]) or ref_tree_leq(t, p[-1], p[0]) for p in t_paths(g, t)
    )


def simple_paths(g: Graph, v: int, w: int) -> list[tuple[int, ...]]:
    """All simple v-w paths."""
    out: list[tuple[int, ...]] = []
    stack: list[list[int]] = [[v]]
    while stack:
        path = stack.pop()
        for y in g.neighbors(path[-1]):
            if y == w:
                out.append(tuple(path) + (w,))
            elif y != v and y not in path:
                stack.append(path + [y])
    return out


def brute_kappa(g: Graph, v: int, w: int) -> int:
    """Maximum independent v-w path family by backtracking over all paths."""
    paths = simple_paths(g, v, w)
    interiors = [frozenset(p[1:-1]) for p in paths]
    best = 0

    def grow(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + len(paths) - i <= best:
            return
        for j in range(i, len(paths)):
            if not (interiors[j] & used):
                grow(j + 1, used | interiors[j], count + 1)

    grow(0, frozenset(), 0)
    return best


def brute_two_core(g: Graph) -> frozenset[int]:
    """Vertices of the 2-core: a vertex with fewer than two neighbours
    left is dropped, one at a time, until none is."""
    left = set(g.vertices)
    while True:
        low = [v for v in sorted(left) if sum(x in left for x in g.neighbors(v)) < 2]
        if not low:
            return frozenset(left)
        left.discard(low[0])


def brute_min_separator_size(g: Graph, a: frozenset[int], b: frozenset[int]) -> int:
    """Smallest S ⊆ V−(a∪b) disconnecting a from b, by subset sweep."""
    rest = sorted(g.vertex_set - a - b)
    for size in range(len(rest) + 1):
        for cand in combinations(rest, size):
            if not _connects(g, a, b, frozenset(cand)):
                return size
    raise AssertionError("sides cannot be separated (direct edge?)")


def brute_min_blocking_size(g: Graph, a: frozenset[int], b: frozenset[int]) -> int:
    """Smallest S meeting every a-b path, vertices of a and b allowed.

    A shared vertex of a and b is a one-vertex path, so a ∩ b ⊆ S is
    forced; blocking all of a always works, hence the sweep terminates.
    """
    everything = sorted(g.vertex_set)
    for size in range(len(everything) + 1):
        for cand in combinations(everything, size):
            s = frozenset(cand)
            if (a & b) <= s and not _connects(g, a - s, b - s, s):
                return size
    raise AssertionError("unreachable: blocking every vertex always works")


def _connects(g: Graph, a: frozenset[int], b: frozenset[int], removed: frozenset[int]) -> bool:
    """Is there an a-b path avoiding the removed set?"""
    if a & b:
        return True
    start = a - removed
    goal = b - removed
    if not start or not goal:
        return False
    seen = set(start)
    frontier = list(start)
    while frontier:
        x = frontier.pop()
        for y in g.neighbors(x):
            if y in goal:
                return True
            if y not in seen and y not in removed:
                seen.add(y)
                frontier.append(y)
    return False


def spanning_trees(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Edge sets of all spanning trees."""
    n = len(g)
    out = []
    for cand in combinations(g.edges, n - 1):
        sub = Graph(g.vertices, cand)
        if is_connected(sub):
            out.append(frozenset(cand))
    return out


def root_tree(edges: frozenset[tuple[int, int]], root: int) -> RootedTree:
    """Orient a spanning tree's edge set away from the chosen root."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent: dict[int, int] = {}
    frontier = [root]
    seen = {root}
    while frontier:
        x = frontier.pop()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                parent[y] = x
                frontier.append(y)
    return RootedTree(root, parent)


def normal_spanning_trees(g: Graph, r: int) -> set[tuple[tuple[int, int], ...]]:
    """Parent maps of every normal spanning tree rooted at r."""
    out = set()
    for edges in spanning_trees(g):
        t = root_tree(edges, r)
        if brute_is_normal(g, t):
            out.add(tuple(sorted(t.parent_map.items())))
    return out


def brute_fat_tk_exists(g: Graph, u: tuple[int, ...], m: int) -> bool:
    """Exhaustive search for a fat TK over the branch set u.

    Backtracks over per-pair choices of m disjoint paths, enforcing the
    at-most-one-bare-edge rule per pair. Exponential; tiny graphs only.
    """
    branch = tuple(sorted(u))
    others = set(branch)
    pair_list = list(combinations(branch, 2))
    candidates: list[list[tuple[int, ...]]] = []
    for a, b in pair_list:
        paths = [
            p
            for p in simple_paths(g, a, b)
            if not (set(p[1:-1]) & others)
        ]
        # keep one orientation per path
        dedup = {tuple(min(p, p[::-1])) for p in paths}
        candidates.append(sorted(dedup))

    def assign(idx: int, used: frozenset[int]) -> bool:
        if idx == len(pair_list):
            return True
        pool = [p for p in candidates[idx] if not (set(p[1:-1]) & used)]

        def pick(start: int, chosen: int, inner: frozenset[int], bare: int) -> bool:
            if chosen == m:
                return assign(idx + 1, used | inner)
            for k in range(start, len(pool)):
                p = pool[k]
                pin = set(p[1:-1])
                if pin & inner:
                    continue
                if len(p) == 2 and bare >= 1:
                    continue
                if pick(k + 1, chosen + 1, inner | frozenset(pin), bare + (len(p) == 2)):
                    return True
            return False

        return pick(0, 0, frozenset(), 0)

    return assign(0, frozenset())


# The dict-keyed flow network the library used before its flat-array
# engine, kept verbatim as the reference for the differential tests.
# Its tie-breaks (BFS over ascending node ids with source and sink
# last, least-next decomposition) define the canonical path order.


class _FlowNet:
    """Split-vertex unit-capacity network over a graph.

    The vertex with ascending-order rank k becomes in-node 2k and
    out-node 2k+1; the source and sink are the two node ids after that.
    Vertices in `unit` get a capacity-1 through-arc, all others an
    unbounded one. Edge arcs run out(u)->in(v) both ways with the given
    capacity: 1 for path counting (a bare edge is one path, never two),
    unbounded for separator extraction (so minimum cuts consist of
    through-arcs only).
    """

    def __init__(
        self,
        g: Graph,
        sources: frozenset[int],
        sinks: frozenset[int],
        unit: frozenset[int],
        edge_cap: int,
    ) -> None:
        self.vertex = g.vertices
        rank = {v: i for i, v in enumerate(g.vertices)}
        n = len(g.vertices)
        self.source = 2 * n
        self.sink = 2 * n + 1
        self.cap: dict[tuple[int, int], int] = {}
        self.adj: dict[int, list[int]] = {x: [] for x in range(2 * n + 2)}
        for v in g.vertices:
            self._arc(2 * rank[v], 2 * rank[v] + 1, 1 if v in unit else _INF)
        for u, v in g.edges:
            self._arc(2 * rank[u] + 1, 2 * rank[v], edge_cap)
            self._arc(2 * rank[v] + 1, 2 * rank[u], edge_cap)
        for v in sorted(sources):
            self._arc(self.source, 2 * rank[v], _INF)
        for v in sorted(sinks):
            self._arc(2 * rank[v] + 1, self.sink, _INF)
        for x in self.adj:
            self.adj[x].sort()
        self.orig = dict(self.cap)

    def _arc(self, x: int, y: int, c: int) -> None:
        self.cap[(x, y)] = c
        self.cap.setdefault((y, x), 0)
        self.adj[x].append(y)
        self.adj[y].append(x)

    def max_flow(self, limit: int | None = None) -> int:
        total = 0
        while limit is None or total < limit:
            prev = self._augmenting_path()
            if prev is None:
                break
            x = self.sink
            while x != self.source:
                p = prev[x]
                self.cap[(p, x)] -= 1
                self.cap[(x, p)] += 1
                x = p
            total += 1
        return total

    def _augmenting_path(self) -> dict[int, int] | None:
        prev = {self.source: self.source}
        frontier = [self.source]
        while frontier:
            nxt = []
            for x in frontier:
                for y in self.adj[x]:
                    if y not in prev and self.cap[(x, y)] > 0:
                        prev[y] = x
                        if y == self.sink:
                            return prev
                        nxt.append(y)
            frontier = nxt
        return None

    def paths(self) -> list[tuple[int, ...]]:
        """Decompose the flow into vertex-id paths, one per unit.

        Walks from the source choosing the least next node with
        remaining flow; conservation guarantees each walk ends at the
        sink. Any flow cycle the walk wanders through is spliced out,
        so results are simple paths.
        """
        flow = {arc: c0 - self.cap[arc] for arc, c0 in self.orig.items() if c0 > self.cap[arc]}
        out: list[tuple[int, ...]] = []
        while True:
            starts = sorted(y for y in self.adj[self.source] if flow.get((self.source, y), 0) > 0)
            if not starts:
                return out
            x = starts[0]
            flow[(self.source, x)] -= 1
            nodes = [x]
            while x != self.sink:
                y = min(y for y in self.adj[x] if flow.get((x, y), 0) > 0)
                flow[(x, y)] -= 1
                nodes.append(y)
                x = y
            verts: list[int] = []
            for nd in nodes[:-1]:
                v = self.vertex[nd // 2]
                if not verts or verts[-1] != v:
                    if v in verts:
                        del verts[verts.index(v) + 1 :]
                    else:
                        verts.append(v)
            out.append(tuple(verts))

    def cut_vertices(self) -> frozenset[int]:
        """Vertices whose through-arcs form the sink-side minimum cut.

        Run only after max_flow with unbounded edge arcs; asserts every
        crossing arc is a through-arc.
        """
        side = {self.sink}
        frontier = [self.sink]
        while frontier:
            nxt = []
            for y in frontier:
                for x in self.adj[y]:
                    if x not in side and self.cap[(x, y)] > 0:
                        side.add(x)
                        nxt.append(x)
            frontier = nxt
        cut: set[int] = set()
        for (x, y), c0 in self.orig.items():
            if c0 > 0 and x not in side and y in side:
                if y != x + 1 or x % 2 != 0:
                    raise AssertionError(f"minimum cut crosses non-through arc {(x, y)}")
                cut.add(self.vertex[x // 2])
        return frozenset(cut)


def ref_family(g: Graph, v: int, w: int) -> list[tuple[int, ...]]:
    net = _FlowNet(g, frozenset({v}), frozenset({w}), g.vertex_set - {v, w}, edge_cap=1)
    net.max_flow()
    return sorted(net.paths())


def ref_min_separator(g: Graph, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    net = _FlowNet(g, a, b, g.vertex_set - a - b, edge_cap=_INF)
    net.max_flow()
    return net.cut_vertices()


def ref_min_blocking_set(g: Graph, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    net = _FlowNet(g, a, b, g.vertex_set, edge_cap=_INF)
    net.max_flow()
    return net.cut_vertices()


# The split-vertex network and its augmenting search as FlowNetwork ran
# them before it kept per-vertex path links, kept verbatim as the
# reference for the differential tests: arc lists by ascending head, a
# capacity per arc, and a breadth-first search that expands each
# in-node the moment it discovers it.


class ArcNetwork:
    """In-node 2k, out-node 2k+1 and through-arc 2k for the vertex of
    rank k; arcs come in pairs, a forward arc a (even) and its residual
    a ^ 1, and each node lists its arcs by ascending head node."""

    def __init__(self, g: Graph) -> None:
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


# The augmenting-path search as FlowNetwork ran it before it expanded
# in-nodes on discovery, kept verbatim as the reference for the
# differential tests: a layered breadth-first search over the network's
# own arc lists, every node scanned in arc order.


def ref_max_flow(
    head: list[int], arcs: list[list[int]], cap: list[int], starts: list[int],
    sinks: set[int], limit: int,
) -> int:
    """Augment cap in place along layered breadth-first paths from the
    nodes `starts` to the first discovered node of `sinks`."""
    size = len(arcs)
    total = 0
    while total < limit:
        prev = [-1] * size
        for s in starts:
            prev[s] = -2
        end = _ref_bfs(head, arcs, cap, prev, list(starts), sinks)
        if end < 0:
            return total
        a = prev[end]
        while a >= 0:
            cap[a] -= 1
            cap[a ^ 1] += 1
            a = prev[head[a ^ 1]]
        total += 1
    return total


def _ref_bfs(
    head: list[int], arcs: list[list[int]], cap: list[int], prev: list[int],
    frontier: list[int], sinks: set[int],
) -> int:
    while frontier:
        nxt = []
        for x in frontier:
            for a in arcs[x]:
                if cap[a]:
                    y = head[a]
                    if prev[y] == -1:
                        prev[y] = a
                        if y in sinks:
                            return y
                        nxt.append(y)
        frontier = nxt
    return -1


# The augmenting search on per-vertex path links as FlowNetwork ran it
# before it stopped on queueing an out-node next to a sink, kept as the
# reference for the differential tests of that stop: it ends only when
# it scans such an out-node and enters the sink, and takes the sinks as
# a list of 0/1 marks. It scans every out-node's arcs in the plain
# order of the split-vertex network, its own in-node in its ascending
# place among the neighbours', which the network's rows leave out.


def ref_search(
    nbrs: list[tuple[int, ...]], fresh: list[int], pred: list[int], succ: list[int],
    starts: list[int], sink: list[int], cuttable: bool,
) -> bool:
    """Augment pred and succ along the next augmenting path from a
    start's out-node to a sink's in-node; False when none is left."""
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
    for x in queue:  # grows while it is read: a FIFO queue
        for y in sorted((x, *nbrs[x])):
            if seen[y] == -1:
                seen[y] = x
                p = pred[y]
                if p < 0:
                    if sink[y]:
                        succ[x] = y
                        s = _ref_augment(seen, came, pred, succ, x)
                        if cuttable:
                            pred[y] = x
                            pred[s] = s
                        return True
                    came[y] = y
                    queue.append(y)
                elif came[p] == -1:
                    came[p] = y
                    queue.append(p)
    return False


def _ref_augment(seen: list[int], came: list[int], pred: list[int], succ: list[int], x: int) -> int:
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


# The pair flow as FlowNetwork ran it before it took the paths through
# common neighbours without a search, kept as the reference for the
# differential tests: after the direct edge, one search per path. It
# reads connectivity._search at each call, so a test can count them.


def ref_pair_flow(
    net: FlowNetwork, v: int, w: int, limit: int | None, blocked: AbstractSet[int] = frozenset()
) -> tuple[int, list[int], list[int]]:
    """Value and path links (pred, succ) of the v-w pair flow on net."""
    rank = net._rank
    kv, kw = rank[v], rank[w]
    n = len(rank)
    pred = [-1] * n
    succ = [-1] * n
    fresh = [-1] * n
    fresh[kv] = -2
    nbrs = net._nbrs
    if blocked:
        for x in blocked:
            k = rank[x]
            pred[k] = fresh[k] = -2
        adj = net.graph._adj
        row_v, row_w = adj[v], adj[w]
        bound = min(len(row_v) - len(blocked.intersection(row_v)),
                    len(row_w) - len(blocked.intersection(row_w)))
    else:
        core = net._core
        if core is None:
            core = net._core = net._core_rows()
        if core[kv] is not None and core[kw] is not None:
            nbrs = core
        bound = min(len(nbrs[kv]), len(nbrs[kw]))
    hot = [-1] * n
    for x in nbrs[kw]:
        hot[x] = kw
    hot[kv] = -1
    if limit is not None:
        bound = min(bound, limit)
    total = 0
    out = nbrs[kv]
    if kw in out:
        i = out.index(kw)
        nbrs = nbrs.copy()
        nbrs[kv] = out[:i] + out[i + 1:]
        total = 1
    starts = [kv]
    while total < bound and connectivity._search(nbrs, fresh, pred, succ, starts, hot, False):
        total += 1
    return total, pred, succ


# The tree order as the library computed it before RootedTree numbered
# its vertices in preorder, kept as the reference for the differential
# tests: parent walks, and a chain test by down-closure. The membership
# check RootedTree no longer has is _ref_check.


def _ref_check(t: RootedTree, v: int) -> None:
    if v not in t:
        raise ValueError(f"vertex {v} not in tree")


def ref_tree_leq(t: RootedTree, u: int, v: int) -> bool:
    """True iff u lies on the root-to-v path, i.e. u is an ancestor of v or u == v."""
    _ref_check(t, u)
    _ref_check(t, v)
    du, dv = t.depth(u), t.depth(v)
    if du > dv:
        return False
    while dv > du:
        v = t._parent[v]
        dv -= 1
    return u == v


def ref_down_closure(t: RootedTree, v: int) -> frozenset[int]:
    """All vertices on the root-to-v path, v and root included."""
    _ref_check(t, v)
    out = {v}
    while v != t.root:
        v = t._parent[v]
        out.add(v)
    return frozenset(out)


def ref_is_chain(t: RootedTree, s: Iterable[int]) -> bool:
    """True iff the vertices of s are pairwise comparable in the tree order.

    Empty and single-vertex sets are chains. A set is a chain exactly
    when it sits inside the down-closure of its deepest member.
    """
    s = set(s)
    if len(s) <= 1:
        for v in s:
            _ref_check(t, v)
        return True
    deepest = max(s, key=lambda v: (t.depth(v), v))
    return s <= ref_down_closure(t, deepest)


# The normality check as the library ran it before it read every edge
# in one pass by preorder number, kept verbatim as the reference for the
# differential tests: tree edges tested with a contains pipeline, edges
# with an end outside the tree skipped, and both orders tested on the
# rest. Only its chain test is the reference's, by down-closure.


def ref_is_normal(g: Graph, t: RootedTree) -> NormalityReport:
    index, end = t._index, t._end
    if not g.vertex_set.issuperset(index):
        raise ValueError(f"tree vertices not in graph: {sorted(index.keys() - g.vertex_set)}")
    parent = t._parent
    # every child is in its parent's neighbour tuple
    if not all(map(contains, map(g._adj.__getitem__, parent.values()), parent)):
        # name the least missing edge
        for u, v in t.edges():
            if not g.has_edge(u, v):
                raise ValueError(f"tree edge {u}-{v} is not an edge of the graph")
    for u, v in g.edges:
        i = index.get(u)
        j = index.get(v)
        if i is None or j is None:
            continue
        if not (i <= j < end[i] or j <= i < end[j]):
            return NormalityReport(False, (u, v, (u, v)))
    if len(index) == len(g):  # spanning: no component is left outside
        return NormalityReport(True)
    adj = g._adj
    for comp in components(g, removed=t.vertex_set):
        nbrs = {y for x in comp for y in adj[x] if y in index}
        if ref_is_chain(t, nbrs):
            continue
        u, v = _incomparable_pair(t, nbrs)
        return NormalityReport(False, (u, v, _through_path(g, u, v, comp)))
    return NormalityReport(True)


# The depth-first search as the library ran it before it kept one
# neighbour iterator per open vertex, kept verbatim as the reference for
# the differential tests: a stack of (vertex, parent) entries, one pushed
# per edge, each vertex taken at its first pop.


def ref_dfs(g: Graph, r: int, inside: frozenset[int]) -> dict[int, int]:
    """Parent map of the depth-first tree from r of the subgraph induced
    by inside, children in ascending id order, keys in discovery order."""
    parent: dict[int, int] = {}
    seen: set[int] = set()
    stack: list[tuple[int, int | None]] = [(r, None)]
    while stack:
        x, p = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        if p is not None:
            parent[x] = p
        for y in reversed(g.neighbors(x)):
            if y in inside and y not in seen:
                stack.append((y, x))
    return parent


# The candidate ranking is_dispersed ran before it searched best-first
# under the degree bound, kept verbatim as the reference for the
# differential tests: κ of every pair, every n-set scored, then sorted.
# κ comes from the caller, so a test can record the pairs it queries.


def ref_dispersed_ranking(
    g: Graph, n: int, m: int, search_budget: int, kappa: Callable[[int, int], int]
) -> list[tuple[int, tuple[int, ...]]]:
    """(least pairwise κ, n-set) of the search_budget first n-sets by
    descending least κ, ties by the set, among those scoring at least m."""
    kappas: dict[tuple[int, int], int] = {}

    def pair_kappa(a: int, b: int) -> int:
        if (a, b) not in kappas:
            kappas[a, b] = kappa(a, b)
        return kappas[a, b]

    scored: list[tuple[int, tuple[int, ...]]] = []
    for cand in combinations(g.vertices, n):
        score = min(pair_kappa(a, b) for a, b in combinations(cand, 2))
        if score >= m:
            scored.append((score, cand))
    scored.sort(key=lambda it: (-it[0], it[1]))
    return scored[:search_budget]


# The inverse Cantor pairing as the grid generator computed it before it
# used the closed form, kept verbatim as the reference: the diagonal is
# found by stepping along it.


def ref_unpair(z: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= z:
        s += 1
    y = z - s * (s + 1) // 2
    return s - y, y


# The preorder numbering as RootedTree's constructor computed it before
# it listed the preorder with a stack and found the subtree ends in one
# backward pass, kept verbatim as the reference for the differential
# tests: a BFS recording each vertex's parent position, subtree sizes
# bottom-up, then preorder numbers top-down. The parent map is trusted.


def ref_numbering(
    root: int, parent: Mapping[int, int]
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """(pre, end, vertices): the preorder with ascending children, the
    end of each numbered subtree's range, and the breadth-first order."""
    children: dict[int, list[int]] = {v: [] for v in parent}
    children[root] = []
    for v, p in parent.items():
        children[p].append(v)
    # breadth-first from the root, the growing order list serving as
    # the queue, with the BFS position of each vertex's parent
    order: list[int] = [root]
    up = [0]
    for i, v in enumerate(order):
        cs = children[v]
        if cs:
            cs.sort()
            order += cs
            up += [i] * len(cs)
    n = len(order)
    # subtree sizes bottom-up, then preorder numbers top-down: the
    # children of a vertex sit side by side in the BFS order, least
    # first, and each one's number is where its elder sibling's
    # subtree ends
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
    free = [1] * n  # the number that the next child placed gets
    pre = [root] * n
    end = [n] * n
    for i, p, v, s in zip(range(1, n), up[1:], order[1:], size[1:]):
        j = free[p]
        free[p] = k = j + s
        free[i] = j + 1
        pre[j] = v
        end[j] = k
    return pre, end, tuple(order)


# The certificate check as verify_fat_tk ran it before it walked the
# branch pairs in one pass without per-step calls, kept verbatim as the
# reference for the differential tests: the pair keys compared as sets,
# a has_edge call per path step, fresh sets for the ends and interiors.
# Unlike the library's, it raises TypeError on a multiplicity that does
# not compare with 1 and on an unhashable vertex.


def ref_verify_fat_tk(g: Graph, cert: FatTKCertificate) -> CertificateReport:
    """Check every certificate invariant against the host graph.

    Never raises on bad certificates; the report carries the first
    violated condition.
    """
    n = len(cert.branch)
    if n < 2:
        return CertificateReport(False, f"need at least 2 branch vertices, have {n}")
    if len(set(cert.branch)) != n:
        return CertificateReport(False, "branch vertices are not distinct")
    if cert.m < 1:
        return CertificateReport(False, f"multiplicity must be at least 1, got {cert.m}")
    missing = [v for v in cert.branch if v not in g]
    if missing:
        return CertificateReport(False, f"branch vertices not in graph: {missing}")
    branch = set(cert.branch)
    expected = {(a, b) for a, b in combinations(cert.branch, 2)}
    have = set(cert.pair_keys())
    if have != expected:
        off = sorted(expected ^ have)
        return CertificateReport(False, f"pair lists wrong or missing for {off}")
    used_interior: set[int] = set()
    for a, b in sorted(expected):
        plist = cert.paths_for(a, b)
        if len(plist) != cert.m:
            return CertificateReport(
                False, f"pair ({a},{b}) has {len(plist)} paths, expected {cert.m}"
            )
        bare = 0
        for seq in plist:
            if len(seq) < 2:
                return CertificateReport(False, f"pair ({a},{b}) has a degenerate path {seq}")
            if len(set(seq)) != len(seq):
                return CertificateReport(False, f"path {seq} repeats a vertex")
            if {seq[0], seq[-1]} != {a, b}:
                return CertificateReport(
                    False, f"path {seq} does not join {a} and {b}"
                )
            for x, y in zip(seq, seq[1:]):
                if not g.has_edge(x, y):
                    return CertificateReport(False, f"claimed edge {x}-{y} is not in the graph")
            inner = set(seq[1:-1])
            if inner & branch:
                return CertificateReport(
                    False,
                    f"path {seq} passes through branch vertices {sorted(inner & branch)}",
                )
            if inner & used_interior:
                return CertificateReport(
                    False,
                    f"interior vertices {sorted(inner & used_interior)} are used twice",
                )
            used_interior |= inner
            if len(seq) == 2:
                bare += 1
        if bare > 1:
            return CertificateReport(
                False,
                f"pair ({a},{b}) uses the edge {a}-{b} as {bare} parallel paths",
            )
    return CertificateReport(True)


# The sweep loop as the library ran it before it searched the graph once
# per run and grew every extension inside that one depth-first tree,
# kept verbatim as the reference for the differential tests: the
# components of g - r split off first, a fresh depth-first search of
# each component extended into, and the tree built with the checking
# constructor. Only its logging is left out.


def _ref_extend(
    g: Graph,
    parent: dict[int, int],
    depth: dict[int, int],
    d: frozenset[int],
    nbrs: AbstractSet[int],
    targets: frozenset[int],
) -> tuple[int, int, tuple[tuple[int, int], ...], list[frozenset[int]]]:
    """Grow the tree given by parent and depth into component d, in place.

    Returns t_d, r_d, the new (child, parent) edges in ascending order,
    and the components d leaves outside the tree, by their first vertex
    in depth-first order.
    """
    t_d = max(nbrs, key=depth.__getitem__)
    # a normal tree's neighborhood of d is a chain: all of it lies on
    # the root path of its deepest member
    found = 1
    x = t_d
    while found < len(nbrs) and x in parent:
        x = parent[x]
        if x in nbrs:
            found += 1
    if found < len(nbrs):
        raise AssertionError(
            "tree neighborhood of the component is not a chain (tree is not normal)"
        )
    r_d = next(x for x in g.neighbors(t_d) if x in d)
    sub = ref_dfs(g, r_d, d)
    keep = {r_d}
    for x in targets:
        while x not in keep:
            keep.add(x)
            x = sub[x]
    added = [(r_d, t_d)]
    hanging: dict[int, list[int]] = {}  # vertex -> the subtree it hangs in
    rest: list[list[int]] = []
    for v, p in sub.items():
        if v in keep:
            added.append((v, p))
        elif p in keep:
            hanging[v] = [v]
            rest.append(hanging[v])
        else:
            hanging[v] = hanging[p]
            hanging[v].append(v)
    for v, p in added:
        parent[v] = p
        depth[v] = depth[p] + 1
    return t_d, r_d, tuple(sorted(added)), [frozenset(c) for c in rest]


def ref_run(
    g: Graph,
    r: int,
    step_budget: int | None,
    kappa_small: int | None,
    skip: Callable[[frozenset[int]], bool] | None,
    extra_target: Callable[[frozenset[int]], int] | None,
) -> RunTrace:
    """The trace of the sweep loop: omega_nst with skip and extra_target
    None, local_normal_tree and nst_from_dispersed_cover with theirs."""
    if r not in g:
        raise ValueError(f"root {r} not in graph")
    # the components of g - tree, by least vertex; g is disconnected
    # exactly when one of them misses every neighbor of r
    comps = components(g, {r})
    if any(d.isdisjoint(g.neighbors(r)) for d in comps):
        raise ValueError("graph is disconnected")
    if step_budget is not None and step_budget < 0:
        raise ValueError(f"step budget must be non-negative, got {step_budget}")
    if kappa_small is not None and kappa_small < 0:
        raise ValueError(f"kappa_small must be non-negative, got {kappa_small}")

    # the canonical families' vertex sequences, computed once per graph
    # and kept on its network for every later sweep on it; the selection
    # indices in the trace refer to these enumerations
    sweep_paths = _network(g)._sweep_paths
    # a pair above kappa_small is discarded as soon as it shows one path too many
    limit = None if kappa_small is None else kappa_small + 1

    # the tree grows in place; a RootedTree is built only for the result
    parent: dict[int, int] = {}
    depth = {r: 0}
    steps: list[ExtensionStep] = []
    sweep = 0
    while True:
        if not comps:
            return RunTrace(tuple(steps), RootedTree(r, parent), SPANNING)
        # the components partition the vertices outside the tree, so the
        # targets lie in the tree once every component is skipped
        if skip is not None and all(map(skip, comps)):
            return RunTrace(tuple(steps), RootedTree(r, parent), TARGET_COVERED)
        if step_budget is not None and sweep >= step_budget:
            return RunTrace(tuple(steps), RootedTree(r, parent), BUDGET_EXHAUSTED)
        # extending into one component never changes another component
        # or its tree neighborhood, so the sweep may grow the tree freely
        # and re-split only the component it extended into
        after: list[frozenset[int]] = []
        for d in comps:
            if skip is not None and skip(d):
                after.append(d)
                continue
            near = {y for x in d for y in g.neighbors(x) if y in depth}
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
                            break
            if extra_target is not None:
                targets.add(extra_target(d))
            fallback = None
            if not targets:
                fallback = min(d)
                targets.add(fallback)
            t_d, r_d, added, rest = _ref_extend(g, parent, depth, d, near, frozenset(targets))
            after += rest
            steps.append(ExtensionStep(
                step=sweep, component=d, attach_vertex=t_d, entry_vertex=r_d,
                targets=frozenset(targets), selections=tuple(selections),
                fallback_vertex=fallback, added=added,
            ))
        comps = sorted(after, key=min)
        sweep += 1


# Graph's constructor as it was before it checked exact ints inline,
# sorted the edges once and filled the rows in order, kept verbatim as
# the reference: one check call per vertex and per edge end, a set per
# vertex, and a sort per row. It returns the four fields in slot order.


def _ref_check_vertex(v: int) -> int:
    if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
        raise TypeError(f"vertex ids must be integers, got {type(v).__name__}")
    return v


def ref_graph_fields(vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> tuple:
    vs: set[int] = set()
    for v in vertices:
        vs.add(_ref_check_vertex(v))
    pairs: set[tuple[int, int]] = set()
    for u, v in edges:
        u = _ref_check_vertex(u)
        v = _ref_check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        vs.add(u)
        vs.add(v)
        pairs.add((u, v) if u < v else (v, u))
    nbrs: dict[int, set[int]] = {v: set() for v in vs}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    ordered = tuple(sorted(vs))
    adj = {v: tuple(sorted(nbrs[v])) for v in ordered}
    return ordered, frozenset(vs), adj, tuple(sorted(pairs))


# truncate as it was before the BFS kept the rows it asked for, kept
# verbatim as the reference: every ball vertex's rule is asked again in
# the edge pass.


def ref_truncate(gen: GraphGenerator, k: int) -> Graph:
    dist = {gen.root: 0}
    frontier = [gen.root]
    for d in range(1, k + 1):
        nxt = []
        for v in frontier:
            for w in gen.neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    ball = frozenset(dist)
    edges = []
    for v in ball:
        for w in gen.neighbors(v):
            if w in ball and v < w:
                edges.append((v, w))
    return Graph(ball, edges)
