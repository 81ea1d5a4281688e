"""Vertex connectivity: independent path families and minimum separators.

Everything here reduces to unit-vertex-capacity maximum flow in the
split-vertex network, where a graph vertex becomes an in-node and an
out-node joined by a through-arc whose capacity is 1 when the vertex
may be consumed or cut, unbounded otherwise. The network is never
built as arcs: its edge arcs are the graph's neighbor tuples, by
rank, and with unit through-arcs, a vertex's residual arcs follow from
its predecessor and successor on its path, so a flow is two links per
vertex. Every family, connectivity and cut is one kind of flow,
from a start set to a sink set over unbounded edges, augmented by one
breadth-first search over ascending vertex ranks. The search stops as
soon as it queues an out-node next to a sink it may enter, which the
search that scanned every queued out-node would have scanned first, so
the augmenting paths are those of that search. A v-w family is that
flow from {v} to {w} without a v-w edge, plus the edge; its paths of
two and three edges, v-y-w and v-y-z-w, which the first searches would
find before any longer one, are taken without a search. The paths the
final flow splits into are sorted, so every result is a deterministic
function of the graph alone. That determinism is load-bearing: the
construction algorithms select paths by index out of these families,
and reruns must pick the same paths. The network of a graph is built once
(FlowNetwork) and answers any number of queries; the public functions
and the constructions reuse the network of the graph they were called
with last (_network). That network also holds the families the sweeps
have computed on its graph, so sweeps on one graph share them.
"""

from __future__ import annotations

import _thread
from bisect import bisect

from ._record import Record, _set
from .graph import Graph, _check_vertex

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


class InseparableError(ValueError):
    """No separator disjoint from both sides exists (an edge joins them directly)."""


class FlowNetwork:
    """Unit-vertex-capacity flow network of a graph, built once and
    queried many times.

    The flow is that of the split-vertex network: the vertex of
    ascending rank k has an in-node and an out-node joined by a
    through-arc, and every edge u-v gives the arcs out(u)->in(v) and
    out(v)->in(u). The network keeps the rank map and, for each rank,
    the ascending tuple of its neighbors' ranks (_nbrs): the edge arcs
    of the vertex's out-node by ascending head, the tie-break of the
    breadth-first search. When the ids are 0..n-1 every id is its own
    rank, and the tuples are the graph's own neighbor tuples, shared
    and not copied; other ids are mapped to their ranks. The out-node's
    one other arc, the reverse of its through-arc into its own in-node,
    is in no tuple: the search can take it only while the vertex
    carries flow and its in-node is not yet entered, and just then it
    puts the vertex's own rank in its ascending place in the row it
    scans (_search).

    Every query runs one kind of flow, found by one search (_search):
    from the out-nodes of a start set to the in-nodes of a sink set,
    over unbounded edges. A flow keeps no arc capacities. Every vertex
    but a start or sink of unbounded capacity carries at most one unit,
    so its state is two links, the ranks before and after it on its path
    (pred and succ, -1 while it carries none, -2 when it is blocked),
    and every residual arc follows from them. A pair flow (_pair_flow)
    is the {v}-{w} flow on the graph without a v-w edge, plus that edge
    as a path of its own; pred[y] == v marks each first vertex y of the
    other paths. The paths v-y-w through unused, unblocked common
    neighbors y are taken without a search, in the order of v's tuple,
    since the searches would end at them one by one while they scan
    out(v). So are the paths v-y-z-w the searches would find next, each
    unused y taking the first unused neighbor z of w in its own tuple.

    The search ends when it queues a hot out-node, one with an arc into
    the in-node of a sink it may enter, and skips the out-nodes queued
    after it, most of the last breadth-first layer, with the same path.
    A flow keeps these marks (hot) beside its links: a pair flow marks
    w's neighbors once, and a cut marks its sinks' neighbors, again
    before each search when a path uses up the sink it ends at
    (_mark_hot). A cut takes each vertex of both sides, a path of one
    vertex, before its first search, so the search has one kind of
    start.

    Blocked vertices are never entered, so one network answers for its
    induced subgraphs: the other vertices are found in the order of the
    subgraph's network, and every path, family and cut is that
    subgraph's. find_fat_tk and is_dispersed each run all their routings
    and cuts on one network. A cut is read from the residual network a
    maximum flow leaves (_sink_side): _cut runs a flow for it, and
    _pair_cut reads one from a pair flow already run.

    The neighbor tuples never change once built. The network has two
    mutable parts, each of which depends on the graph alone and is valid
    for as long as the network lives. The first is _core, the rows of
    the graph's 2-core (_core_rows), filled on the first unblocked pair
    flow: such a flow between two core vertices runs on them, off the
    pendant trees, which no path between core vertices enters.
    Blocked flows and cuts keep the full tuples, so a network that
    answers only those never peels. The second is _families, the
    sweeps' memo: the vertex sequences of each canonical family
    _sweep_paths found, or None for a flow that reached its limit,
    keyed (v, w, limit). _sweep_paths, which the sweeps call, is its
    one reader and writer; other queries neither read nor write it, so
    a loop over all pairs does not pile families up.
    """

    __slots__ = ("graph", "_rank", "_nbrs", "_core", "_families")

    def __init__(self, g: Graph) -> None:
        self.graph = g
        vs = g.vertices
        rank = {v: k for k, v in enumerate(vs)}
        self._rank = rank
        # _adj lists the vertices in ascending order, each with its
        # neighbours ascending, so their ranks come ascending too
        if vs and vs[0] == 0 and vs[-1] == len(vs) - 1:
            # distinct sorted ints from 0 to n - 1: each id is its rank
            self._nbrs = list(g._adj.values())
        else:
            self._nbrs = [tuple(map(rank.__getitem__, row)) for row in g._adj.values()]
        self._core: list[tuple[int, ...] | None] | None = None
        self._families: dict[tuple[int, int, int | None], tuple[tuple[int, ...], ...] | None] = {}

    def _core_rows(self) -> list[tuple[int, ...] | None]:
        """The rows of the graph's 2-core, by rank: None for a vertex
        outside it, else the vertex's tuple without the vertices outside
        it (the tuple itself when there are none).

        The 2-core is what is left once vertices of degree 1 or 0 are
        taken off until none is left: the graph without its pendant
        trees, each of which hangs off one core vertex c, and without
        its tree components. A search for an unblocked flow between two
        core vertices enters a pendant tree only from out(c), once in(c)
        is entered already (before out(c) when c is unused, by the
        reverse of c's through-arc, which the search puts at c's place
        in its tuple, otherwise), so the tree leads it back to no node it
        has not reached, and it meets the core's nodes by the same arcs
        without the tree.
        """
        nbrs = self._nbrs
        deg = list(map(len, nbrs))
        peeled = [k for k, d in enumerate(deg) if d < 2]
        for k in peeled:  # grows while it is read
            for y in nbrs[k]:
                deg[y] -= 1
                if deg[y] == 1:
                    peeled.append(y)
        # a core vertex keeps 2 or more core neighbors; a peeled one
        # had 1 at most when it was taken off
        return [
            None if d < 2 else row if d == len(row) else tuple(y for y in row if deg[y] > 1)
            for d, row in zip(deg, nbrs)
        ]

    def _sweep_paths(self, v: int, w: int, limit: int | None) -> tuple[tuple[int, ...], ...] | None:
        """Vertex sequences of the canonical v-w family, sorted, through
        the sweeps' memo, _families; None once `limit` paths are found,
        skipping the decomposition. Arguments are taken as valid."""
        key = (v, w, limit)
        # no family is the key tuple, so the key marks a miss
        fam = self._families.get(key, key)
        if fam is not key:
            return fam
        total, pred, succ = self._pair_flow(v, w, limit)
        fam = None if limit is not None and total >= limit else self._decompose(v, w, total, pred, succ)
        self._families[key] = fam
        return fam

    def _decompose(
        self, v: int, w: int, total: int, pred: list[int], succ: list[int]
    ) -> tuple[tuple[int, ...], ...]:
        """Vertex sequences of the paths a v-w pair flow splits into,
        sorted.

        A direct v-w edge is one path; every other starts at a neighbor
        y of v with pred[y] == v and follows succ to w. The paths leave
        v by distinct neighbors, so one walk along v's tuple, whose
        ranks ascend with the ids, emits them in vertex-sequence order,
        the direct edge at w's place. Raises AssertionError unless the
        paths are simple, their interiors pairwise disjoint and free of
        v and w, and as many as the flow value: the invariants a
        PathFamily holds.
        """
        vs = self.graph.vertices
        kv, kw = self._rank[v], self._rank[w]
        seen = [False] * len(vs)  # by rank
        seen[kv] = True
        seqs = []
        for y in self._nbrs[kv]:
            if pred[y] != kv:  # so is w's: a pair flow sets no pred for its sink
                if y == kw:
                    seqs.append((v, w))
                continue
            seq = [v]
            while y != kw:
                x = vs[y]
                if seen[y]:
                    raise AssertionError(f"paths from {v} to {w} meet at {x}")
                seen[y] = True
                seq.append(x)
                y = succ[y]
                if y < 0:
                    raise AssertionError(f"flow from {v} to {w} is not conserved at {x}")
            seq.append(w)
            seqs.append(tuple(seq))
        if len(seqs) != total:
            raise AssertionError(f"{len(seqs)} paths from {v} to {w} carry a flow of {total}")
        return tuple(seqs)

    def _pair_flow(
        self, v: int, w: int, limit: int | None, blocked: set[int] | frozenset[int] = frozenset()
    ) -> tuple[int, list[int], list[int]]:
        """Value and path links (pred, succ) of the maximum v-w flow
        avoiding the blocked vertices, or of the first `limit`
        augmenting paths.

        A direct v-w edge counts as the first path without a search: a
        search over unit edges meets in(w) while it scans out(v), and
        the residual network that path leaves is that of the graph
        without the edge. The other paths are the {v}-{w} flow there,
        which unbounded edges do not enlarge, since an edge lets through
        no more than the unit vertex at one of its ends. A path v-y-w
        through an unused, unblocked common neighbor y takes no search
        either: the search stops at the least such y while it scans
        out(v), since a used neighbor of v, so far the middle of such a
        path, leads back to out(v) alone. These paths are taken first,
        in the order of v's tuple.

        Augmenting paths never get shorter from one augmentation to the
        next (Edmonds and Karp, JACM 1972), so the paths v-y-z-w of three
        edges come next, before any longer one, and take no search
        either. Such a path enters an unused neighbor y of v, since a
        used one leads back to out(v), and from out(y) the in-node of an
        unused neighbor z of w. A used z would lead back to out(pred[z]),
        which is v or the first vertex of an earlier such path, and
        neither is next to w: it would have been a common neighbor, and
        those are all used once a search runs. The search scans v's
        unused neighbors in the order of v's tuple, each one's tuple in
        order, and stops at the first unused hot z, since one it entered
        earlier would have stopped it then. So it takes the least such y,
        then the least z. Once that path is taken, the earlier y's still
        have no such z, so the next search resumes at the next y, and
        one walk of v's tuple takes every such path.

        Both kinds stop at the bound and leave the links _augment would
        leave. An unblocked flow between two vertices of the 2-core runs
        on the core's rows (_core_rows) and is bounded by their lengths.
        """
        rank = self._rank
        kv, kw = rank[v], rank[w]
        n = len(rank)
        pred = [-1] * n
        succ = [-1] * n
        # in-nodes the search never enters: v's and the blocked ones
        fresh = [-1] * n
        fresh[kv] = -2
        nbrs = self._nbrs
        # every path leaves v and enters w by an edge of its own to an
        # unblocked neighbor, so a flow that many strong is maximum
        # without a failing search
        if blocked:
            for x in blocked:
                k = rank[x]
                pred[k] = fresh[k] = -2
            adj = self.graph._adj
            row_v, row_w = adj[v], adj[w]
            bound = min(len(row_v) - len(blocked.intersection(row_v)),
                        len(row_w) - len(blocked.intersection(row_w)))
        else:
            # no path between two vertices of the 2-core leaves it, so
            # a flow between them runs on its rows (see _core_rows)
            core = self._core
            if core is None:
                core = self._core = self._core_rows()
            if core[kv] is not None and core[kw] is not None:
                nbrs = core
            bound = min(len(nbrs[kv]), len(nbrs[kw]))
        # the out-nodes whose arc into in(w) ends the search: w's
        # neighbors, save v when the v-w edge is sliced out below (a
        # blocked neighbor's out-node is never reached)
        hot = [-1] * n
        for x in nbrs[kw]:
            hot[x] = kw
        hot[kv] = -1
        if limit is not None:
            bound = min(bound, limit)
        total = 0
        out = nbrs[kv]
        if kw in out:
            # out(w) is never scanned, since entering in(w) ends the
            # search, so the edge is dropped from out(v) alone
            i = out.index(kw)
            nbrs = nbrs.copy()
            nbrs[kv] = out[:i] + out[i + 1:]
            total = 1
        # the paths v-y-w through unused, unblocked common neighbors,
        # linked as _augment links them (out may still hold w, which is
        # not hot)
        for y in out:
            if hot[y] >= 0 and pred[y] == -1:
                if total >= bound:
                    break
                pred[y] = kv
                succ[y] = kw
                succ[kv] = y
                total += 1
        # then the paths v-y-z-w: each unused, unblocked y in v's tuple
        # takes the first unused hot z in its own, linked the same way
        for y in nbrs[kv]:
            if total >= bound:
                break
            if pred[y] == -1:
                for z in nbrs[y]:
                    if hot[z] >= 0 and pred[z] == -1:
                        pred[y] = kv
                        succ[kv] = y
                        succ[y] = z
                        pred[z] = y
                        succ[z] = kw
                        total += 1
                        break
        starts = [kv]
        while total < bound and _search(nbrs, fresh, pred, succ, starts, hot, False):
            total += 1
        return total, pred, succ

    def _pair_cut(self, v: int, w: int, total: int, pred: list[int], succ: list[int]) -> frozenset[int]:
        """Minimum v-w cut of the graph without its v-w edge, read from
        the residual network of a maximum v-w pair flow: the value and
        links _pair_flow gave with no limit, whose blocked vertices the
        cut avoids too. That flow is the cut's flow plus the direct
        edge, if any, so the cut takes no search of its own. The edge
        is dropped from w's tuple alone: the backward walk of _sink_side
        reads an edge into in(y) from y's tuple, and in(v) is never on
        the sink side of a maximum flow, so v's tuple is never read."""
        kv, kw = self._rank[v], self._rank[w]
        nbrs = self._nbrs
        if kw in nbrs[kv]:
            nbrs = nbrs.copy()
            nbrs[kw] = tuple(y for y in nbrs[kw] if y != kv)
            total -= 1
        return self._sink_side(nbrs, pred, succ, [kv], [kw], total)

    def _cut(self, a: frozenset[int], b: frozenset[int], sides_cuttable: bool) -> frozenset[int]:
        """Vertices whose through-arcs form the sink-side minimum a-b cut.

        Edges are unbounded, so the cut consists of through-arcs: 1 for
        a vertex outside a and b, and for one in a or b too if
        sides_cuttable, unbounded otherwise. With cuttable sides the flow
        stops at min(|a|, |b|), since every unit of flow leaves through
        one of a's through-arcs and arrives through one of b's: a maximum
        flow reached that way spares the search that would fail and
        leaves the residual network that search would have left. Sides
        that may not be cut must not be joined by an edge: every unit
        then passes a vertex outside them, so the flow is below n, and a
        flow stopped at n fails the maximality check instead of growing
        without end. A vertex of both sides is a path of one vertex. The
        first searches would take those, one each, least rank first,
        before any other path, so they are taken before the first search
        and the flow is the same. A cuttable sink is used up by the path
        that ends at it, so its hot marks (_mark_hot) are made again
        before each search; those of unbounded sinks, once.
        """
        rank = self._rank
        n = len(rank)
        # pred is x for a used cuttable start x, and never set for a
        # vertex whose through-arc is unbounded
        pred = [-1] * n
        succ = [-1] * n
        fresh = [-1] * n
        starts = sorted(rank[x] for x in a)
        for k in starts:
            fresh[k] = -2
        sinks = sorted(rank[x] for x in b)
        # a vertex of both sides is a path of one vertex, which the first
        # searches would take, one each, least rank first
        total = 0
        for k in sinks:
            if fresh[k] == -2:
                pred[k] = k
                total += 1
        nbrs = self._nbrs
        hot = [-1] * n
        bound = min(len(a), len(b)) if sides_cuttable else n
        while total < bound:
            if sides_cuttable or not total:
                _mark_hot(nbrs, pred, sinks, hot)
            if not _search(nbrs, fresh, pred, succ, starts, hot, sides_cuttable):
                break
            total += 1
        return self._sink_side(nbrs, pred, succ, starts, sinks, total)

    def _sink_side(
        self, nbrs: list[tuple[int, ...]], pred: list[int], succ: list[int],
        starts: list[int], sinks: list[int], total: int,
    ) -> frozenset[int]:
        """Vertices whose through-arcs form the sink-side minimum cut of
        the flow of value `total` that _search left in pred and succ,
        from starts to sinks on the network nbrs.

        The cut is read from the out-nodes the backward walk marks.
        Raises AssertionError unless the flow is maximum: the cut must
        have as many vertices as the flow is strong (the max-flow
        min-cut identity), and no start the source can still feed may
        reach the sink side. That is every start when the sides may not
        be cut, and a start with room otherwise: pred is -1 for both.
        """
        n = len(nbrs)
        # the vertices whose in-node or out-node still reaches a sink
        # out-node in the residual network, found backwards from those;
        # marked lists the out-nodes as the walk takes them
        side_in = bytearray(n)
        side_out = bytearray(n)
        for k in sinks:
            side_out[k] = 1
        outs = list(sinks)
        ins: list[int] = []
        marked: list[int] = []
        while outs or ins:
            if outs:
                y = outs.pop()
                marked.append(y)
                # into out(y): y's through-arc while it has room, and the
                # reverse of y's outflow (an unbounded start's out-node
                # is never here once the flow is maximum, so y has one
                # outflow at most)
                for t in (y if pred[y] == -1 else -1, succ[y]):
                    if t >= 0 and not side_in[t]:
                        side_in[t] = 1
                        ins.append(t)
            else:
                y = ins.pop()
                # into in(y): the reverse of y's through-arc while y
                # carries flow, and every edge; an unused y's in-node is
                # only reached from its out-node, which is here then
                if not side_out[y]:
                    side_out[y] = 1
                    outs.append(y)
                for x in nbrs[y]:
                    if not side_out[x]:
                        side_out[x] = 1
                        outs.append(x)
        vs = self.graph.vertices
        cut = frozenset(vs[k] for k in marked if not side_in[k] and pred[k] != -2)
        if len(cut) != total:
            raise AssertionError(f"a cut of {len(cut)} vertices for a flow of {total}")
        fed = [vs[k] for k in starts if side_out[k] and pred[k] == -1]
        if fed:
            raise AssertionError(f"a flow of {total} is not maximum: starts {fed} still reach the sinks")
        return cut


def _mark_hot(nbrs: list[tuple[int, ...]], pred: list[int], sinks: list[int], hot: list[int]) -> None:
    """Mark in hot, for _search, the out-nodes with an arc into the
    in-node of a sink of a cut: hot[x] is the least such sink the search
    may enter, one that is unused, and -1 if there is none. The arcs are
    the edges in the sinks' tuples and, from a sink's own out-node, the
    reverse of its through-arc, which no tuple lists, so each sink marks
    itself as well as its neighbors. A sink that is also a start is used
    before the first search (_cut), and a cut blocks no vertex, so every
    unused sink may be entered. Only the marks of the sinks and their
    neighbors (in ascending rank, sinks) change.
    """
    for y in sinks:
        hot[y] = -1
        for x in nbrs[y]:
            hot[x] = -1
    for y in reversed(sinks):  # the least sink next to x marks it last
        if pred[y] == -1:
            hot[y] = y
            for x in nbrs[y]:
                hot[x] = y


def _search(
    nbrs: list[tuple[int, ...]], fresh: list[int], pred: list[int], succ: list[int],
    starts: list[int], hot: list[int], cuttable: bool,
) -> bool:
    """Augment the flow in pred and succ along its next augmenting path
    from a start's out-node to a sink's in-node; False when none is left.

    The search queues out-nodes by vertex rank and scans each one's
    arcs as the split-vertex network lists them, by ascending head: the
    edges to its neighbors' in-nodes, from its tuple, and at its own
    rank the reverse of its through-arc. No tuple lists that arc. It
    enters in(x) only when x carries flow and out(x) was reached from
    in(succ[x]) before in(x) was entered (seen[x] == -1): an unused x's
    out-node is reached from its in-node, and a start's in-node is never
    entered. So only then does the search put x in its ascending place
    in the row it scans. It enters an in-node at most once, never a
    start's or a blocked one (marked in fresh), and leaves it at once by
    its one residual arc: an unused vertex by its through-arc, to an
    out-node no other arc reaches, and a used one back to pred[y] unless
    that is reached already. A start's out-node starts the search while
    the start has room, always when sides are not cuttable, and once
    otherwise.

    The search ends when it queues a hot out-node x, one with an arc
    into the in-node of a sink it may enter: unused, and neither a start
    nor blocked. hot[x] is the least such sink, and -1 marks the other
    out-nodes. No search looks for a path of one vertex, a start
    that is also a sink: _cut takes each of those before its first
    search. The search that scanned every out-node would end at the same
    place: the queue is first in, first out, so the first hot out-node
    queued is the first one scanned, the out-nodes queued before it are
    not hot, and scanning it enters hot[x] first. The starts are queued
    first, in rank order, each checked as it is queued. The path back
    from x is fixed when x is queued, so the augmenting path is the
    same.

    No edge needs a test of its flow, and no out-node a mark of its
    own. A used in-node y leads back to out(p), p = pred[y]. When p is
    a start with pred -1 (always when sides may not be cut, and while
    it has room otherwise), out(p) is queued already. Any other such p
    is used, and its out-node is reached only from in(succ[p]), in(y),
    which is entered once: so out(p) is queued now, and at no other
    time. So in-nodes are expanded in the order a layered search would
    scan them, every node is reached by the same arc, and the same
    augmenting path is found.

    seen[y] is the out-node rank that entered in-node y, y itself when
    it was entered by the reverse of its own through-arc. The in-node
    that reached an out-node follows from its links (_augment).
    """
    seen = fresh.copy()
    queue = []
    for s in starts:
        if pred[s] == -1:
            if hot[s] >= 0:
                _augment(seen, pred, succ, s, hot[s], cuttable)
                return True
            queue.append(s)
    for x in queue:  # grows while it is read: a FIFO queue
        row = nbrs[x]
        if seen[x] == -1:
            # in(x), entered by the reverse of x's through-arc, at its place
            i = bisect(row, x)
            row = row[:i] + (x,) + row[i:]
        for y in row:
            if seen[y] == -1:
                seen[y] = x
                p = pred[y]
                if p < 0:
                    if hot[y] >= 0:
                        _augment(seen, pred, succ, y, hot[y], cuttable)
                        return True
                    queue.append(y)
                elif pred[p] != -1:
                    if hot[p] >= 0:
                        _augment(seen, pred, succ, p, hot[p], cuttable)
                        return True
                    queue.append(p)
    return False


def _augment(
    seen: list[int], pred: list[int], succ: list[int], x: int, y: int, cuttable: bool,
) -> None:
    """Relink pred and succ along the augmenting path that reaches
    out-node x and ends in the in-node of sink y, walking it back to its
    start. With cuttable sides the path uses up the start and y.

    Every in-node z on the path is entered from seen[z]: by an edge,
    which becomes z's inflow, or by the reverse of z's own through-arc,
    which frees z. Out-node x was reached from in-node z: from in(x) by
    x's through-arc when pred[x] is -1, from in(succ[x]) by the reverse
    of x's outflow otherwise (_search). So z is read from x's links
    before the path relinks them.
    """
    if cuttable:
        pred[y] = x
    z = x if pred[x] == -1 else succ[x]
    succ[x] = y
    while True:
        u = seen[z]
        if u < 0:  # in(z) is never entered: out(z) starts the path
            if cuttable:
                pred[x] = x
            return
        if u == z:
            # out(z) entered in(z): z, which carried flow, is freed, and
            # out(z) was reached from in(succ[z])
            x, z = z, succ[z]
            pred[x] = succ[x] = -1
        else:
            # out(u) entered in(z) by an edge, which now carries flow
            pred[z] = u
            came = u if pred[u] == -1 else succ[u]
            succ[u] = z
            x, z = u, came


_last: FlowNetwork | None = None
_last_lock = _thread.allocate_lock()  # held while _last is checked and replaced


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
    equal values, and two first pair flows that race to peel store
    equal core rows, each list whole. A network is built and put in the slot under a lock,
    after a second look at the slot, so callers that race on one graph
    share the one network the first of them built, and none of the
    families they store is lost with a network built beside it. A
    caller that finds its graph's network in the slot takes no lock.
    """
    global _last
    net = _last
    if net is None or net.graph is not g:
        with _last_lock:
            net = _last
            if net is None or net.graph is not g:
                net = _last = FlowNetwork(g)
    return net


def _check_pair(g: Graph, v: int, w: int) -> None:
    _check_vertex(v)
    _check_vertex(w)
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
    _check_pair(g, v, w)
    return _network(g)._pair_flow(v, w, None)[0]


def max_independent_paths(g: Graph, v: int, w: int) -> PathFamily:
    """Canonical maximum family of independent v-w paths.

    The family is a deterministic function of the graph: augmentation
    and decomposition break ties by least id, then the paths are sorted
    by vertex sequence. Index 1 is the lexicographically least path.
    Returns the empty family when v and w are in different components.
    """
    _check_pair(g, v, w)
    net = _network(g)
    return PathFamily(v, w, tuple(map(Path, net._decompose(v, w, *net._pair_flow(v, w, None)))))


def _check_sides(
    g: Graph, a: frozenset[int] | set[int], b: frozenset[int] | set[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Both sides as frozensets, once their ids are ints and both are
    nonempty sets of vertices of g."""
    a = frozenset(map(_check_vertex, a))
    b = frozenset(map(_check_vertex, b))
    if not a or not b:
        raise ValueError("both sides must be nonempty")
    if not a <= g.vertex_set or not b <= g.vertex_set:
        raise ValueError("sides must be subsets of the graph")
    return a, b


def min_separator(
    g: Graph, a: frozenset[int] | set[int], b: frozenset[int] | set[int]
) -> Separator:
    """Minimum vertex set disjoint from a and b meeting every a-b path.

    |S| equals the maximum number of a-b paths with pairwise disjoint
    interiors outside a ∪ b. Raises InseparableError when an edge joins
    a directly to b, since then no separator avoiding both sides exists.
    """
    a, b = _check_sides(g, a, b)
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
    a, b = _check_sides(g, a, b)
    return Separator(_network(g)._cut(a, b, sides_cuttable=True), a, b)
