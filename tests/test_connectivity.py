from __future__ import annotations

import gc
import random
import re
import sys
import threading
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chorded_graph, connected_graphs_st, random_connected_graph
from nstree import (
    FatTKCertificate,
    FatTKFailure,
    Graph,
    InseparableError,
    Path,
    PathFamily,
    components,
    find_fat_tk,
    induced_subgraph,
    is_dispersed,
    kappa,
    make_generator,
    max_independent_paths,
    min_blocking_set,
    min_separator,
    omega_nst,
    truncate,
)
from nstree import connectivity
from nstree.connectivity import FlowNetwork, _network
from oracles import (
    ArcNetwork,
    brute_kappa,
    brute_min_blocking_size,
    brute_min_separator_size,
    brute_two_core,
    ref_family,
    ref_max_flow,
    ref_min_blocking_set,
    ref_min_separator,
    ref_pair_flow,
    ref_search,
)

_INF = 1 << 30

K4 = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def test_path_validation():
    with pytest.raises(ValueError):
        Path(())
    with pytest.raises(ValueError):
        Path((1, 2, 1))
    assert Path((1,)).ends == (1, 1)
    assert Path((1, 2, 3)).interior == (2,)
    assert Path((1, 2, 3)).edges() == ((1, 2), (2, 3))


def test_family_validation():
    with pytest.raises(ValueError):
        PathFamily(1, 2, (Path((1, 3, 2)), Path((1, 3, 4, 2))))
    with pytest.raises(ValueError):
        PathFamily(1, 2, (Path((1, 3)),))
    fam = PathFamily(1, 2, (Path((1, 2)), Path((1, 3, 2))))
    assert fam[1].vertices == (1, 2)
    with pytest.raises(IndexError):
        fam[0]


def test_kappa_k4():
    for v, w in combinations((1, 2, 3, 4), 2):
        assert kappa(K4, v, w) == 3


def test_kappa_path_graph():
    g = Graph(edges=[(0, 1), (1, 2)])
    assert kappa(g, 0, 2) == 1


def test_kappa_k33_same_side():
    g = Graph(edges=[(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    assert kappa(g, 0, 1) == 3
    assert brute_kappa(g, 0, 1) == 3


def test_kappa_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        kappa(K4, 1, 1)


@pytest.mark.parametrize(
    "query, v, w, message",
    [
        (kappa, 1, 1, "endpoints must differ, got 1 twice"),
        (max_independent_paths, 1, 1, "endpoints must differ, got 1 twice"),
        # the first end is named first
        (kappa, 9, 8, "vertex 9 not in graph"),
    ],
)
def test_pair_argument_errors(query, v, w, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        query(K4, v, w)


@pytest.mark.parametrize("query", [kappa, max_independent_paths])
@pytest.mark.parametrize("bad", [True, 1.0], ids=["True", "1.0"])
@pytest.mark.parametrize("first", [True, False], ids=["first end", "second end"])
def test_pair_ends_equal_to_an_id_but_not_ints_are_refused(query, bad, first):
    # True and 1.0 equal the vertex 1 of K4, as ids Graph refuses
    with pytest.raises(TypeError) as want:
        Graph([bad])
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        query(K4, *((bad, 3) if first else (3, bad)))


def test_family_k4_canonical_order():
    fam = max_independent_paths(K4, 1, 2)
    assert [p.vertices for p in fam] == [(1, 2), (1, 3, 2), (1, 4, 2)]


def test_family_on_tree_is_the_tree_path():
    g = Graph(edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
    fam = max_independent_paths(g, 0, 4)
    assert [p.vertices for p in fam] == [(0, 1, 3, 4)]


def test_family_disconnected_pair_empty():
    g = Graph([1, 2])
    assert len(max_independent_paths(g, 1, 2)) == 0


def test_family_is_deterministic():
    g = Graph(edges=[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (0, 3)])
    fams = [max_independent_paths(g, 0, 3) for _ in range(3)]
    assert fams[0] == fams[1] == fams[2]


def test_min_separator_path():
    g = Graph(edges=[(0, 1), (1, 2)])
    sep = min_separator(g, {0}, {2})
    assert sep.s == frozenset({1})


def test_min_separator_cycle():
    g = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
    assert min_separator(g, {1}, {3}).s == frozenset({2, 4})


def test_min_separator_grid_corners():
    # 3x3 grid, opposite corners
    def vid(x, y):
        return 3 * y + x

    edges = []
    for y in range(3):
        for x in range(3):
            if x < 2:
                edges.append((vid(x, y), vid(x + 1, y)))
            if y < 2:
                edges.append((vid(x, y), vid(x, y + 1)))
    g = Graph(edges=edges)
    sep = min_separator(g, {vid(0, 0)}, {vid(2, 2)})
    assert len(sep.s) == 2
    assert brute_min_separator_size(g, frozenset({0}), frozenset({8})) == 2


def test_min_separator_inseparable():
    with pytest.raises(InseparableError):
        min_separator(K4, {1}, {2})


def test_min_separator_validation():
    with pytest.raises(ValueError):
        min_separator(K4, {1}, {1, 3})
    with pytest.raises(ValueError):
        min_separator(K4, set(), {1})


def test_min_separator_set_sides():
    # two triangles joined through a single middle vertex
    g = Graph(edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
    sep = min_separator(g, {0, 1}, {5, 6})
    assert sep.s <= {2, 3, 4} and len(sep.s) == 1


def test_min_blocking_set_pendant():
    g = Graph(edges=[(0, 1), (1, 2), (1, 3), (2, 3)])
    blk = min_blocking_set(g, {0}, {1, 2, 3})
    assert blk.s == frozenset({1})


def test_min_blocking_set_overlap_forced():
    blk = min_blocking_set(K4, {1}, {1, 2, 3, 4})
    assert 1 in blk.s and len(blk.s) == 1


def test_separator_actually_separates():
    g = Graph(edges=[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 5)])
    sep = min_separator(g, {0}, {4})
    comps = components(g, sep.s)
    home = [c for c in comps if 0 in c]
    assert home and 4 not in home[0]


@settings(max_examples=250, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=6), st.randoms(use_true_random=False))
def test_kappa_matches_brute_force(g, rng):
    v, w = rng.sample(g.vertices, 2)
    fam = max_independent_paths(g, v, w)
    assert len(fam) == brute_kappa(g, v, w)
    for p in fam:
        for x, y in zip(p.vertices, p.vertices[1:]):
            assert g.has_edge(x, y)


@settings(max_examples=250, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=7), st.randoms(use_true_random=False))
def test_menger_for_nonadjacent_pairs(g, rng):
    pairs = [
        (v, w) for v, w in combinations(g.vertices, 2) if not g.has_edge(v, w)
    ]
    if not pairs:
        return
    v, w = rng.choice(pairs)
    sep = min_separator(g, {v}, {w})
    k = kappa(g, v, w)
    assert len(sep.s) == k
    assert len(sep.s) == brute_min_separator_size(g, frozenset({v}), frozenset({w}))
    comps = components(g, sep.s)
    assert not any(v in c and w in c for c in comps)


@settings(max_examples=150, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=6), st.randoms(use_true_random=False))
def test_blocking_set_matches_brute_force(g, rng):
    size_a = rng.randrange(1, len(g) + 1)
    a = frozenset(rng.sample(g.vertices, size_a))
    size_b = rng.randrange(1, len(g) + 1)
    b = frozenset(rng.sample(g.vertices, size_b))
    blk = min_blocking_set(g, a, b)
    assert len(blk.s) == brute_min_blocking_size(g, a, b)
    assert (a & b) <= blk.s
    live_a = a - blk.s
    live_b = b - blk.s
    comps = components(g, blk.s)
    assert not any(live_a & c and live_b & c for c in comps)


@settings(max_examples=150, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=7), st.randoms(use_true_random=False))
def test_kappa_symmetric_and_monotone(g, rng):
    v, w = rng.sample(g.vertices, 2)
    k = kappa(g, v, w)
    assert k == kappa(g, w, v)
    non_edges = [
        (a, b) for a, b in combinations(g.vertices, 2) if not g.has_edge(a, b)
    ]
    if non_edges:
        extra = rng.choice(non_edges)
        bigger = Graph(g.vertices, (*g.edges, extra))
        assert kappa(bigger, v, w) >= k


def _family(net: FlowNetwork, v: int, w: int, limit: int | None = None,
            blocked: frozenset[int] = frozenset()) -> PathFamily | None:
    """The family of the v-w pair flow avoiding the blocked vertices,
    None once `limit` paths are found."""
    total, pred, succ = net._pair_flow(v, w, limit, blocked)
    if limit is not None and total >= limit:
        return None
    seqs = net._decompose(v, w, total, pred, succ)
    return PathFamily(v, w, tuple(map(Path, seqs)))


def _full(net: FlowNetwork, v: int, w: int) -> tuple[tuple[int, ...], ...]:
    """The vertex sequences of the canonical v-w family, sorted."""
    return net._decompose(v, w, *net._pair_flow(v, w, None))


def _pair_cut(net: FlowNetwork, v: int, w: int, blocked: frozenset[int]) -> frozenset[int]:
    """The cut fattk._route reads from the v-w routing flow."""
    return net._pair_cut(v, w, *net._pair_flow(v, w, None, blocked))


def _differential_graph(rng: random.Random) -> Graph:
    """Connected or not, ids spread out so ranks and ids differ."""
    n = rng.randrange(2, 14)
    g = random_connected_graph(rng, n, rng.choice([0.0, 0.15, 0.35, 0.7]))
    ids = rng.sample(range(-20, 60), n)
    edges = [(ids[u], ids[v]) for u, v in g.edges if rng.random() < 0.85]
    return Graph(ids, edges)


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_reference_network(seed):
    rng = random.Random(seed)
    for _ in range(25):
        g = _differential_graph(rng)
        for v in g.vertices:
            for w in g.vertices:
                if v != w:
                    fam = max_independent_paths(g, v, w)
                    assert [p.vertices for p in fam] == ref_family(g, v, w)
        for _ in range(8):
            a = frozenset(rng.sample(g.vertices, rng.randint(1, max(1, len(g) // 3))))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, max(1, len(g) // 3))))
            assert min_blocking_set(g, a, b).s == ref_min_blocking_set(g, a, b)
            if a & b or any(g.has_edge(x, y) for x in a for y in b):
                continue
            assert min_separator(g, a, b).s == ref_min_separator(g, a, b)


def _larger_graph(case: str) -> Graph:
    """A grid truncation, or a random graph of 20-40 vertices with
    spread-out ids."""
    kind, arg = case.split("-")
    if kind == "grid":
        return truncate(make_generator("grid"), int(arg))
    rng = random.Random(int(arg))
    n = rng.randrange(20, 41)
    g = random_connected_graph(rng, n, rng.choice([0.05, 0.1, 0.2]))
    ids = rng.sample(range(-100, 300), n)
    return Graph(ids, [(ids[u], ids[v]) for u, v in g.edges if rng.random() < 0.9])


@pytest.mark.parametrize("case", ["grid-3", "grid-4", "grid-5", *(f"random-{s}" for s in range(6))])
def test_engine_matches_reference_network_on_larger_graphs(case):
    """Past 13 vertices, paths cross in-nodes in every state: unused,
    carrying flow, blocked and unbounded."""
    g = _larger_graph(case)
    rng = random.Random(case)
    net = FlowNetwork(g)
    for _ in range(30):
        v, w = rng.sample(g.vertices, 2)
        fam = max_independent_paths(g, v, w)
        assert [p.vertices for p in fam] == ref_family(g, v, w)
    for _ in range(10):
        v, w = rng.sample(g.vertices, 2)
        rest = [x for x in g.vertices if x not in (v, w)]
        blocked = frozenset(rng.sample(rest, len(rest) // 4))
        fam = _family(net, v, w, blocked=blocked)
        sub = induced_subgraph(g, g.vertex_set - blocked)
        assert [p.vertices for p in fam] == ref_family(sub, v, w)
    k = max(2, len(g) // 5)
    for _ in range(12):
        a = frozenset(rng.sample(g.vertices, rng.randint(1, k)))
        b = frozenset(rng.sample(g.vertices, rng.randint(1, k)))
        if not a & b and not any(g.has_edge(x, y) for x in a for y in b):
            assert min_separator(g, a, b).s == ref_min_separator(g, a, b)
            # make the sides touch for the blocking set
            b |= {rng.choice(g.neighbors(min(a)) or (min(a),))}
        assert min_blocking_set(g, a, b).s == ref_min_blocking_set(g, a, b)


def _search_matches_reference(g: Graph, v: int, w: int, blocked: frozenset[int]) -> None:
    """After each augmenting path, the v-w flow's path links give the
    residual network the reference arc network (ArcNetwork) holds after
    as many paths, and the reference's search equals a layered search
    scanning every node in arc order."""
    net = FlowNetwork(g)
    ref = ArcNetwork(g)
    head, arcs = ref._head, ref._arcs
    kv, kw = ref._rank[v], ref._rank[w]
    inner = [k for k in range(len(g)) if k not in (kv, kw)]
    start = [1, 0] * (len(head) // 2)
    start[2 * kv] = start[2 * kw] = _INF
    for x in blocked:
        start[2 * ref._rank[x]] = 0
    limit = 0
    while True:
        limit += 1
        total, pred, succ = net._pair_flow(v, w, limit, blocked)
        cap, into = list(start), list(range(len(arcs)))
        layered = list(start)
        assert ref._max_flow(cap, into, [2 * kv], {2 * kw + 1}, limit) == total
        assert ref_max_flow(head, arcs, layered, [2 * kv], {2 * kw + 1}, limit) == total
        assert cap == layered
        # the residual network the links give
        links = list(start)
        links[2 * kv] -= total
        links[2 * kv + 1] = links[2 * kw + 1] = total
        links[2 * kw] -= total
        for k in inner:
            if pred[k] >= 0:
                links[2 * k], links[2 * k + 1] = 0, 1
        for e in range(2 * len(g), len(head), 2):
            x, y = head[e ^ 1] >> 1, head[e] >> 1
            # v's edges carry its paths, the direct edge among them, and
            # every other vertex's edge carries its succ
            if (y == kw or pred[y] == kv) if x == kv else (succ[x] == y):
                links[e], links[e ^ 1] = 0, 1
        assert links == cap
        # pred is -2 for a blocked vertex
        assert [head[into[2 * k]] >> 1 if into[2 * k] != 2 * k else -1 for k in inner] == [
            max(pred[k], -1) for k in inner
        ]
        if total < limit:
            return


@pytest.mark.parametrize("seed", range(6))
def test_search_matches_layered_search(seed):
    """Each augmenting path the vertex search finds, with and without
    blocked vertices, is the one the split-vertex network's search and
    a layered search over its arcs find."""
    rng = random.Random(200 + seed)
    for _ in range(30):
        g = _differential_graph(rng)
        v, w = rng.sample(g.vertices, 2)
        rest = [x for x in g.vertices if x not in (v, w)]
        blocked = frozenset(rng.sample(rest, rng.randint(0, len(rest) // 3)))
        _search_matches_reference(g, v, w, frozenset())
        _search_matches_reference(g, v, w, blocked)


@pytest.mark.parametrize("seed", range(4))
def test_search_matches_layered_search_on_pendant_graphs(seed):
    """The same on graphs most of whose vertices lie in pendant trees,
    where an unblocked flow between core vertices runs on the core's
    rows and any other on the full tuples."""
    rng = random.Random(1200 + seed)
    for _ in range(20):
        g = _pendant_graph(rng, relabel=rng.random() < 0.5)
        core = sorted(brute_two_core(g))
        v, w = rng.sample(core, 2) if len(core) > 1 and rng.random() < 0.7 else rng.sample(g.vertices, 2)
        rest = [x for x in g.vertices if x not in (v, w)]
        _search_matches_reference(g, v, w, frozenset())
        _search_matches_reference(g, v, w, frozenset(rng.sample(rest, rng.randint(0, len(rest) // 3))))


def test_search_leaves_a_used_vertex_by_its_inflow():
    """The first augmenting path is 0-1-2-5; the second enters vertex 2,
    which carries it, and leaves its in-node back along its inflow from
    1 (path 0-3-2-1-4-5), which a search leaving every in-node by its
    through-arc would miss. The paths are 0-1-4-5 and 0-3-2-5."""
    g = Graph(range(6), [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (4, 5)])
    _search_matches_reference(g, 0, 5, frozenset())
    assert _full(FlowNetwork(g), 0, 5) == ((0, 1, 4, 5), (0, 3, 2, 5))


def test_search_frees_a_vertex_it_passes_back_through():
    """The first augmenting path is 9-3-5-10-1; the second, 9-11-0-10,
    goes back from 10 to 5, through 5 backwards and back to 3, then on
    by 7-12-1. Vertex 5 then carries nothing and has neither link."""
    g = Graph(edges=[(0, 10), (0, 11), (1, 10), (1, 12), (3, 5), (3, 7), (3, 9), (5, 10),
                     (7, 12), (9, 11)])
    _search_matches_reference(g, 9, 1, frozenset())
    total, pred, succ = FlowNetwork(g)._pair_flow(9, 1, None)
    k5 = FlowNetwork(g)._rank[5]
    assert total == 2 and pred[k5] == succ[k5] == -1
    assert _full(FlowNetwork(g), 9, 1) == ((9, 3, 7, 12, 1), (9, 11, 0, 10, 1))


# no path of two or three edges joins 5 and 9, so after the direct edge
# each of their other paths takes a search
OWN_IN_NODE = Graph(range(15), [(0, 1), (0, 4), (0, 11), (1, 2), (1, 6), (1, 9), (2, 3), (2, 4), (2, 11),
                                (2, 13), (4, 5), (5, 7), (5, 8), (5, 9), (6, 10), (7, 12), (8, 10), (8, 12),
                                (9, 13), (12, 14)])


def test_a_used_vertex_enters_its_own_in_node_at_its_place(monkeypatch):
    """The first search from 5 to 9 takes 5-4-0-1-9. The second reaches
    out(0) back from in(1) before in(0) is entered, and scans out(0)'s
    arcs by ascending head: the reverse of 0's through-arc, into in(0),
    comes before the edges into in(4) and in(11). So in(0) queues out(4)
    before in(11) is entered, out(4) enters in(2) ahead of out(11), and
    the paths are 5-4-2-13-9 and 5-8-10-6-1-9. A search that entered
    in(0) after in(11), or never, would take 5-4-0-11-2-13-9."""
    _search_matches_reference(OWN_IN_NODE, 5, 9, frozenset())
    sink, counts = _search_against_reference(monkeypatch)
    net = FlowNetwork(OWN_IN_NODE)
    sink[0] = _sink_marks(net, {9})
    assert _full(net, 5, 9) == ((5, 4, 2, 13, 9), (5, 8, 10, 6, 1, 9), (5, 9))
    assert counts == {True: 2, False: 0}


def _search_against_reference(monkeypatch) -> tuple[list[list[int]], dict[bool, int]]:
    """Patch the augmenting search to run ref_search first, the search
    that stops only when it scans an out-node next to a sink, on a copy
    of the same flow, and to require the same answer and the same pred
    and succ after both. The caller puts the running flow's sinks, as
    0/1 marks by rank, in sink[0]; counts tallies the searches by their
    answer."""
    sink: list[list[int]] = [[]]
    counts = {True: 0, False: 0}
    real = connectivity._search

    def search(nbrs, fresh, pred, succ, starts, hot, cuttable):
        ref_pred, ref_succ = pred.copy(), succ.copy()
        want = ref_search(nbrs, fresh, ref_pred, ref_succ, starts, sink[0], cuttable)
        got = real(nbrs, fresh, pred, succ, starts, hot, cuttable)
        assert (got, pred, succ) == (want, ref_pred, ref_succ)
        counts[got] += 1
        return got

    monkeypatch.setattr(connectivity, "_search", search)
    return sink, counts


def _sink_marks(net: FlowNetwork, b) -> list[int]:
    marks = [0] * len(net._rank)
    for x in b:
        marks[net._rank[x]] = 1
    return marks


@pytest.mark.parametrize("seed", range(6))
def test_search_stops_where_the_scanning_search_does(seed, monkeypatch):
    """Every search of pair flows (with and without limits and blocked
    vertices, adjacent pairs included), of min_separator and of cuts
    with cuttable, often overlapping, sides finds the path the search
    that scans every out-node it queues finds. A pair flow's paths of
    two and three edges take no search, so there are 40 graphs."""
    sink, counts = _search_against_reference(monkeypatch)
    rng = random.Random(500 + seed)
    overlaps = 0
    for _ in range(40):
        if rng.random() < 0.7:
            g = _differential_graph(rng)
        else:
            g = _larger_graph(f"random-{rng.randrange(99)}")
        net = FlowNetwork(g)
        for _ in range(8):
            if g.edges and rng.random() < 0.4:
                v, w = rng.sample(rng.choice(g.edges), 2)
            else:
                v, w = rng.sample(g.vertices, 2)
            rest = [x for x in g.vertices if x not in (v, w)]
            blocked = frozenset(rng.sample(rest, rng.randint(0, len(rest) // 3)))
            sink[0] = _sink_marks(net, {w})
            net._pair_flow(v, w, rng.choice([None, 1, 2, 3]), rng.choice([frozenset(), blocked]))
            a = frozenset(rng.sample(g.vertices, rng.randint(1, min(4, len(g)))))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, min(4, len(g)))))
            sink[0] = _sink_marks(net, b)
            net._cut(a, b, True)
            overlaps += bool(a & b)
            if not a & b:
                try:
                    min_separator(g, a, b)
                except InseparableError:
                    pass
    assert counts[True] > 500 and counts[False] > 50 and overlaps > 30


@pytest.mark.parametrize("seed", range(4))
def test_every_pair_flow_searches_as_the_scanning_search_does(seed, monkeypatch):
    """Every ordered pair flow of a 14-vertex random graph finds the
    paths the scanning search finds. Its flows are long enough to revisit
    used vertices from their successors, where the own in-node's place
    in a row decides the queue order: seed 3 fails when that in-node is
    put after the row instead, which the 40-graph test above misses."""
    sink, counts = _search_against_reference(monkeypatch)
    g = random_connected_graph(random.Random(seed), 14, 0.25)
    net = FlowNetwork(g)
    for v, w in permutations(g.vertices, 2):
        sink[0] = _sink_marks(net, {w})
        net._pair_flow(v, w, None)
    assert counts[True] > 20 and counts[False] > 0


def test_a_used_sink_ends_no_later_search(monkeypatch):
    """From {0, 1} to {2, 4} with cuttable sides, the first path is 0-2.
    Out-node 1 then reaches only sink 2, used up, so the second search
    goes on back through 0 to 0-3-4: paths 0-3-4 and 1-2."""
    g = Graph(range(5), [(0, 2), (1, 2), (0, 3), (3, 4)])
    sink, counts = _search_against_reference(monkeypatch)
    net = FlowNetwork(g)
    sink[0] = _sink_marks(net, {2, 4})
    assert net._cut(frozenset({0, 1}), frozenset({2, 4}), True) == {2, 4}
    assert counts == {True: 2, False: 0}


# the direct edge 1-2 and the paths 1-3-4-5-2 and 1-6-7-8-2, which
# take a search each: no path of two or three edges joins 1 and 2
THETA = Graph(edges=[(1, 2), (1, 3), (3, 4), (4, 5), (2, 5), (1, 6), (6, 7), (7, 8), (2, 8)])


def test_a_sliced_direct_edge_ends_no_search(monkeypatch):
    """Out-node 1 no longer reaches in(2) once the direct 1-2 edge is
    sliced out, so each search goes on past 1's neighbors: paths 1-2,
    1-3-4-5-2 and 1-6-7-8-2."""
    sink, counts = _search_against_reference(monkeypatch)
    net = FlowNetwork(THETA)
    sink[0] = _sink_marks(net, {2})
    assert _full(net, 1, 2) == ((1, 2), (1, 3, 4, 5, 2), (1, 6, 7, 8, 2))
    assert counts == {True: 2, False: 0}


def test_paths_through_common_neighbors_take_no_search(monkeypatch):
    """In K4 minus the 3-4 edge, the paths 1-3-2 and 1-4-2 run through
    common neighbors of 1 and 2, so with the direct edge the flow takes
    no search at all, limited or not."""
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    net = FlowNetwork(g)
    found = _counted_searches(monkeypatch)
    assert _full(net, 1, 2) == ((1, 2), (1, 3, 2), (1, 4, 2))
    assert _family(net, 1, 2, limit=2) is None
    assert found == []


def test_paths_of_three_edges_take_no_search(monkeypatch):
    """On the 6-cycle, 0 and 3 are joined by 0-1-2-3 and 0-5-4-3, and on
    the 3-cube the antipodes 0 and 7 by 0-1-3-7, 0-2-6-7 and 0-4-5-7:
    each neighbor y of v takes the first unused neighbor of w in its
    tuple, and no path takes a search. A blocked z is passed over, so
    1 takes 5 in the cube without 3, and 1 takes nothing in the 6-cycle
    without 2; a limit of 1 stops at the first path. The links are
    those of the loop that searches for every path."""
    c6 = Graph(edges=[(k, (k + 1) % 6) for k in range(6)])
    cube = Graph(edges=[(x, x | b) for x in range(8) for b in (1, 2, 4) if not x & b])
    cases = [(c6, 0, 3, None, frozenset()), (cube, 0, 7, None, frozenset()),
             (cube, 0, 7, None, frozenset({3})), (c6, 0, 3, None, frozenset({2})),
             (cube, 0, 7, 1, frozenset()), (c6, 0, 3, 1, frozenset())]
    found = _counted_searches(monkeypatch)
    assert _full(FlowNetwork(c6), 0, 3) == ((0, 1, 2, 3), (0, 5, 4, 3))
    assert _full(FlowNetwork(cube), 0, 7) == ((0, 1, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7))
    paths = [p.vertices for p in _family(FlowNetwork(cube), 0, 7, blocked=frozenset({3}))]
    assert paths == [(0, 1, 5, 7), (0, 2, 6, 7)]
    assert [p.vertices for p in _family(FlowNetwork(c6), 0, 3, blocked=frozenset({2}))] == [(0, 5, 4, 3)]
    net = FlowNetwork(cube)
    total, pred, succ = net._pair_flow(0, 7, 1)
    assert total == 1 and (succ[0], succ[1], succ[3]) == (1, 3, 7) and pred[2] == pred[4] == -1
    got = [FlowNetwork(g)._pair_flow(v, w, limit, blocked) for g, v, w, limit, blocked in cases]
    assert found == []
    assert got == [ref_pair_flow(FlowNetwork(g), *case) for g, *case in cases]


@pytest.mark.parametrize("seed", range(4))
def test_network_answers_do_not_depend_on_earlier_queries(seed):
    """One network interleaving every kind of query answers each as a
    freshly built one does."""
    rng = random.Random(300 + seed)
    for _ in range(8):
        g = _differential_graph(rng) if rng.random() < 0.5 else _larger_graph(f"random-{rng.randrange(99)}")
        net = FlowNetwork(g)
        for _ in range(20):
            v, w = rng.sample(g.vertices, 2)
            rest = [x for x in g.vertices if x not in (v, w)]
            blocked = frozenset(rng.sample(rest, rng.randint(0, len(rest) // 3)))
            kind = rng.randrange(4)
            if kind == 0:
                assert _full(net, v, w) == _full(FlowNetwork(g), v, w)
            elif kind == 1:
                limit = rng.randint(1, 3)
                assert _family(net, v, w, limit) == _family(FlowNetwork(g), v, w, limit)
            elif kind == 2:
                assert _family(net, v, w, blocked=blocked) == _family(FlowNetwork(g), v, w, blocked=blocked)
            else:
                assert _pair_cut(net, v, w, blocked) == _pair_cut(FlowNetwork(g), v, w, blocked)
                a, b = frozenset({v}), frozenset({w})
                got = net._cut(a | blocked, b, True)
                assert got == FlowNetwork(g)._cut(a | blocked, b, True)


@pytest.mark.parametrize("seed", range(6))
def test_masked_queries_match_the_induced_subgraph(seed):
    """Blocked vertices and an excluded edge answer as the subgraph
    induced by the other vertices, without that edge, would."""
    rng = random.Random(100 + seed)
    for j in range(25):
        g = _differential_graph(rng)
        net = FlowNetwork(g)
        for _ in range(6):
            if j % 3 == 0 and g.edges:
                a, b = rng.sample(rng.choice(g.edges), 2)
            else:
                a, b = rng.sample(g.vertices, 2)
            rest = [x for x in g.vertices if x not in (a, b)]
            blocked = set(rng.sample(rest, rng.randint(0, len(rest) // 2)))
            near_sink = [x for x in g.neighbors(b) if x != a]
            if j % 2 and near_sink:
                # its out-node reaches the sink side, its in-node does not
                blocked.add(rng.choice(near_sink))
            sub = induced_subgraph(g, g.vertex_set - blocked)
            assert _family(net, a, b, blocked=blocked) == max_independent_paths(sub, a, b)
            without_ab = Graph(sub.vertices, [e for e in sub.edges if set(e) != {a, b}])
            assert _pair_cut(net, a, b, blocked) == min_separator(without_ab, {a}, {b}).s


@pytest.mark.parametrize("n", [50, 120, 200])
def test_kappa_and_separators_match_networkx(n):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity, minimum_node_cut

    rng = random.Random(n)
    g = random_connected_graph(rng, n, 6 / n)
    h = nx.Graph(list(g.edges))
    pairs = [(v, w) for v, w in combinations(g.vertices, 2) if not g.has_edge(v, w)]
    for v, w in rng.sample(pairs, 12):
        k = kappa(g, v, w)
        assert k == local_node_connectivity(h, v, w)
        sep = min_separator(g, {v}, {w})
        assert len(sep.s) == k == len(minimum_node_cut(h, v, w))
        assert not any(v in c and w in c for c in components(g, sep.s))


def _answers(g: Graph) -> list:
    """Every public query on a few pairs of g."""
    out = []
    for v, w in combinations(g.vertices[:5], 2):
        out.append(kappa(g, v, w))
        out.append([p.vertices for p in max_independent_paths(g, v, w)])
        out.append(min_blocking_set(g, {v}, {w}).s)
        if not g.has_edge(v, w):
            out.append(min_separator(g, {v}, {w}).s)
    return out


def _fresh_answers(g: Graph) -> list:
    """_answers(g) with a freshly built network for every query."""
    out = []
    for v, w in combinations(g.vertices[:5], 2):
        fam = _full(FlowNetwork(g), v, w)
        out.append(len(fam))
        out.append(list(fam))
        out.append(FlowNetwork(g)._cut(frozenset({v}), frozenset({w}), True))
        if not g.has_edge(v, w):
            out.append(FlowNetwork(g)._cut(frozenset({v}), frozenset({w}), False))
    return out


def test_interleaved_graphs_answer_as_fresh_networks():
    a = _larger_graph("random-1")
    b = _larger_graph("grid-4")
    expected = {id(a): _fresh_answers(a), id(b): _fresh_answers(b)}
    for g in (a, b, a, b, b, a):
        assert _answers(g) == expected[id(g)]


def test_equal_graphs_get_a_network_each():
    a = _larger_graph("random-2")
    b = Graph(a.vertices, a.edges)
    assert a == b and a is not b
    expected = _fresh_answers(a)
    assert _answers(a) == expected
    assert _network(b).graph is b
    assert _answers(b) == expected
    assert _network(a).graph is a


def test_repeated_queries_on_one_graph_build_one_network(monkeypatch):
    g = truncate(make_generator("grid"), 4)
    builds = []
    real = FlowNetwork.__init__

    def counted(self, graph):
        builds.append(graph)
        real(self, graph)

    monkeypatch.setattr(FlowNetwork, "__init__", counted)
    rng = random.Random(5)
    for _ in range(20):
        kappa(g, *rng.sample(g.vertices, 2))
    assert len(builds) == 1 and builds[0] is g


def test_at_most_one_network_is_held():
    graphs = [_larger_graph(f"random-{s}") for s in range(5)]
    for g in graphs:
        kappa(g, *g.vertices[:2])
        del g
    gc.collect()
    held = [o for o in gc.get_objects()
            if type(o) is FlowNetwork and any(o.graph is g for g in graphs)]
    assert len(held) == 1 and held[0].graph is graphs[-1]


def _in_two_threads(work) -> None:
    """Run work(0) and work(1) in two threads that switch as often as
    the interpreter lets them."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_two_threads_share_the_network_slot():
    graphs = [_larger_graph("random-3"), truncate(make_generator("grid"), 3)]
    pairs = {id(g): random.Random(len(g)).choices(list(combinations(g.vertices, 2)), k=200)
             for g in graphs}

    def run(g: Graph) -> list:
        return [[p.vertices for p in max_independent_paths(g, v, w)] for v, w in pairs[id(g)]]

    expected = [run(g) for g in graphs]
    got: list = [None, None]

    def work(i: int) -> None:
        got[i] = run(graphs[i])

    _in_two_threads(work)
    assert got == expected


def test_two_threads_fill_one_family_memo():
    g = truncate(make_generator("grid"), 5)
    roots = [g.vertices[i::2] for i in range(2)]
    copy = Graph(g.vertices, g.edges)
    expected = [[omega_nst(copy, r) for r in rs] for rs in roots]
    memo = _network(copy)._families
    got: list = [None, None]

    def work(i: int) -> None:
        got[i] = [omega_nst(g, r) for r in roots[i]]

    _in_two_threads(work)
    assert got == expected
    assert _network(g)._families == memo



def test_racing_callers_share_one_network():
    # building a network this size takes many thread switches, so the
    # second caller looks at the slot while the first is still building
    for _ in range(5):
        g = truncate(make_generator("grid"), 12)
        start = threading.Barrier(2)
        got: list = [None, None]

        def work(i: int) -> None:
            start.wait(timeout=60)
            got[i] = _network(g)

        _in_two_threads(work)
        assert got[0] is got[1] is _network(g)

def test_only_the_sweeps_fill_the_family_memo():
    g = truncate(make_generator("grid"), 4)
    net = _network(g)
    for v, w in combinations(g.vertices[:6], 2):
        kappa(g, v, w)
        max_independent_paths(g, v, w)
        blocked = frozenset(x for x in g.vertices[6:12] if x not in (v, w))
        _family(net, v, w, blocked=blocked)
        _family(net, v, w, limit=2)
        min_blocking_set(g, {v}, {w})
        if not g.has_edge(v, w):
            min_separator(g, {v}, {w})
    find_fat_tk(g, g.vertices[:3], 2)
    is_dispersed(g, {0}, 3, 2, 1)
    assert _network(g) is net and net._families == {}
    omega_nst(g, 0)
    assert net._families


def _counted_searches(monkeypatch) -> list[bool]:
    """Record whether every augmenting-path search found a path."""
    found: list[bool] = []
    real = connectivity._search

    def search(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(connectivity, "_search", search)
    return found


@pytest.mark.parametrize("case", ["k23", "grid"])
def test_blocked_neighbors_lower_the_bound(case, monkeypatch):
    """A blocked neighbor of an end cannot start or end a path, so a flow
    as strong as the unblocked neighbors is maximum without a search
    that fails."""
    if case == "k23":
        # 0 and 1 share the three neighbors 2, 3 and 4; 4 is blocked
        g = Graph(edges=[(e, x) for e in (0, 1) for x in (2, 3, 4)] + [(4, 5)])
        v, w, blocked = 0, 1, frozenset({4})
    else:
        g = truncate(make_generator("grid"), 3)
        v, w = 0, max(g.vertices)
        blocked = frozenset(g.neighbors(v)[:1] + g.neighbors(w)[:1])
    found = _counted_searches(monkeypatch)
    fam = _family(FlowNetwork(g), v, w, blocked=blocked)
    if case == "k23":
        assert found == []  # both paths run through common neighbors
    else:
        assert all(found) and len(found) == len(fam)
    assert len(fam) < min(g.degree(v), g.degree(w))
    sub = induced_subgraph(g, g.vertex_set - blocked)
    assert [p.vertices for p in fam] == ref_family(sub, v, w)


def _pendant_graph(rng: random.Random, relabel: bool) -> Graph:
    """A random tree with a few chords, most of whose vertices lie in
    pendant trees, sometimes beside a tree component of its own; ids
    0..n-1, or spread out so ranks and ids differ."""
    n = rng.randrange(6, 31)
    g = chorded_graph(rng, n, rng.randint(1, max(1, n // 5)))
    edges = list(g.edges)
    if rng.random() < 0.3:
        extra = rng.randrange(1, 6)
        edges += [(n + i, n + rng.randrange(i)) for i in range(1, extra)]
        n += extra
    ids = rng.sample(range(-50, 200), n) if relabel else list(range(n))
    return Graph(ids, [(ids[u], ids[v]) for u, v in edges])


def _full_rows(g: Graph) -> FlowNetwork:
    """A network of g whose pair flows all run on the full tuples."""
    net = FlowNetwork(g)
    net._core = [None] * len(g)
    return net


@pytest.mark.parametrize("seed", range(6))
def test_core_rows_give_the_flows_of_the_full_rows(seed):
    """On the 2-core's rows a pair flow between two core vertices has
    the value, links and family it has on the full tuples, with and
    without limits; a pair with an end outside the core runs on the
    full tuples. The rows are those of the core the brute-force peel
    leaves."""
    rng = random.Random(900 + seed)
    on_core = 0
    for _ in range(20):
        g = _pendant_graph(rng, relabel=rng.random() < 0.5)
        net, full = FlowNetwork(g), _full_rows(g)
        rank = net._rank
        core = brute_two_core(g)
        pairs = [rng.sample(g.vertices, 2) for _ in range(10)]
        if len(core) > 1:
            pairs += [rng.sample(sorted(core), 2) for _ in range(20)]
        for v, w in pairs:
            limit = rng.choice([None, None, 1, 2, 3])
            got = net._pair_flow(v, w, limit)
            assert got == full._pair_flow(v, w, limit)
            assert net._decompose(v, w, *got) == full._decompose(v, w, *got)
            on_core += v in core and w in core
        rows = net._core
        assert [k for k, row in enumerate(rows) if row is not None] == sorted(rank[x] for x in core)
        for x in core:
            want = tuple(sorted(rank[y] for y in g.neighbors(x) if y in core))
            assert rows[rank[x]] == want
            if want == net._nbrs[rank[x]]:
                assert rows[rank[x]] is net._nbrs[rank[x]]
    assert on_core > 300


def test_only_an_unblocked_pair_flow_peels_the_network():
    """The fat-TK router's masked routings and failure cuts, and the
    cuts of min_separator and min_blocking_set, run on the full tuples
    and leave the core rows unfilled; kappa fills them. K7 on 1-7 with
    the pendant path 7-8-9."""
    g = Graph(edges=[*combinations(range(1, 8), 2), (7, 8), (8, 9)])
    net = _network(g)
    assert isinstance(find_fat_tk(g, [1, 2, 3], 2), FatTKCertificate)
    assert isinstance(find_fat_tk(g, [1, 2, 3], 3), FatTKFailure)
    assert min_separator(g, {1}, {9}).s == {8}
    assert min_blocking_set(g, {1, 2}, {2, 3}).s == {2, 3}
    assert _network(g) is net and net._core is None
    assert kappa(g, 1, 9) == 1
    assert net._core[net._rank[9]] is None and len(net._core[net._rank[7]]) == 6


def _with_pendant_trees(rng: random.Random) -> tuple[Graph, Graph]:
    """A seeded graph of 5-40 vertices, and the same graph with pendant
    trees attached: each new vertex joins one vertex already there. The
    old vertices keep their order, and the new ids fall anywhere among
    theirs."""
    n = rng.randint(5, 40)
    base = chorded_graph(rng, n, min(rng.randint(0, 2 * n), (n - 1) * (n - 2) // 2))
    extra = rng.randint(1, n)
    ids = sorted(rng.sample(range(n + extra), n))
    new = sorted(set(range(n + extra)).difference(ids))
    rng.shuffle(new)
    edges = [(ids[u], ids[v]) for u, v in base.edges]
    g = Graph(ids, edges)
    there = list(ids)
    for x in new:
        edges.append((x, rng.choice(there)))
        there.append(x)
    return g, Graph(range(n + extra), edges)


def _old_answers(g: Graph, old: Graph, seed: int) -> list:
    """On g, the families of 12 pairs of vertices of old, a third of
    them joined by an edge of old when it has one, min_separator and
    min_blocking_set on 4 pairs of sides in old each, and find_fat_tk
    on 3 branch sets in old with m = 2, all drawn from the seed."""
    rng = random.Random(seed)
    vs = old.vertices
    out: list = []
    for j in range(12):
        v, w = rng.sample(rng.choice(old.edges), 2) if j % 3 == 0 and old.edges else rng.sample(vs, 2)
        out.append(max_independent_paths(g, v, w))
    for _ in range(4):
        a = frozenset(rng.sample(vs, rng.randint(1, 2)))
        b = frozenset(rng.sample(vs, rng.randint(1, 2))) - a or old.vertex_set - a
        try:
            out.append(min_separator(g, a, b))
        except InseparableError as e:
            out.append(str(e))
        out.append(min_blocking_set(g, rng.sample(vs, rng.randint(1, 3)), rng.sample(vs, rng.randint(1, 3))))
    for _ in range(3):
        out.append(find_fat_tk(g, rng.sample(vs, 3), 2))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_pendant_trees_change_no_answer_between_old_vertices(seed):
    """No path between two old vertices enters a pendant tree, so
    attaching pendant trees on new ids changes no family, separator,
    blocking set or fat-TK routing between old vertices: the 2-core
    argument of _core_rows, checked on the whole engine without a
    reference."""
    rng = random.Random(3100 + seed)
    for j in range(30):
        g, grown = _with_pendant_trees(rng)
        assert _old_answers(grown, g, j) == _old_answers(g, g, j)


def test_a_flow_as_strong_as_the_core_degree_makes_no_failing_search(monkeypatch):
    """Every vertex of an 8-cycle has a pendant path of one or two more
    vertices: degree 3 and core degree 2. Each pair of cycle vertices
    has two independent paths, so its flow is maximum at the core
    bound, without the search that would fail. Adjacent pairs take
    their edge, pairs two apart their common neighbor, and pairs three
    apart their path of three edges, without a search."""
    cycle = [(k, (k + 1) % 8) for k in range(8)]
    g = Graph(edges=cycle + [(k, 8 + k) for k in range(8)] + [(8 + k, 16 + k) for k in range(0, 8, 2)])
    found = _counted_searches(monkeypatch)
    for v, w in combinations(range(8), 2):
        assert kappa(g, v, w) == 2 < min(g.degree(v), g.degree(w))
    assert all(found) and len(found) == 28 * 2 - 8 - 8 - 8


class _Scans(list):
    """Rows that record the out-nodes a search scans."""

    def __init__(self, rows) -> None:
        super().__init__(rows)
        self.scanned: list[int] = []

    def __getitem__(self, k):
        self.scanned.append(k)
        return list.__getitem__(self, k)


@pytest.mark.parametrize("seed", range(4))
def test_a_search_queues_each_out_node_once(seed, monkeypatch):
    """No search of a pair flow (blocked or not) or of a cut scans an
    out-node twice: a used in-node whose predecessor is a start with
    room leads back to an out-node queued already. A pair flow's paths
    through common neighbors take no search, so there are 33 graphs."""
    real = connectivity._search
    twice = []

    def search(nbrs, *args):
        rows = _Scans(nbrs)
        found = real(rows, *args)
        twice.append(len(rows.scanned) - len(set(rows.scanned)))
        return found

    monkeypatch.setattr(connectivity, "_search", search)
    rng = random.Random(1300 + seed)
    for _ in range(33):
        g = _pendant_graph(rng, True) if rng.random() < 0.5 else _differential_graph(rng)
        net = FlowNetwork(g)
        for _ in range(6):
            v, w = rng.sample(g.vertices, 2)
            rest = [x for x in g.vertices if x not in (v, w)]
            blocked = frozenset(rng.sample(rest, rng.randint(0, len(rest) // 3)))
            net._pair_flow(v, w, None, rng.choice([frozenset(), blocked]))
            a = frozenset(rng.sample(g.vertices, rng.randint(1, min(3, len(g)))))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, min(3, len(g)))))
            net._cut(a, b, True)
            if not a & b and not any(g.has_edge(x, y) for x in a for y in b):
                net._cut(a, b, False)
    assert len(twice) > 400 and not any(twice)


def _relabelled(g: Graph) -> Graph:
    """g with each id x renamed 3x - 50, so that ranks and ids differ."""
    return Graph([3 * x - 50 for x in g.vertices], [(3 * u - 50, 3 * v - 50) for u, v in g.edges])


def _augmented_edges(monkeypatch) -> list[int]:
    """Record the number of edges of every augmenting path, forward or
    backward, read by walking it back as _augment does before it
    relinks: the edge into the sink, each in-node entered by an edge,
    and each out-node reached back along its outflow."""
    edges: list[int] = []
    real = connectivity._augment

    def augment(seen, pred, succ, x, y, cuttable):
        z = x if pred[x] == -1 else succ[x]
        count = 1 + (z != x)
        while (u := seen[z]) >= 0:
            if u == z:  # back through z, then back along its outflow
                z = succ[z]
                count += 1
            else:
                z = u if pred[u] == -1 else succ[u]
                count += 1 + (z != u)
        edges.append(count)
        real(seen, pred, succ, x, y, cuttable)

    monkeypatch.setattr(connectivity, "_augment", augment)
    return edges


@pytest.mark.parametrize("seed", range(4))
def test_pair_flow_matches_the_loop_that_searches_for_every_path(seed, monkeypatch):
    """Blocked or not, with limits None and 0 to 3, on adjacent pairs,
    pendant graphs and relabelled ids, _pair_flow gives the value and
    links, succ[v] included, of the loop that runs a search for every
    path (ref_pair_flow), and makes one search fewer for each of its
    paths of two or three edges."""
    found = _counted_searches(monkeypatch)
    edges = _augmented_edges(monkeypatch)
    rng = random.Random(1500 + seed)
    saved = searched = 0
    for j in range(64):
        kind = j % 4
        if kind == 0:
            g = _differential_graph(rng)
        elif kind == 1:
            g = _pendant_graph(rng, relabel=False)
        elif kind == 2:
            g = truncate(make_generator("grid"), rng.randint(2, 5))
        else:
            g = _larger_graph(f"random-{rng.randrange(99)}")
        if rng.random() < 0.5:
            g = _relabelled(g)
        net, ref = FlowNetwork(g), FlowNetwork(g)
        for _ in range(10):
            if g.edges and rng.random() < 0.4:
                v, w = rng.sample(rng.choice(g.edges), 2)
            else:
                v, w = rng.sample(g.vertices, 2)
            rest = [x for x in g.vertices if x not in (v, w)]
            blocked = rng.choice([frozenset(), frozenset(rng.sample(rest, rng.randint(0, len(rest) // 3)))])
            limit = rng.choice([None, 0, 1, 2, 3])
            found.clear()
            edges.clear()
            want = ref_pair_flow(ref, v, w, limit, blocked)
            ref_searches = len(found)
            short = sum(n <= 3 for n in edges)
            found.clear()
            assert net._pair_flow(v, w, limit, blocked) == want
            assert ref_searches - len(found) == short
            saved += short
            searched += len(found)
    assert saved > 60 and searched > 150


def _corrupt_k4_flow(monkeypatch, how: str) -> None:
    """Make FlowNetwork._pair_flow hand a damaged K4 flow from 1 to 2,
    whose paths are 1-2, 1-3-2 and 1-4-2, to the decomposition."""
    real = FlowNetwork._pair_flow

    def pair_flow(self, *args):
        total, pred, succ = real(self, *args)
        k3, k4 = self._rank[3], self._rank[4]
        if how == "inflow":
            succ[k3] = -1  # 3 takes in flow and passes none on
        elif how == "meet":
            succ[k4] = k3  # 4 goes on to 3
        else:
            total += 1
        return total, pred, succ

    monkeypatch.setattr(FlowNetwork, "_pair_flow", pair_flow)


@pytest.mark.parametrize("how, message", [
    ("inflow", "flow from 1 to 2 is not conserved at 3"),
    ("meet", "paths from 1 to 2 meet at 3"),
    ("value", "3 paths from 1 to 2 carry a flow of 4"),
])
def test_decomposition_checks_the_recorded_flow(how, message, monkeypatch):
    assert _full(FlowNetwork(K4), 1, 2) == ((1, 2), (1, 3, 2), (1, 4, 2))
    _corrupt_k4_flow(monkeypatch, how)
    with pytest.raises(AssertionError, match=message):
        _full(FlowNetwork(K4), 1, 2)


@pytest.mark.parametrize("how, message", [
    ("value", "a cut of 0 vertices for a flow of 1"),
    ("links", "a cut of 0 vertices for a flow of 2"),
    ("start", "a flow of 0 is not maximum: starts [0] still reach the sinks"),
    ("edge", "a cut of 0 vertices for a flow of 4"),
])
def test_cut_checks_the_max_flow_min_cut_identity(how, message, monkeypatch):
    """The THETA cut between 1 and 2 without their edge is {5, 8}, for
    a flow of 2 whose paths both take a search. A flow stopped below its
    maximum, or one whose path links were damaged, leaves a cut of
    another size. On grid r=3 no flow from corner 0 to corner 9 leaves a
    cut of 0 vertices, the right size, but 0 still reaches 9. Sides
    joined by an edge, which cannot be cut apart, stop at a flow of n, 4
    in K4, where they would grow without end."""
    net = FlowNetwork(THETA)
    assert _pair_cut(net, 1, 2, frozenset()) == {5, 8}
    real = connectivity._search
    inner = [net._rank[x] for x in (3, 4, 5)]
    searches: list[bool] = []

    def search(nbrs, fresh, pred, succ, *args):
        # past 5 searches, so that an unbounded flow fails instead of hanging
        if how == "start" or (how == "value" and searches) or len(searches) > 4:
            return False
        searches.append(real(nbrs, fresh, pred, succ, *args))
        if how == "links":
            for k in inner:  # as if 3, 4 and 5 carried nothing
                pred[k] = succ[k] = -1
        return searches[-1]

    monkeypatch.setattr(connectivity, "_search", search)
    with pytest.raises(AssertionError, match=re.escape(message)):
        if how == "start":
            FlowNetwork(truncate(make_generator("grid"), 3))._cut(frozenset({0}), frozenset({9}), False)
        elif how == "edge":
            FlowNetwork(K4)._cut(frozenset({1}), frozenset({2}), False)
        else:
            _pair_cut(net, 1, 2, frozenset())


@pytest.mark.parametrize("query", [min_separator, min_blocking_set])
@pytest.mark.parametrize("a, b", [({9}, {1}), ({1}, {3, 9})])
def test_sides_outside_the_graph_are_refused(query, a, b):
    with pytest.raises(ValueError, match=r"^side vertices not in graph: \[9\]$"):
        query(K4, a, b)


def _menger_cases():
    """Seeded non-adjacent pairs of grid r=40 and of two random
    400-vertex graphs, with their graphs."""
    rng = random.Random(3001)
    graphs = [truncate(make_generator("grid"), 40)]
    graphs += [chorded_graph(rng, 400, chords) for chords in (400, 1200)]
    for g in graphs:
        pairs = 0
        while pairs < 40:
            v, w = rng.sample(g.vertices, 2)
            if not g.has_edge(v, w):
                pairs += 1
                yield g, v, w


def test_menger_duality_at_scale():
    # κ certified where no brute-force or reference oracle reaches: the
    # family and the separator bound each other, so both are optimal
    for g, v, w in _menger_cases():
        family = max_independent_paths(g, v, w)
        inner: list[int] = []
        for p in family:
            assert p.ends == (v, w)
            assert all(map(g.has_edge, p.vertices, p.vertices[1:]))
            inner += p.interior
        assert len(set(inner)) == len(inner)
        s = min_separator(g, {v}, {w}).s
        assert len(s) == len(family) and not {v, w} & s
        assert not any(v in c and w in c for c in components(g, removed=s))
