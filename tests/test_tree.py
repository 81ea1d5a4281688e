from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bfs_tree,
    chorded_graph,
    connected_graphs_st,
    random_connected_graph,
    random_rooted_spanning_tree,
    random_subtree,
)
from nstree import (
    Graph,
    NormalityReport,
    RootedTree,
    dfs_nst,
    down_closure,
    is_chain,
    is_normal,
    levels_of,
    separates_incomparable,
    tree_leq,
)
from nstree.construct import _dfs
from oracles import (
    brute_is_normal,
    ref_dfs,
    ref_is_chain,
    ref_is_normal,
    ref_numbering,
    ref_tree_leq,
)

K4 = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
C4 = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])


def test_rooted_tree_validation():
    for parent, message in [
        ({1: 2}, "root 1 must not have a parent"),
        ({2: 3}, "parent 3 of 2 is not a tree vertex"),
        ({2: 3, 3: 2}, r"parent map has a cycle through \[2, 3\]"),
        ({2: 2}, r"parent map has a cycle through \[2\]"),
        # a cycle stranded next to a valid branch
        ({2: 1, 3: 4, 4: 3}, r"parent map has a cycle through \[3, 4\]"),
        # a bad parent is named before a cycle
        ({2: 3, 3: 2, 4: 9}, "parent 9 of 4 is not a tree vertex"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            RootedTree(1, parent)


def test_rooted_tree_queries():
    t = RootedTree(1, {2: 1, 3: 2, 4: 2})
    assert t.root == 1
    assert t.parent(3) == 2 and t.parent(1) is None
    assert t.children(2) == (3, 4)
    assert t.depth(4) == 2
    assert t.edges() == ((1, 2), (2, 3), (2, 4))
    assert len(t) == 4
    assert 3 in t and 9 not in t


def test_tree_leq_path():
    t = RootedTree(0, {1: 0, 2: 1})
    assert tree_leq(t, 0, 2)
    assert tree_leq(t, 2, 2)
    assert not tree_leq(t, 2, 0)


def test_tree_leq_star_leaves_incomparable():
    t = RootedTree(0, {1: 0, 2: 0})
    assert not tree_leq(t, 1, 2)
    assert not tree_leq(t, 2, 1)


def test_down_closure():
    t = RootedTree(0, {1: 0, 2: 1, 3: 0})
    assert down_closure(t, 2) == frozenset({0, 1, 2})
    assert down_closure(t, 0) == frozenset({0})


def test_is_chain():
    t = RootedTree(0, {1: 0, 2: 1, 3: 0})
    assert is_chain(t, set())
    assert is_chain(t, {2})
    assert is_chain(t, {0, 1, 2})
    assert not is_chain(t, {2, 3})


def test_is_normal_cycle_path_tree():
    t = RootedTree(1, {2: 1, 3: 2, 4: 3})
    assert is_normal(C4, t).normal


def test_is_normal_star_on_k4():
    rep = is_normal(K4, RootedTree(1, {2: 1, 3: 1, 4: 1}))
    assert not rep.normal
    u, v, path = rep.witness
    assert path == (u, v) and K4.has_edge(u, v)
    assert not tree_leq(RootedTree(1, {2: 1, 3: 1, 4: 1}), u, v)


def test_is_normal_nonspanning_cycle():
    rep = is_normal(C4, RootedTree(1, {2: 1, 4: 1}))
    assert not rep.normal
    u, v, path = rep.witness
    assert {u, v} == {2, 4}
    assert set(path[1:-1]) == {3}


def test_is_normal_rejects_foreign_tree_edge():
    with pytest.raises(ValueError):
        is_normal(C4, RootedTree(1, {3: 1}))


def test_is_normal_names_a_foreign_tree_edge_before_an_incomparable_edge():
    # 2-3 and 3-4 are graph edges between incomparable tree vertices;
    # the tree edges 1-3 and 2-4 are not graph edges, and 1-3 is the least
    with pytest.raises(ValueError, match="^tree edge 1-3 is not an edge of the graph$"):
        is_normal(C4, RootedTree(1, {2: 1, 3: 1, 4: 2}))


def test_is_normal_reads_every_vertex_of_a_component():
    # G - T leaves the component {5, 6}: 5 neighbours the tree at 2
    # alone, 6 at 4 alone, and 2 and 4 are incomparable
    g = Graph(edges=[(1, 2), (2, 5), (5, 6), (4, 6), (1, 4)])
    rep = is_normal(g, RootedTree(1, {2: 1, 4: 1}))
    assert not rep.normal
    assert rep.witness == (2, 4, (2, 5, 6, 4))


def test_is_normal_reads_the_vertex_set_a_fixed_number_of_times(monkeypatch):
    """A path of 2000 vertices with a pendant leaf at each, the path as
    the tree: G - T leaves 2000 components, and their tree neighbours
    are found without a subset check of the graph's vertices each."""
    n = 2000
    g = Graph(range(2 * n), [(i, i + 1) for i in range(n - 1)] + [(i, n + i) for i in range(n)])
    t = RootedTree(0, {i: i - 1 for i in range(1, n)})
    reads = 0
    vertex_set = Graph.vertex_set.fget

    def counted(self):
        nonlocal reads
        reads += 1
        return vertex_set(self)

    monkeypatch.setattr(Graph, "vertex_set", property(counted))
    assert is_normal(g, t).normal
    assert reads == 2


def test_witness_is_a_real_t_path():
    g = Graph(edges=[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
    t = RootedTree(0, {1: 0, 2: 0})
    rep = is_normal(g, t)
    assert not rep.normal
    u, v, path = rep.witness
    assert path[0] == u and path[-1] == v
    for x, y in zip(path, path[1:]):
        assert g.has_edge(x, y)
    for x in path[1:-1]:
        assert x not in t


def test_separates_incomparable_shared_vertex():
    g = Graph(edges=[(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    t = RootedTree(0, {1: 0, 2: 1, 3: 0, 4: 3})
    assert is_normal(g, t).normal
    assert separates_incomparable(g, t, 2, 4)
    with pytest.raises(ValueError):
        separates_incomparable(g, t, 0, 2)


@settings(max_examples=200, deadline=None)
@given(connected_graphs_st(max_n=7), st.randoms(use_true_random=False))
def test_is_normal_matches_brute_force_on_spanning_trees(g, rng):
    r = rng.choice(g.vertices)
    t = random_rooted_spanning_tree(rng, g, r)
    assert is_normal(g, t).normal == brute_is_normal(g, t)


@settings(max_examples=200, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=7), st.randoms(use_true_random=False))
def test_is_normal_matches_brute_force_on_subtrees(g, rng):
    r = rng.choice(g.vertices)
    t = random_subtree(rng, g, r)
    assert is_normal(g, t).normal == brute_is_normal(g, t)


@settings(max_examples=120, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=8), st.randoms(use_true_random=False))
def test_normal_trees_separate_incomparable_pairs(g, rng):
    r = rng.choice(g.vertices)
    t = random_rooted_spanning_tree(rng, g, r)
    if not is_normal(g, t).normal:
        return
    for u, v in combinations(sorted(t.vertex_set), 2):
        if tree_leq(t, u, v) or tree_leq(t, v, u):
            continue
        assert separates_incomparable(g, t, u, v)


@settings(max_examples=150, deadline=None)
@given(connected_graphs_st(), st.randoms(use_true_random=False))
def test_tree_order_laws(g, rng):
    r = rng.choice(g.vertices)
    t = random_rooted_spanning_tree(rng, g, r)
    vs = t.vertex_set
    for v in vs:
        assert tree_leq(t, r, v)
        assert tree_leq(t, v, v)
        assert is_chain(t, down_closure(t, v))
    pairs = list(combinations(sorted(vs), 2))
    rng.shuffle(pairs)
    for u, v in pairs[:20]:
        if tree_leq(t, u, v) and tree_leq(t, v, u):
            assert u == v


def _seeded_trees():
    """150 trees: a BFS, a random-DFS or a random partial tree of a
    seeded random graph with 2-45 vertices, by turns."""
    for seed in range(150):
        rng = random.Random(500 + seed)
        n = rng.randint(2, 45)
        g = random_connected_graph(rng, n, rng.choice([0.02, 0.1, 0.3]))
        r = rng.randrange(n)
        make = (bfs_tree, lambda g, r: random_rooted_spanning_tree(rng, g, r),
                lambda g, r: random_subtree(rng, g, r))[seed % 3]
        yield rng, make(g, r)


def test_tree_order_matches_parent_walk_reference():
    for rng, t in _seeded_trees():
        vs = t.vertices
        for u in vs:
            for v in vs:
                assert tree_leq(t, u, v) == ref_tree_leq(t, u, v)
        parent = t.parent_map
        for _ in range(50):
            if rng.random() < 0.5:  # a subset of one root path, often a chain
                path = [rng.choice(vs)]
                while path[-1] != t.root:
                    path.append(parent[path[-1]])
                s = rng.sample(path, rng.randint(0, len(path)))
            else:
                s = rng.sample(vs, rng.randint(0, min(8, len(vs))))
            assert is_chain(t, s) == ref_is_chain(t, s)
        for v in vs:
            assert t.children(v) == tuple(sorted(c for c, p in parent.items() if p == v))
            assert t.depth(v) == len(down_closure(t, v)) - 1


def _numbering_inputs():
    """(root, parent map) pairs: the seeded trees, the same maps with
    their keys shuffled, the shuffled maps relabelled with negative,
    non-contiguous ids, a 3000-vertex path and a 3000-vertex star."""
    for rng, t in _seeded_trees():
        parent = t.parent_map
        yield t.root, parent
        items = list(parent.items())
        rng.shuffle(items)
        yield t.root, dict(items)
        ids = dict(zip(t.vertices, rng.sample(range(-5000, 5000, 3), len(t))))
        yield ids[t.root], {ids[v]: ids[p] for v, p in items}
    yield 0, {v: v - 1 for v in range(1, 3000)}
    yield 0, {v: 0 for v in range(2999, 0, -1)}


def test_numbering_matches_the_bfs_reference():
    for root, parent in _numbering_inputs():
        t = RootedTree(root, parent)
        pre, end, order = ref_numbering(root, parent)
        assert t._pre == pre
        assert t._end == end
        assert t.vertices == order
        assert list(t.parent_map) == list(parent)
        kids: dict[int, list[int]] = {v: [] for v in order}
        depth = {root: 0}
        for v in order[1:]:
            kids[parent[v]].append(v)
            depth[v] = depth[parent[v]] + 1
        for v in order:
            assert t.children(v) == tuple(sorted(kids[v]))
            assert t.depth(v) == depth[v]
        levels: dict[int, set[int]] = {}
        for v in order:
            levels.setdefault(depth[v], set()).add(v)
        assert levels_of(t).sets == tuple(frozenset(levels[d]) for d in range(len(levels)))


def _spread_spanning_tree(rng: random.Random, g: Graph, r: int) -> RootedTree:
    """Spanning tree of r's component grown by a random frontier edge at
    each step: neither depth- nor breadth-first, so often not normal."""
    parent: dict[int, int] = {}
    seen = {r}
    frontier = [(r, y) for y in g.neighbors(r)]
    while frontier:
        x, y = frontier.pop(rng.randrange(len(frontier)))
        if y not in seen:
            seen.add(y)
            parent[y] = x
            frontier += [(y, z) for z in g.neighbors(y) if z not in seen]
    return RootedTree(r, parent)


def _trees_at_scale():
    """(rng, graph, root, trees) on 36 seeded sparse graphs of 5-600
    vertices. The trees: the DFS, BFS, random-DFS and spread spanning
    trees from the root, two random subtrees, the one-vertex tree, and the
    BFS and spread trees each less one random leaf."""
    for seed in range(36):
        rng = random.Random(7100 + seed)
        n = (5, 12, 40, 150, 600, 600)[seed % 6]
        g = chorded_graph(rng, n, rng.choice([0, 2, n // 4, n]))
        r = rng.randrange(n)
        bfs = bfs_tree(g, r)
        spread = _spread_spanning_tree(rng, g, r)
        trees = [dfs_nst(g, r), bfs, random_rooted_spanning_tree(rng, g, r), spread,
                 random_subtree(rng, g, r), random_subtree(rng, g, r), RootedTree(r)]
        for t in (bfs, spread):
            parent = t.parent_map
            del parent[rng.choice(sorted(parent.keys() - parent.values()))]
            trees.append(RootedTree(r, parent))
        yield rng, g, r, trees


def _outcome(check, g: Graph, t: RootedTree) -> NormalityReport | str:
    try:
        return check(g, t)
    except ValueError as exc:
        return str(exc)


def test_is_normal_matches_the_reference_at_scale():
    seen = dict.fromkeys(("normal", "edge witness", "path witness", "error"), 0)
    for rng, g, r, trees in _trees_at_scale():
        # with them a tree on the same vertices, mostly of edges outside the graph
        for t in trees + [bfs_tree(chorded_graph(rng, len(g), 0), r)]:
            got = _outcome(is_normal, g, t)
            assert got == _outcome(ref_is_normal, g, t)
            seen["error" if isinstance(got, str) else "normal" if got
                 else "edge witness" if len(got.witness[2]) == 2 else "path witness"] += 1
    # every outcome is compared, not only the normal one
    assert min(seen.values()) >= 10, seen


def test_is_chain_matches_the_reference_on_600_vertex_trees():
    seen = {True: 0, False: 0}
    for rng, g, r, trees in _trees_at_scale():
        if len(g) != 600:
            continue
        for t in trees:
            vs = t.vertices
            parent = t.parent_map
            for _ in range(40):
                path = [rng.choice(vs)]
                while path[-1] != r:
                    path.append(parent[path[-1]])
                s = rng.sample(path, rng.randint(0, min(12, len(path))))
                # a root path's subset is a chain; one more vertex often breaks it
                for s in (s, s + [rng.choice(vs)], rng.sample(vs, min(8, len(vs)))):
                    got = is_chain(t, s)
                    assert got == ref_is_chain(t, s)
                    seen[got] += 1
    assert min(seen.values()) >= 100, seen


def test_numbering_matches_the_reference_at_scale():
    for rng, g, r, trees in _trees_at_scale():
        # maps the constructor numbers, in key order and shuffled
        for t in trees:
            items = list(t.parent_map.items())
            rng.shuffle(items)
            for parent in (t.parent_map, dict(items)):
                pre, end, _ = ref_numbering(r, parent)
                got = RootedTree(r, parent)
                assert (got._pre, got._end) == (pre, end)
        # maps _from_preorder numbers: the depth-first map from r, and a
        # down-closed part of it in the same key order
        parent = _dfs(g, r)
        assert list(parent.items()) == list(ref_dfs(g, r, g.vertex_set).items())
        keep = {r}
        for x in rng.sample(g.vertices, rng.randint(0, 3)):
            while x not in keep:
                keep.add(x)
                x = parent[x]
        for parent in (parent, {v: p for v, p in parent.items() if v in keep}):
            pre, end, _ = ref_numbering(r, parent)
            got = RootedTree._from_preorder(r, parent)
            assert (got._pre, got._end) == (pre, end)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: tree_leq(t, 9, 0),
        lambda t: tree_leq(t, 0, 9),
        lambda t: tree_leq(t, 9, 8),
        lambda t: is_chain(t, {9}),
        lambda t: is_chain(t, [0, 9]),
        lambda t: is_chain(t, {2, 9, 8, 1}),
        lambda t: t.depth(9),
        lambda t: t.children(9),
        lambda t: t.parent(9),
        lambda t: down_closure(t, 9),
    ],
)
def test_non_members_raise_value_error(call):
    t = RootedTree(0, {1: 0, 2: 1, 3: 0})
    with pytest.raises(ValueError, match="^vertex [89] not in tree$"):
        call(t)


@pytest.mark.parametrize("s", [{9}, [0, 9], {2, 9, 8, 1}, range(20, 60), [9, 8], [9, 40, 2]])
def test_is_chain_names_the_same_non_member_as_the_reference(s):
    t = RootedTree(0, {1: 0, 2: 1, 3: 0})
    with pytest.raises(ValueError) as got:
        is_chain(t, s)
    with pytest.raises(ValueError) as want:
        ref_is_chain(t, s)
    assert str(got.value) == str(want.value)


def test_is_chain_of_an_iterator_names_the_non_member_of_its_list():
    t = RootedTree(0, {1: 0, 2: 1, 3: 0})
    with pytest.raises(ValueError) as got:
        is_chain(t, iter([9, 40, 2]))
    with pytest.raises(ValueError) as want:
        ref_is_chain(t, [9, 40, 2])
    assert str(got.value) == str(want.value)


def test_is_normal_refuses_tree_vertices_outside_the_graph():
    g = Graph(edges=[(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^tree vertices not in graph: \[7, 9\]$"):
        is_normal(g, RootedTree(0, {1: 0, 9: 1, 7: 0}))


@pytest.mark.parametrize(
    "t, strays",
    [
        (RootedTree(0, {6: 0, 7: 0}), r"\[6, 7\]"),
        # the root is a stray too, named with the rest
        (RootedTree(5, {6: 5, 7: 5}), r"\[5, 6, 7\]"),
    ],
    ids=["leaves", "root-and-leaves"],
)
def test_separates_incomparable_refuses_tree_vertices_outside_the_graph(t, strays):
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=rf"^tree vertices not in graph: {strays}$"):
        separates_incomparable(g, t, 6, 7)


def test_separates_incomparable_checks_its_vertices_before_the_tree():
    g = Graph(range(3), [(0, 1), (1, 2)])
    t = RootedTree(5, {6: 5, 7: 6})
    with pytest.raises(ValueError, match=r"^vertex 9 not in tree$"):
        separates_incomparable(g, t, 9, 7)
    with pytest.raises(ValueError, match=r"^vertices 6 and 7 are comparable$"):
        separates_incomparable(g, t, 6, 7)


def test_separates_incomparable_fails_on_a_non_normal_tree():
    # the triangle's star from 0 is not normal: the chord 1-2 joins two
    # incomparable vertices, whose common down-closure {0} leaves it
    g = Graph(edges=[(0, 1), (0, 2), (1, 2)])
    t = RootedTree(0, {1: 0, 2: 0})
    assert not is_normal(g, t)
    assert separates_incomparable(g, t, 1, 2) is False
