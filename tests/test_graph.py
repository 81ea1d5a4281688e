from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

from helpers import connected_graphs_st
from nstree import (
    DispersedCover,
    Graph,
    RootedTree,
    components,
    down_closure,
    find_fat_tk,
    induced_subgraph,
    is_connected,
    is_dispersed,
    local_normal_tree,
    min_blocking_set,
    min_separator,
    neighborhood,
    nst_from_dispersed_cover,
    separates_incomparable,
    tree_leq,
)


def test_graph_basics():
    g = Graph([5], [(1, 2), (2, 3)])
    assert g.vertices == (1, 2, 3, 5)
    assert g.edges == ((1, 2), (2, 3))
    assert g.neighbors(2) == (1, 3)
    assert g.degree(2) == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert 5 in g and 4 not in g
    assert len(g) == 4


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(edges=[(1, 1)])


def test_graph_rejects_non_integer_ids():
    with pytest.raises(TypeError):
        Graph(["a"])


@pytest.mark.parametrize("v", [True, False])
def test_graph_rejects_bool_ids(v):
    with pytest.raises(TypeError):
        Graph([v])
    with pytest.raises(TypeError):
        Graph(edges=[(v, 2)])


# the 4-cycle 0-1-3-2 and a normal tree of it, in which 1 and 2 are
# incomparable; each call passes x where the vertex 1 goes
C4 = Graph(edges=[(0, 1), (1, 3), (2, 3), (0, 2)])
C4_TREE = RootedTree(0, {1: 0, 2: 0, 3: 1})
_VERTEX_ARGUMENTS = {
    "parent": lambda x: C4_TREE.parent(x),
    "children": lambda x: C4_TREE.children(x),
    "depth": lambda x: C4_TREE.depth(x),
    "tree_leq": lambda x: tree_leq(C4_TREE, 2, x),
    "down_closure": lambda x: down_closure(C4_TREE, x),
    "separates_incomparable": lambda x: separates_incomparable(C4, C4_TREE, x, 2),
    "find_fat_tk": lambda x: find_fat_tk(C4, [x, 2, 3], 1),
    "is_dispersed": lambda x: is_dispersed(C4, [x], 3, 1, 0),
    "local_normal_tree": lambda x: local_normal_tree(C4, [x], 0),
    "nst_from_dispersed_cover": lambda x: nst_from_dispersed_cover(
        C4, DispersedCover((frozenset({0, 2, 3}), frozenset({x}))), 0
    ),
    "min_separator": lambda x: min_separator(C4, {x}, {2}),
    "min_blocking_set": lambda x: min_blocking_set(C4, {x}, {2}),
    "RootedTree root": lambda x: RootedTree(x),
    "RootedTree child": lambda x: RootedTree(0, {x: 0}),
    "RootedTree parent": lambda x: RootedTree(0, {1: 0, 2: x}),
    "components": lambda x: components(C4, {x}),
    "neighborhood d": lambda x: neighborhood(C4, {x}, {0, 2}),
    "neighborhood inside": lambda x: neighborhood(C4, {0}, {x, 2}),
}


@pytest.mark.parametrize("call", _VERTEX_ARGUMENTS.values(), ids=_VERTEX_ARGUMENTS.keys())
@pytest.mark.parametrize("bad", [True, 1.0], ids=["True", "1.0"])
def test_vertex_arguments_equal_to_an_id_but_not_ints_are_refused(call, bad):
    # True and 1.0 equal the vertex 1, and would otherwise be carried into
    # the result; each entry point raises Graph's error before it answers
    with pytest.raises(TypeError) as want:
        Graph([bad])
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        call(bad)


def test_parallel_edges_collapse():
    g = Graph(edges=[(1, 2), (2, 1)])
    assert g.edges == ((1, 2),)


def test_negative_ids_are_fine():
    g = Graph(edges=[(-2, -1), (-1, 0)])
    assert g.vertices == (-2, -1, 0)


def test_graph_equality_and_hash():
    a = Graph([1, 2], [(1, 2)])
    b = Graph(edges=[(2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph([1, 2, 3], [(1, 2)])


def test_unknown_vertex_queries_fail():
    g = Graph([1])
    with pytest.raises(ValueError):
        g.neighbors(2)


def test_components_cut_vertex():
    g = Graph(edges=[(1, 2), (2, 3)])
    assert components(g, {2}) == [frozenset({1}), frozenset({3})]


def test_components_connected_graph():
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert components(g) == [frozenset({1, 2, 3, 4})]


def test_components_cycle_separator():
    g = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
    assert components(g, {1, 3}) == [frozenset({2}), frozenset({4})]


def test_components_rejects_foreign_removed():
    g = Graph([1])
    with pytest.raises(ValueError):
        components(g, {7})


def test_neighborhood_star():
    g = Graph(edges=[(0, 1), (0, 2), (0, 3)])
    assert neighborhood(g, {1}, {0}) == frozenset({0})


def test_neighborhood_cycle():
    g = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
    assert neighborhood(g, {2}, {1, 3, 4}) == frozenset({1, 3})


def test_neighborhood_complete():
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert neighborhood(g, {4}, {1, 2, 3}) == frozenset({1, 2, 3})


def test_neighborhood_rejects_overlap():
    g = Graph(edges=[(1, 2)])
    with pytest.raises(ValueError):
        neighborhood(g, {1}, {1, 2})


def test_induced_subgraph_edge():
    k4 = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert induced_subgraph(k4, {1, 2}) == Graph([1, 2], [(1, 2)])


def test_induced_subgraph_identity():
    g = Graph(edges=[(1, 2), (2, 3)])
    assert induced_subgraph(g, g.vertex_set) == g


def test_induced_subgraph_cycle_to_path():
    c5 = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert induced_subgraph(c5, {1, 2, 3}) == Graph([1, 2, 3], [(1, 2), (2, 3)])


def test_is_connected_small():
    assert is_connected(Graph())
    assert is_connected(Graph([3]))
    assert not is_connected(Graph([1, 2]))


@settings(max_examples=150)
@given(connected_graphs_st())
def test_components_partition(g):
    got = components(g)
    union = frozenset().union(*got) if got else frozenset()
    assert union == g.vertex_set
    for a, b in zip(got, got[1:]):
        assert min(a) < min(b)
    lookup = {v: i for i, comp in enumerate(got) for v in comp}
    for u, v in g.edges:
        assert lookup[u] == lookup[v]


@settings(max_examples=100)
@given(connected_graphs_st(min_n=2))
def test_induced_subgraph_idempotent(g):
    half = frozenset(v for v in g.vertices if v % 2 == 0)
    sub = induced_subgraph(g, half)
    assert induced_subgraph(sub, half) == sub
    for u, v in g.edges:
        assert ((u, v) in sub.edges) == (u in half and v in half)
