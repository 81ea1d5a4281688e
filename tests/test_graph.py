from __future__ import annotations

import pytest
from hypothesis import given, settings

from helpers import connected_graphs_st
from nstree import Graph, components, induced_subgraph, is_connected, neighborhood


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
