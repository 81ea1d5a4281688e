"""Graph's constructor against the one it replaced (oracles.ref_graph_fields).

Every field must match, `_adj` down to its key order, and every bad
input must raise the same exception type with the same message; where
an input has two faults, the first one in input order wins.
"""

from __future__ import annotations

import random

import pytest

from nstree import Graph, truncate
from nstree.generators import binary_tree, double_ray, fat_tk, grid, ray
from oracles import ref_graph_fields


class Id(int):
    """An int subclass: accepted as a vertex id, like a plain int."""


def fields(g: Graph) -> tuple:
    return g._vertices, g._vset, g._adj, g._edges


def assert_same_graph(vertices, edges) -> None:
    want = ref_graph_fields(list(vertices), list(edges))
    got = fields(Graph(vertices, edges))
    assert got == want
    assert list(got[2]) == list(want[2])  # _adj keys in vertex order


def messy_input(rng: random.Random, n: int, relabel) -> tuple[list[int], list[tuple[int, int]]]:
    """A random graph's arguments with repeated and reversed edges,
    isolated vertices listed or not, and vertices listed twice."""
    ids = [relabel(i) for i in range(n)]
    edges = []
    for _ in range(rng.randrange(2 * n + 1)):
        u, v = rng.sample(ids, 2)
        edges.append((u, v))
        if rng.random() < 0.2:
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(edges)
    vertices = [v for v in ids if rng.random() < 0.5]
    vertices += rng.sample(vertices, len(vertices) // 4)
    rng.shuffle(vertices)
    return vertices, edges


RELABELS = {
    "identity": lambda x: x,
    "negative": lambda x: -x - 1,
    "3x-50": lambda x: 3 * x - 50,
}


@pytest.mark.parametrize("relabel", list(RELABELS), ids=str)
def test_fields_match_the_reference_on_seeded_inputs(relabel):
    rng = random.Random(2711)
    for n in (2, 3, 5, 8, 13, 32, 40, 90, 250, 600):
        for _ in range(6 if n < 100 else 2):
            vertices, edges = messy_input(rng, n, RELABELS[relabel])
            assert_same_graph(vertices, edges)
            assert_same_graph(vertices, sorted(edges))
            assert_same_graph((), edges)


def test_fields_match_the_reference_on_edge_cases():
    assert_same_graph((), ())
    assert_same_graph([4, 4, 4], ())
    assert_same_graph([], [(1, 0), (0, 1), (1, 0)])
    assert_same_graph([7, -3], [(-3, 7), (7, -3)])
    assert_same_graph(range(5), [(4, 0), (3, 1), (0, 4)])
    assert_same_graph([Id(3), 2], [(Id(1), 2), (2, Id(3))])
    assert_same_graph([], [[5, 6], (6, 7)])


@pytest.mark.parametrize(
    "gen", [ray(), double_ray(), binary_tree(), grid(), fat_tk(3, 2), fat_tk(4, 1)], ids=lambda g: g.name
)
def test_fields_match_the_reference_on_generator_arguments(gen):
    # the arguments truncate passes: a frozenset ball and its edges in ball order
    for k in (0, 1, 3, 6):
        ball = frozenset(truncate(gen, k).vertices)
        edges = [(v, w) for v in ball for w in gen.neighbors(v) if w in ball and v < w]
        assert_same_graph(ball, edges)


def test_iterators_build_the_same_fields():
    vertices, edges = messy_input(random.Random(5), 30, lambda x: x)
    g = Graph(iter(vertices), (e for e in edges))
    assert fields(g) == ref_graph_fields(vertices, edges)


def outcome(build, vertices, edges):
    try:
        build(vertices, edges)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)
    return None


BAD_IDS = [True, False, 1.0, "a", None, 2.0]


def bad_inputs():
    for bad in BAD_IDS:
        yield f"vertex {bad!r}", [0, bad, 2], [(0, 2)]
        yield f"edge start {bad!r}", [0], [(0, 1), (bad, 1)]
        yield f"edge end {bad!r}", [0], [(0, 1), (1, bad)]
        yield f"both ends {bad!r}", [], [(bad, "b")]
    yield "self-loop", [0], [(0, 1), (2, 2)]
    yield "negative self-loop", [], [(-7, -7)]
    yield "edge of one end", [], [(0, 1), (2,)]
    yield "edge of three ends", [], [(0, 1, 2)]
    yield "empty edge", [], [()]
    yield "non-iterable edge", [], [(0, 1), 5]
    yield "non-iterable vertices", 5, []
    yield "non-iterable edges", [], 5
    yield "string edge", [], ["ab"]
    yield "unhashable vertex", [[1]], []
    # two faults: the first in input order wins
    yield "bad vertex before a self-loop", [0, "a"], [(1, 1)]
    yield "self-loop before a bad end", [], [(1, 1), (True, 2)]
    yield "bad end before a self-loop", [], [(True, 2), (1, 1)]
    yield "float end equal to the other", [], [(2, 2.0)]
    yield "bad start before a bad end", [], [(None, 1.0)]
    yield "short edge before a bad end", [], [(1,), (None, 2)]
    yield "bad end before a long edge", [], [(None, 2), (1, 2, 3)]
    yield "bad last vertex before a short edge", [0, 1, None], [(4,)]


@pytest.mark.parametrize("case", list(bad_inputs()), ids=lambda c: c[0])
def test_bad_inputs_raise_as_the_reference_does(case):
    _name, vertices, edges = case
    want = outcome(ref_graph_fields, vertices, edges)
    assert want is not None
    assert outcome(Graph, vertices, edges) == want


def test_the_first_fault_wins_on_seeded_inputs():
    rng = random.Random(3203)
    faults = BAD_IDS + ["loop", "short", "long", "scalar"]
    for _ in range(400):
        vertices, edges = messy_input(rng, rng.randrange(2, 20), lambda x: x)
        for _ in range(rng.randrange(1, 4)):
            fault = rng.choice(faults)
            if fault == "loop":
                v = rng.randrange(20)
                edges.insert(rng.randrange(len(edges) + 1), (v, v))
            elif fault == "short":
                edges.insert(rng.randrange(len(edges) + 1), (rng.randrange(20),))
            elif fault == "long":
                edges.insert(rng.randrange(len(edges) + 1), (1, 2, 3))
            elif fault == "scalar":
                edges.insert(rng.randrange(len(edges) + 1), 9)
            elif rng.random() < 0.3:
                vertices.insert(rng.randrange(len(vertices) + 1), fault)
            else:
                u, v = rng.sample(range(20), 2)
                edge = (fault, v) if rng.random() < 0.5 else (u, fault)
                edges.insert(rng.randrange(len(edges) + 1), edge)
        want = outcome(ref_graph_fields, vertices, edges)
        assert want is not None
        assert outcome(Graph, vertices, edges) == want
