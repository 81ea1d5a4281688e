"""Random instance builders shared across test modules."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from nstree import Graph, RootedTree, induced_subgraph


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges with the given density."""
    vs = list(range(n))
    rng.shuffle(vs)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = vs[i], vs[j]
        edges.add((u, v) if u < v else (v, u))
    for u, v in combinations(range(n), 2):
        if rng.random() < extra:
            edges.add((u, v))
    return Graph(range(n), edges)


def chorded_graph(rng: random.Random, n: int, chords: int) -> Graph:
    """Random spanning tree on 0..n-1 plus `chords` distinct random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((u, v) if u < v else (v, u))
    target = len(edges) + chords
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((u, v) if u < v else (v, u))
    return Graph(range(n), edges)


def clique_chain(count: int, size: int) -> Graph:
    """count disjoint K_size on consecutive ids, each joined to the next by
    an edge from its last vertex to the next clique's first."""
    edges = []
    for c in range(count):
        base = c * size
        edges += [(base + i, base + j) for i, j in combinations(range(size), 2)]
        if c:
            edges.append((base - 1, base))
    return Graph(range(count * size), edges)


def bfs_tree(g: Graph, r: int) -> RootedTree:
    """Breadth-first tree from r of r's component, neighbors ascending."""
    parent: dict[int, int] = {}
    frontier = [r]
    seen = {r}
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    return RootedTree(r, parent)


def random_rooted_spanning_tree(rng: random.Random, g: Graph, r: int) -> RootedTree:
    """Random-order depth-first tree; not uniform, but varied enough."""
    parent: dict[int, int] = {}
    seen = {r}
    stack = [r]
    while stack:
        x = stack[-1]
        nbrs = [y for y in g.neighbors(x) if y not in seen]
        if not nbrs:
            stack.pop()
            continue
        y = rng.choice(nbrs)
        seen.add(y)
        parent[y] = x
        stack.append(y)
    return RootedTree(r, parent)


def random_subtree(rng: random.Random, g: Graph, r: int) -> RootedTree:
    """Rooted tree over a random connected vertex subset containing r."""
    keep = {r}
    frontier = [r]
    while frontier:
        x = frontier.pop(rng.randrange(len(frontier)))
        for y in g.neighbors(x):
            if y not in keep and rng.random() < 0.55:
                keep.add(y)
                frontier.append(y)
    return random_rooted_spanning_tree(rng, induced_subgraph(g, keep), r)


@st.composite
def connected_graphs_st(draw, min_n: int = 1, max_n: int = 8):
    """Hypothesis strategy for small connected graphs."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    extra = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    return random_connected_graph(random.Random(seed), n, extra)
