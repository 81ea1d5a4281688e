"""Bounded exploration of infinite graphs given by a local rule.

A generator describes a possibly infinite graph by a root vertex and a
pure function mapping each vertex to its neighbors. The only way to get
a concrete Graph out of one is truncate(), which explores the ball of a
given radius around the root.
"""

from __future__ import annotations

from collections.abc import Callable
from math import isqrt

from ._record import Record
from .graph import Graph, _check_int


class GraphGenerator(Record):
    __slots__ = ("name", "root", "rule")

    def _key(self) -> tuple:
        # the rule is code, not data: it takes no part in equality or hashing
        return self.name, self.root

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = tuple(sorted(set(self.rule(v))))
        if v in out:
            raise ValueError(f"generator {self.name!r} produced a self-loop at {v}")
        return out


def truncate(gen: GraphGenerator, k: int) -> Graph:
    """Finite induced subgraph on all vertices within distance k of the root.

    Radius 0 yields the single root vertex. Edges between two ball
    vertices are always included, including edges between two vertices
    at distance exactly k; the result is the induced subgraph of the
    (possibly infinite) generated graph, so truncations are monotone
    under k.
    """
    if _check_int("radius", k) < 0:
        raise ValueError(f"radius must be non-negative, got {k}")
    dist = {gen.root: 0}
    rows: dict[int, tuple[int, ...]] = {}  # the neighbours of each expanded vertex
    frontier = [gen.root]
    for d in range(1, k + 1):
        nxt = []
        for v in frontier:
            rows[v] = row = gen.neighbors(v)
            for w in row:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    ball = frozenset(dist)
    edges = []
    for v in ball:
        # only the outer layer, never expanded, asks its rule here
        for w in rows[v] if v in rows else gen.neighbors(v):
            if w in ball and v < w:
                edges.append((v, w))
    return Graph(ball, edges)


def ray() -> GraphGenerator:
    """One-way infinite path 0-1-2-..."""

    def rule(v: int) -> tuple[int, ...]:
        return (v + 1,) if v == 0 else (v - 1, v + 1)

    return GraphGenerator("ray", 0, rule)


def double_ray() -> GraphGenerator:
    """Two-way infinite path ...-(-1)-0-1-... (vertex ids may be negative)."""

    def rule(v: int) -> tuple[int, int]:
        return (v - 1, v + 1)

    return GraphGenerator("double-ray", 0, rule)


def binary_tree() -> GraphGenerator:
    """Infinite rooted binary tree: children of v are 2v+1 and 2v+2."""

    def rule(v: int) -> tuple[int, ...]:
        kids = (2 * v + 1, 2 * v + 2)
        return kids if v == 0 else ((v - 1) // 2,) + kids

    return GraphGenerator("binary-tree", 0, rule)


def _pair_id(x: int, y: int) -> int:
    # Cantor pairing; (0,0)->0, (1,0)->1, (0,1)->2 fixes the id scheme.
    s = x + y
    return s * (s + 1) // 2 + y


def _unpair(z: int) -> tuple[int, int]:
    # the diagonal s is the largest with s * (s + 1) // 2 <= z
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def grid() -> GraphGenerator:
    """Quarter-grid on lattice points (x, y) with x, y >= 0, rooted at (0,0).

    Ids come from the Cantor pairing of coordinates, so the vertex set
    is exactly the non-negative integers.
    """

    def rule(v: int) -> tuple[int, ...]:
        x, y = _unpair(v)
        out = [_pair_id(x + 1, y), _pair_id(x, y + 1)]
        if x > 0:
            out.append(_pair_id(x - 1, y))
        if y > 0:
            out.append(_pair_id(x, y - 1))
        return tuple(out)

    return GraphGenerator("grid", 0, rule)


def fat_tk(n: int, m: int) -> GraphGenerator:
    """A fat-TK-flavored infinite graph for demonstration runs.

    The finite core has branch vertices 0..n-1 and, for every pair of
    branch vertices, m internally disjoint paths of length 2 through
    fresh subdivision vertices. Each branch vertex additionally carries
    one infinite ray, so every truncation radius adds n new vertices.

    Id scheme: pair p (lexicographic rank of (i, j), i < j) and copy c
    give subdivision vertex n + p*m + c; the core has size
    core = n + m*n*(n-1)/2; the depth-d ray vertex above branch i is
    core + (d-1)*n + i.
    """
    if _check_int("n", n) < 2 or _check_int("m", m) < 1:
        raise ValueError(f"need n >= 2 branch vertices and m >= 1 paths, got n={n}, m={m}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    core = n + len(pairs) * m

    def rule(v: int) -> tuple[int, ...]:
        if v < 0:
            raise ValueError(f"vertex {v} outside generated graph")
        if v < n:
            out = [core + v]  # first ray vertex above branch v
            for p, (i, j) in enumerate(pairs):
                if v in (i, j):
                    out.extend(n + p * m + c for c in range(m))
            return tuple(out)
        if v < core:
            p, _c = divmod(v - n, m)
            return pairs[p]
        d, i = divmod(v - core, n)  # d is depth-1
        below = i if d == 0 else core + (d - 1) * n + i
        return (below, core + (d + 1) * n + i)

    return GraphGenerator(f"fat-tk-gen({n},{m})", 0, rule)


BUILTIN_GENERATORS: dict[str, Callable[..., GraphGenerator]] = {
    "ray": ray,
    "double-ray": double_ray,
    "binary-tree": binary_tree,
    "grid": grid,
    "fat-tk-gen": fat_tk,
}


def make_generator(name: str, n: int | None = None, m: int | None = None) -> GraphGenerator:
    """Look up a built-in generator by CLI name."""
    if name == "fat-tk-gen":
        if n is None or m is None:
            raise ValueError(
                "fat-tk-gen needs parameters N and M; write it as fat-tk-gen(N,M), e.g. fat-tk-gen(3,2)"
            )
        return fat_tk(n, m)
    try:
        factory = BUILTIN_GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GENERATORS))
        raise ValueError(f"unknown generator {name!r} (known: {known})") from None
    return factory()
