"""Finite simple undirected graphs with integer vertex ids."""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class Graph:
    """Immutable simple undirected graph.

    Vertex ids are integers; their total order drives every deterministic
    tie-break in this package (component ordering, DFS child order, flow
    augmentation order). A self-loop raises ValueError; an edge given
    more than once, in either orientation, is kept once.
    Instances never mutate after construction and are safe to share
    between concurrent tasks.
    """

    __slots__ = ("_vertices", "_vset", "_adj", "_edges")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        # exact ints pass on their type alone; anything else is checked
        vs: set[int] = set()
        add = vs.add
        for v in vertices:
            if type(v) is not int:
                _check_vertex(v)
            add(v)
        # a dict, not a set: edges given in order stay in order, and the
        # sort below then makes one pass over them
        pairs: dict[tuple[int, int], None] = {}
        for u, v in edges:
            if type(u) is not int:
                _check_vertex(u)
            if type(v) is not int:
                _check_vertex(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            pairs[(u, v) if u < v else (v, u)] = None
        es = sorted(pairs)
        vs.update(*zip(*es))
        order = sorted(vs)
        # the sorted edges give each vertex its smaller neighbours, then
        # its larger ones, both ascending: every row comes out sorted
        nbrs: dict[int, list[int]] = {v: [] for v in order}
        for u, v in es:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._vertices: tuple[int, ...] = tuple(order)
        self._vset: frozenset[int] = frozenset(vs)
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(row) for v, row in nbrs.items()}
        self._edges: tuple[tuple[int, int], ...] = tuple(es)

    @property
    def vertices(self) -> tuple[int, ...]:
        """All vertex ids in ascending order."""
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vset

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def __contains__(self, v: object) -> bool:
        return v in self._vset

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"


def _check_vertex(v: int) -> int:
    # exact ints take the first test alone; bool is an int subclass but
    # never a vertex id (JSON true/false)
    if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
        raise TypeError(f"vertex ids must be integers, got {type(v).__name__}")
    return v


def _check_int(name: str, value: object) -> int:
    # an exact int: bool is an int subclass but True is no count, nor is 2.0
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def components(g: Graph, removed: frozenset[int] | set[int] = frozenset()) -> list[frozenset[int]]:
    """Connected components of g minus the removed vertices.

    Returns the component vertex sets sorted by their smallest member.
    The removed set must be a subset of the graph's vertices.
    """
    removed = frozenset(map(_check_vertex, removed))
    if not removed <= g.vertex_set:
        extra = sorted(removed - g.vertex_set)
        raise ValueError(f"removed vertices not in graph: {extra}")
    seen: set[int] = set(removed)
    out: list[frozenset[int]] = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    frontier.append(y)
        out.append(frozenset(comp))
    return out


def neighborhood(
    g: Graph, d: frozenset[int] | set[int], inside: frozenset[int] | set[int]
) -> frozenset[int]:
    """Vertices of `inside` adjacent to at least one vertex of `d`.

    The two sets must be disjoint subsets of the graph's vertices.
    """
    d = frozenset(map(_check_vertex, d))
    inside = frozenset(map(_check_vertex, inside))
    if not d <= g.vertex_set or not inside <= g.vertex_set:
        raise ValueError("neighborhood arguments must be subsets of the graph")
    if d & inside:
        raise ValueError(f"sets overlap on {sorted(d & inside)}")
    hit: set[int] = set()
    for x in d:
        for y in g.neighbors(x):
            if y in inside:
                hit.add(y)
    return frozenset(hit)


def induced_subgraph(g: Graph, s: frozenset[int] | set[int]) -> Graph:
    """Subgraph on the vertex set s with every g-edge inside s, ids preserved."""
    s = frozenset(s)
    if not s <= g.vertex_set:
        raise ValueError("induced_subgraph vertex set must be a subset of the graph")
    return Graph(s, ((u, v) for u, v in g.edges if u in s and v in s))


def is_connected(g: Graph) -> bool:
    """True for the empty graph, single vertices, and connected graphs."""
    if len(g) <= 1:
        return True
    return len(components(g)) == 1
