"""Fat-TK certificates: verification, greedy search, dispersedness.

A fat TK(n, m) is a subdivision of the multigraph built from the
complete graph on n vertices by replacing every edge with m parallel
edges. Inside a simple graph it shows up as n branch vertices joined,
pairwise, by m internally disjoint paths, all interiors fresh. At most
one path per pair may be a bare edge: two unsubdivided parallel edges
would coincide in a simple graph.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from itertools import combinations

from ._record import Record
from .connectivity import FlowNetwork, _network
from .graph import Graph, _check_int, _check_vertex, _vertex_set


class FatTKCertificate:
    """Claimed fat TK(n, m): branch vertices plus per-pair path lists.

    Deliberately constructible from arbitrary data: validity is decided
    by verify_fat_tk against a host graph, never here, so certificates
    read from files can be examined and rejected with a reason. That
    includes malformed data, such as a multiplicity that is not an int
    or an unhashable vertex. The branch is sorted, and each pair key put
    in order; entries that do not compare with each other are ordered
    by repr instead.
    """

    __slots__ = ("branch", "m", "_paths")

    def __init__(
        self,
        branch: Iterable[int],
        m: int,
        paths: Mapping[tuple[int, int], Iterable[Sequence[int]]],
    ) -> None:
        self.branch: tuple[int, ...] = tuple(_sorted(tuple(branch)))
        self.m = m
        norm: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        for (a, b), plist in paths.items():
            norm[_pair_key(a, b)] = tuple(tuple(p) for p in plist)
        self._paths = norm

    def pair_keys(self) -> list[tuple[int, int]]:
        return _sorted(self._paths)

    def paths_for(self, a: int, b: int) -> tuple[tuple[int, ...], ...]:
        return self._paths.get(_pair_key(a, b), ())

    @property
    def vertices(self) -> frozenset[int]:
        vs = set(self.branch)
        for plist in self._paths.values():
            for p in plist:
                vs.update(p)
        return frozenset(vs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FatTKCertificate):
            return NotImplemented
        return (
            self.branch == other.branch
            and self.m == other.m
            and self._paths == other._paths
        )

    def __repr__(self) -> str:
        return f"FatTKCertificate(n={len(self.branch)}, m={self.m})"


def _sorted(items: Collection) -> list:
    """items in ascending order, or by repr if they do not compare."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def _pair_key(a: int, b: int) -> tuple[int, int]:
    """The pair in ascending order, or by repr if its ends do not compare."""
    try:
        return (a, b) if a <= b else (b, a)
    except TypeError:
        return (a, b) if repr(a) <= repr(b) else (b, a)


class CertificateReport(Record):
    __slots__ = ("ok", "reason")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.ok


class FatTKFailure(Record):
    """First pair the greedy router could not complete.

    routed is how many disjoint paths the pair admitted in the residual
    graph; separator is a minimum vertex set blocking every further path
    there (any direct edge between the pair excluded). It is read from
    the residual network of the pair's own routing flow, the maximum
    flow on the router's one network with the other branch vertices and
    the interiors routed so far blocked, so it takes no flow of its own.
    """

    __slots__ = ("pair", "routed", "separator")


class DispersednessVerdict(Record):
    """Outcome of the bounded dispersedness search.

    examined pairs each found certificate with the smallest vertex set
    blocking it from the probe. dispersed means every examined
    certificate had a blocker within the size bound; the claim is
    relative to the bounded search, not exhaustive.
    """

    __slots__ = ("dispersed", "bound", "examined")

    @property
    def witness(self) -> tuple[FatTKCertificate, frozenset[int]] | None:
        """The certificate that settles the verdict: the first examined
        one whose blocker exceeds the bound, None if there is none (a
        dispersed verdict)."""
        for cert, sep in self.examined:
            if len(sep) > self.bound:
                return cert, sep
        return None


def verify_fat_tk(g: Graph, cert: FatTKCertificate) -> CertificateReport:
    """Check every certificate invariant against the host graph.

    In this order: at least 2 branch vertices, all distinct; an integer
    multiplicity m of at least 1; every branch vertex in the graph;
    exactly one path list per branch pair. Then, pair by pair in
    lexicographic order and path by path: m paths per pair, each with
    at least 2 vertices and none repeated, joining the pair's two
    vertices in either direction, along edges of the graph, with an
    interior free of branch vertices and of the interiors of every
    path checked before it; and at most one bare edge per pair.

    Never raises on a certificate, however malformed (a multiplicity
    that is not an int, an unhashable vertex): the report carries the
    first violated condition.
    """
    branch = cert.branch
    n = len(branch)
    if n < 2:
        return CertificateReport(False, f"need at least 2 branch vertices, have {n}")
    try:
        branch_set = set(branch)
    except TypeError:
        return CertificateReport(False, f"branch {list(branch)} has an unhashable vertex")
    if len(branch_set) != n:
        return CertificateReport(False, "branch vertices are not distinct")
    m = cert.m
    if type(m) is not int:
        return CertificateReport(False, f"multiplicity must be an integer, got {m!r}")
    if m < 1:
        return CertificateReport(False, f"multiplicity must be at least 1, got {m}")
    missing = [v for v in branch if v not in g]
    if missing:
        return CertificateReport(False, f"branch vertices not in graph: {missing}")
    paths = cert._paths
    pairs = list(combinations(branch, 2))
    if len(paths) != len(pairs) or not all(map(paths.__contains__, pairs)):
        off = _sorted(set(pairs).symmetric_difference(paths))
        return CertificateReport(False, f"pair lists wrong or missing for {off}")
    adj = g._adj
    used_interior: set[int] = set()
    for a, b in pairs:
        plist = paths[a, b]
        if len(plist) != m:
            return CertificateReport(False, f"pair ({a},{b}) has {len(plist)} paths, expected {m}")
        bare = 0
        for seq in plist:
            k = len(seq)
            if k < 2:
                return CertificateReport(False, f"pair ({a},{b}) has a degenerate path {seq}")
            try:
                inner = set(seq)
            except TypeError:
                return CertificateReport(False, f"path {seq} has an unhashable vertex")
            if len(inner) != k:
                return CertificateReport(False, f"path {seq} repeats a vertex")
            s = seq[0]
            t = seq[-1]
            if not (s == a and t == b or s == b and t == a):
                return CertificateReport(False, f"path {seq} does not join {a} and {b}")
            for x, y in zip(seq, seq[1:]):
                if y not in adj.get(x, ()):
                    return CertificateReport(False, f"claimed edge {x}-{y} is not in the graph")
            if k == 2:
                bare += 1
                continue
            inner.discard(s)
            inner.discard(t)
            if not inner.isdisjoint(branch_set):
                return CertificateReport(
                    False,
                    f"path {seq} passes through branch vertices {sorted(inner & branch_set)}",
                )
            if not inner.isdisjoint(used_interior):
                return CertificateReport(
                    False,
                    f"interior vertices {sorted(inner & used_interior)} are used twice",
                )
            used_interior |= inner
        if bare > 1:
            return CertificateReport(
                False,
                f"pair ({a},{b}) uses the edge {a}-{b} as {bare} parallel paths",
            )
    return CertificateReport(True)


def _branch(u: Iterable[int], m: int) -> tuple[int, ...]:
    """The distinct ids of u in ascending order, once u and the
    multiplicity m pass the checks both branch searches open with."""
    branch = tuple(sorted(set(map(_check_vertex, u))))
    if len(branch) < 2:
        raise ValueError(f"need at least 2 branch vertices, got {len(branch)}")
    if _check_int("multiplicity", m) < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    return branch


def find_fat_tk(g: Graph, u: Iterable[int], m: int) -> FatTKCertificate | FatTKFailure:
    """Greedy routing of a fat TK(n, m) on the branch set u.

    Pairs are processed in lexicographic order; each routes its m paths
    in the graph left after removing the other branch vertices and all
    interiors consumed so far, taking the m first members of the
    canonical independent-path family. Success is sound (the result
    passes verify_fat_tk); failure is not a nonexistence proof, since
    an earlier pair may have consumed vertices a cleverer assignment
    would have spared.
    """
    branch = _branch(u, m)
    _vertex_set(g, branch, "branch")
    return _route(_network(g), branch, m)


def _route(net: FlowNetwork, branch: tuple[int, ...], m: int) -> FatTKCertificate | FatTKFailure:
    # every pair runs on the one network, with the other branch vertices
    # and the interiors used so far blocked; a failing pair's separator
    # is read from the residual network of its own flow
    used: set[int] = set()
    routed: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    for a, b in combinations(branch, 2):
        blocked = used.union(branch).difference((a, b))
        total, pred, succ = net._pair_flow(a, b, None, blocked)
        fam = net._decompose(a, b, total, pred, succ)
        if len(fam) < m:
            return FatTKFailure((a, b), len(fam), net._pair_cut(a, b, total, pred, succ))
        chosen = fam[:m]
        for seq in chosen:
            used.update(seq[1:-1])
        routed[(a, b)] = chosen
    # the data is canonical already (a sorted branch, keys (a, b) with
    # a < b, tuple paths), so the slots are set without the
    # constructor's passes
    cert = object.__new__(FatTKCertificate)
    cert.branch, cert.m, cert._paths = branch, m, routed
    report = verify_fat_tk(net.graph, cert)
    if not report:
        raise AssertionError(f"greedy router built an invalid certificate: {report.reason}")
    return cert


def kappa_necessary_check(g: Graph, u: Iterable[int], m: int) -> bool:
    """Pairwise connectivity test a fat TK(n, m) on u cannot avoid.

    False proves no such certificate exists; true proves nothing beyond
    the pairwise bound (necessary, not sufficient).
    """
    branch = _branch(u, m)
    for v in branch:
        if v not in g:
            raise ValueError(f"vertex {v} not in graph")
    net = _network(g)
    return all(net._pair_flow(a, b, m)[0] >= m for a, b in combinations(branch, 2))


def is_dispersed(
    g: Graph,
    probe: Iterable[int],
    n: int,
    m: int,
    s: int,
    search_budget: int = 100,
) -> DispersednessVerdict:
    """Can the probe set be cut from every fat TK(n, m) by ≤ s vertices?

    Candidate branch sets are the n-sets whose least pairwise
    connectivity κ is at least m (the others cannot host a
    certificate), ranked by descending least κ, ties by the sorted set.
    The search_budget first of them are run through the greedy router,
    in rank order, except the sets with a vertex of degree below
    (n - 1) * m: a branch vertex's (n - 1) * m paths leave it by
    distinct neighbors, so such a set can only fail to route, and a
    failed routing adds nothing to the verdict. Skipping them changes
    neither the ranking nor the budget. Every certificate found is
    tested: the minimum blocking set between probe and the
    certificate's vertices may use vertices of either side, since the
    certificate may touch or contain probe vertices.

    The ranking is found best-first, without scoring every n-set.
    κ(a, b) is at most min(deg a, deg b), so a set scores at most its
    least degree d. Sets are visited by descending d and then in
    lexicographic order, which is ascending order of the bound
    (-d, set) on their rank key. κ is computed per pair, once, and only
    while the set can still rank: a set is dropped at the first pair
    that brings its least κ below m or below the score of the last of
    search_budget sets ranked so far. The search stops at the first set
    whose bound sorts after that last ranked key, since no set still to
    come can rank above it.

    The verdict is relative to this bounded search: it covers at most
    search_budget certificates, and it is vacuously true when no
    candidate routes or none passes the degree test. It does not say
    which of these happened.
    """
    probe = _vertex_set(g, probe, "probe")
    for name, value in (("n", n), ("multiplicity", m), ("s", s), ("search budget", search_budget)):
        _check_int(name, value)
    if n < 2 or m < 1 or s < 0:
        raise ValueError(f"need n >= 2, m >= 1, s >= 0, got n={n}, m={m}, s={s}")
    if search_budget < 1:
        raise ValueError(f"search budget must be positive, got {search_budget}")
    net = _network(g)
    examined: list[tuple[FatTKCertificate, frozenset[int]]] = []
    for _score, cand in _ranked(net, n, m, search_budget):
        if min(map(g.degree, cand)) < (n - 1) * m:
            continue  # cannot route, see above
        found = _route(net, cand, m)
        if isinstance(found, FatTKFailure):
            continue
        if probe:
            blocker = net._cut(probe, found.vertices, True)
        else:
            blocker = frozenset()
        examined.append((found, blocker))
        if len(blocker) > s:
            return DispersednessVerdict(False, s, tuple(examined))
    return DispersednessVerdict(True, s, tuple(examined))


def _ranked(net: FlowNetwork, n: int, m: int, budget: int) -> list[tuple[int, tuple[int, ...]]]:
    """The first `budget` n-sets by (-least pairwise κ, set) among those
    whose least κ is at least m, with their least κ; best-first under
    the degree bound (see is_dispersed)."""
    kappas: dict[tuple[int, int], int] = {}
    ranked: list[tuple[int, tuple[int, ...]]] = []  # (-score, set), ascending
    for d, cand in _by_degree_bound(net.graph, n, m):
        floor = m
        if len(ranked) == budget:
            if (-d, cand) > ranked[-1]:
                break
            floor = -ranked[-1][0]
        score = d
        for pair in combinations(cand, 2):
            k = kappas.get(pair)
            if k is None:
                k = kappas[pair] = net._pair_flow(*pair, None)[0]
            if k < score:
                score = k
                if k < floor:
                    break
        else:
            insort(ranked, (-score, cand))
            del ranked[budget:]
    return [(-key, cand) for key, cand in ranked]


def _by_degree_bound(g: Graph, n: int, m: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(d, set) for every n-set whose least degree d is at least m, by
    descending d, then lexicographically."""
    deg = {v: g.degree(v) for v in g.vertices}
    above: frozenset[int] = frozenset()  # the vertices of degree above d
    for d in sorted(set(deg.values()), reverse=True):
        if d < m:
            return
        level = [v for v in g.vertices if deg[v] >= d]
        for cand in combinations(level, n):
            if not above.issuperset(cand):
                yield d, cand
        above = frozenset(level)
