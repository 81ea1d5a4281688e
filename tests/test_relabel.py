"""Relabelling oracle.

Every tie in nstree is broken by vertex order alone, so relabelling a
graph by an increasing map f must relabel every output by f: trees,
traces with their selection indices, path families, separators and
normality witnesses, and the fat-TK layer's certificates, failures and
verdicts. The check needs no reference engine, so it runs on graphs of
up to 200 vertices and on a grid truncation. f(x) = 3x - 50 keeps the
order, spreads the ids apart and makes some of them negative; the
source graphs have ids 0..n-1 and their images do not, so both ways a
flow network numbers its vertices meet on every graph.
"""

from __future__ import annotations

import random

from helpers import bfs_tree, random_connected_graph, random_subtree
from nstree import (
    DispersedCover,
    DispersednessVerdict,
    ExtensionStep,
    FatTKCertificate,
    FatTKFailure,
    Graph,
    InseparableError,
    RootedTree,
    dfs_nst,
    find_fat_tk,
    is_dispersed,
    is_normal,
    local_normal_tree,
    max_independent_paths,
    min_blocking_set,
    min_separator,
    nst_from_dispersed_cover,
    omega_nst,
    truncate,
    verify_fat_tk,
)
from nstree.generators import grid


def f(x: int) -> int:
    return 3 * x - 50


def _image(x):
    """x with every vertex id in it mapped through f."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return f(x)
    if isinstance(x, (tuple, frozenset)):
        return type(x)(map(_image, x))
    if isinstance(x, dict):
        return {f(k): _image(v) for k, v in x.items()}
    if isinstance(x, Graph):
        return Graph(_image(x.vertices), _image(x.edges))
    if isinstance(x, RootedTree):
        return RootedTree(f(x.root), _image(x.parent_map))
    if isinstance(x, DispersedCover):
        return DispersedCover(_image(x.sets))
    if isinstance(x, ExtensionStep):
        # the sweep index and the path indices are not vertices
        return ExtensionStep(
            x.step, _image(x.component), f(x.attach_vertex), f(x.entry_vertex),
            _image(x.targets), tuple((_image(pair), k) for pair, k in x.selections),
            _image(x.fallback_vertex), _image(x.added),
        )
    if isinstance(x, FatTKCertificate):
        return FatTKCertificate(
            _image(x.branch), x.m, {_image(key): _image(x.paths_for(*key)) for key in x.pair_keys()}
        )
    if isinstance(x, FatTKFailure):
        # the routed count is not a vertex
        return FatTKFailure(_image(x.pair), x.routed, _image(x.separator))
    if isinstance(x, DispersednessVerdict):
        # nor is the bound
        return DispersednessVerdict(x.dispersed, x.bound, _image(x.examined))
    # every other record holds only vertices, sets and sequences of them
    return type(x)(*map(_image, x._values()))


def _graphs():
    """Seeded sparse connected graphs of 5-200 vertices, then grid r=20,
    each with the random source its inputs are drawn from."""
    rng = random.Random(3150)
    for _ in range(40):
        n = rng.randint(5, 200)
        extra = rng.choice([0.0, 1.0, 2.5, 5.0]) / n
        yield rng, random_connected_graph(rng, n, extra)
    yield rng, truncate(grid(), 20)


def _inputs(rng: random.Random, g: Graph) -> list[tuple]:
    """Calls to make on g, each (function, arguments, options): the
    arguments hold g and its ids, the options no vertex."""
    vs = g.vertices
    r = rng.choice(vs)
    u = frozenset(rng.sample(vs, rng.randint(1, 4)))
    shuffled = list(vs)
    rng.shuffle(shuffled)
    k = rng.randint(1, 4)
    cover = DispersedCover(tuple(frozenset(shuffled[i::k]) for i in range(k)))
    budget = rng.randint(0, 3)
    kappa_small = rng.randint(0, 3)
    calls: list[tuple] = [
        (dfs_nst, (g, r), {}),
        (omega_nst, (g, r), {}),
        (omega_nst, (g, r), {"step_budget": budget}),
        (omega_nst, (g, r), {"kappa_small": kappa_small}),
        (local_normal_tree, (g, u, r), {"step_budget": budget, "kappa_small": kappa_small}),
        (nst_from_dispersed_cover, (g, cover, r), {"kappa_small": kappa_small}),
        (is_normal, (g, bfs_tree(g, r)), {}),
        (is_normal, (g, random_subtree(rng, g, r)), {}),
        (is_normal, (g, RootedTree(r, {v: r for v in g.neighbors(r)})), {}),
    ]
    for _ in range(3):
        v, w, x, y = rng.sample(vs, 4)
        a = frozenset(rng.sample(vs, rng.randint(1, 3)))
        b = frozenset(rng.sample(vs, rng.randint(1, 3)))
        calls += [
            (max_independent_paths, (g, v, w), {}),
            (min_separator, (g, frozenset((v, x)), frozenset((w, y))), {}),
            (min_blocking_set, (g, a, b), {}),
        ]
    return calls


def _outputs(calls: list[tuple]) -> list:
    out = []
    for fn, args, options in calls:
        try:
            out.append(fn(*args, **options))
        except InseparableError:
            out.append("inseparable")
    return out


def test_relabelling_the_input_relabels_every_output():
    witnesses = {"edge": 0, "path": 0}
    for rng, g in _graphs():
        calls = _inputs(rng, g)
        # all calls on g run before those on its one image, so each
        # graph's held flow network and family memo serve all of its calls
        got = _outputs(calls)
        image = _image(g)
        want = _outputs([(fn, (image, *_image(args[1:])), options) for fn, args, options in calls])
        for (fn, _args, _options), x, y in zip(calls, got, want):
            assert _image(x) == y, (fn.__name__, len(g))
            if isinstance(x, RootedTree):
                assert _image(x.vertices) == y.vertices, fn.__name__
            elif hasattr(x, "tree"):
                assert _image(x.tree.vertices) == y.tree.vertices, fn.__name__
            elif getattr(x, "witness", None):
                witnesses["edge" if len(x.witness[2]) == 2 else "path"] += 1
    # both kinds of violation, a chord and a path through a component
    assert min(witnesses.values()) >= 10, witnesses


def test_relabelling_relabels_every_fat_tk_output():
    rng = random.Random(2006)
    seen = {"certificates": 0, "failures": 0, "blockers": 0}
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(5, 39), rng.choice([0.15, 0.3, 0.5]))
        vs = g.vertices
        probe = frozenset(rng.sample(vs, rng.randint(1, 3)))
        branches = [rng.sample(vs, 3) for _ in range(3)]
        # all calls on g before those on its image, as above
        found = [find_fat_tk(g, u, 2) for u in branches]
        verdict = is_dispersed(g, probe, 3, 2, 1, search_budget=20)
        image = _image(g)
        found_image = [find_fat_tk(image, _image(tuple(u)), 2) for u in branches]
        verdict_image = is_dispersed(image, _image(probe), 3, 2, 1, search_budget=20)
        for x, y in zip(found, found_image):
            assert _image(x) == y, len(g)
            if isinstance(x, FatTKCertificate):
                assert verify_fat_tk(g, x).ok and verify_fat_tk(image, _image(x)).ok
                seen["certificates"] += 1
            else:
                seen["failures"] += 1
        assert _image(verdict) == verdict_image, len(g)
        seen["blockers"] += len(verdict.examined)
    assert min(seen.values()) >= 100, seen
