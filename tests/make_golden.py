"""The golden corpus: canonical path families, traces, tree-order answers,
fat-TK results and CLI outputs, pinned.

"Canonical" is defined by the flow engine's tie-breaks: each
augmenting path is the breadth-first one over the ascending node ids of
the split-vertex network, source and sink last, however the engine
stores that network, and the final flow's paths are sorted by vertex
sequence. Trace selections are indices into those families; the
fat-TK router takes the first members of the same families, and its
failure separators and is_dispersed's blockers are sink-side minimum
cuts found by the same search. A change to the engine that reorders
paths would still pass every validity test, so the exact bytes are
kept here and checked by tests/test_golden.py.

Regenerate (only on purpose, recording why in CHANGES.md) with

    PYTHONPATH=src python tests/make_golden.py

One run rewrites the whole corpus: families/*.txt, traces.txt,
order.txt, fattk.txt, dispersed.txt, cuts.txt, scale.txt and cli/*. To pin a new
file before changing the code it covers, add its writer here and run
this at the parent commit: `git status` must then list only the new
file, since every existing one comes out byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from helpers import bfs_tree, chorded_graph, random_connected_graph, random_rooted_spanning_tree, random_subtree
from nstree import (
    DispersedCover,
    FatTKCertificate,
    FatTKFailure,
    Graph,
    RootedTree,
    dfs_nst,
    down_closure,
    find_fat_tk,
    is_chain,
    is_dispersed,
    is_normal,
    levels_of,
    local_normal_tree,
    make_generator,
    max_independent_paths,
    min_blocking_set,
    min_separator,
    nst_from_dispersed_cover,
    omega_nst,
    tree_leq,
    truncate,
)
from nstree.cli import main as cli_main
from nstree.connectivity import FlowNetwork
from nstree.io import dumps, trace_to_obj, tree_to_obj

GOLDEN = Path(__file__).resolve().parent / "golden"


def family_graphs() -> dict[str, Graph]:
    graphs = {
        "grid-r5": truncate(make_generator("grid"), 5),
        "grid-r6": truncate(make_generator("grid"), 6),
        "fat-tk-gen-3-2-r3": truncate(make_generator("fat-tk-gen", 3, 2), 3),
    }
    for seed in range(4):
        graphs[f"random-14-seed{seed}"] = random_connected_graph(random.Random(seed), 14, 0.25)
    graphs["random-24-seed7"] = random_connected_graph(random.Random(7), 24, 0.1)
    return graphs


def family_text(g: Graph) -> str:
    """One line "v w: path | path ..." per ordered pair of distinct vertices."""
    lines = []
    for v in g.vertices:
        for w in g.vertices:
            if v != w:
                fam = max_independent_paths(g, v, w)
                paths = " | ".join(" ".join(map(str, p.vertices)) for p in fam)
                lines.append(f"{v} {w}: {paths}")
    return "\n".join(lines) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest_text() -> str:
    """One line per run: its parameters and the sha256 of its trace JSON.

    Three runs (omega_nst, local_normal_tree, nst_from_dispersed_cover)
    on each of 150 seeded random connected graphs with 10-40 vertices and
    varied roots, some with kappa_small or step_budget. For the first
    six graphs a "prefix" line also pins every prefix_tree(k) of the
    omega_nst run.
    """
    lines = []
    for seed in range(150):
        rng = random.Random(1000 + seed)
        n = rng.randint(10, 40)
        g = random_connected_graph(rng, n, rng.choice([0.03, 0.08, 0.15, 0.3]))
        r = rng.randrange(n)
        kappa_small = rng.randint(0, 3) if seed % 4 == 1 else None
        budget = rng.randint(0, 3) if seed % 5 == 2 else None
        u = frozenset(rng.sample(g.vertices, rng.randint(1, 5)))
        vs = list(g.vertices)
        rng.shuffle(vs)
        k = rng.randint(1, 4)
        cover = DispersedCover(tuple(frozenset(vs[i::k]) for i in range(k)))
        runs = {
            "omega": omega_nst(g, r, budget, kappa_small),
            "local": local_normal_tree(g, u, r, budget, kappa_small),
            "cover": nst_from_dispersed_cover(g, cover, r, budget, kappa_small),
        }
        head = f"seed={seed} n={n} m={len(g.edges)} r={r} kappa_small={kappa_small} budget={budget}"
        for kind, trace in runs.items():
            lines.append(f"{head} {kind} {_sha(dumps(trace_to_obj(trace)))}")
        if seed < 6:
            trace = runs["omega"]
            prefixes = "".join(
                dumps(tree_to_obj(trace.prefix_tree(j))) for j in range(len(trace.steps) + 1)
            )
            lines.append(f"{head} prefix {_sha(prefixes)}")
    return "\n".join(lines) + "\n"


def order_trees() -> list[tuple[str, Graph, RootedTree]]:
    """A breadth-first, a random depth-first and a random non-spanning
    subtree of each of 60 seeded random connected graphs (10-40
    vertices, random roots), then the path-shaped DFS tree of K_60."""
    out = []
    for seed in range(60):
        rng = random.Random(3000 + seed)
        n = rng.randint(10, 40)
        g = random_connected_graph(rng, n, rng.choice([0.03, 0.08, 0.15, 0.3]))
        r = rng.randrange(n)
        head = f"seed={seed} n={n} m={len(g.edges)} r={r}"
        out.append((f"{head} bfs", g, bfs_tree(g, r)))
        out.append((f"{head} dfs", g, random_rooted_spanning_tree(rng, g, r)))
        out.append((f"{head} sub", g, random_subtree(rng, g, r)))
    k60 = Graph(range(60), [(u, v) for u in range(60) for v in range(u + 1, 60)])
    out.append(("K60 dfs_nst", k60, dfs_nst(k60, 0)))
    return out


def order_text() -> str:
    """One line per tree of order_trees(): the sha256 of each answer.

    normal: the is_normal report with its witness; chain: is_chain on 40
    sets, alternately up to 8 vertices of one root path and 8 random
    tree vertices; leq: tree_leq of every ordered pair; levels: levels_of;
    then vertices, children, depth and down_closure of every vertex.
    """
    lines = []
    for name, g, t in order_trees():
        rng = random.Random(name)
        vs = t.vertices
        parent = t.parent_map
        sets = []
        for j in range(40):
            if j % 2 == 0:
                path = [rng.choice(vs)]
                while path[-1] != t.root:
                    path.append(parent[path[-1]])
                sets.append(rng.sample(path, min(8, len(path))))
            else:
                sets.append(rng.sample(vs, min(8, len(vs))))
        rep = is_normal(g, t)
        fields = {
            "normal": repr((rep.normal, rep.witness)),
            "chain": "".join("1" if is_chain(t, s) else "0" for s in sets),
            "leq": "".join("1" if tree_leq(t, u, v) else "0" for u in vs for v in vs),
            "levels": repr([sorted(s) for s in levels_of(t).sets]),
            "vertices": repr(vs),
            "children": repr([t.children(v) for v in vs]),
            "depth": repr([t.depth(v) for v in vs]),
            "down": repr([sorted(down_closure(t, v)) for v in vs]),
        }
        lines.append(f"{name} " + " ".join(f"{k}={_sha(x)}" for k, x in fields.items()))
    return "\n".join(lines) + "\n"


def _fattk_repr(found) -> str:
    if isinstance(found, FatTKFailure):
        return repr(("failure", found.pair, found.routed, sorted(found.separator)))
    paths = [(k, found.paths_for(*k)) for k in found.pair_keys()]
    return repr(("certificate", found.branch, found.m, paths))


def fattk_text() -> str:
    """One line per call: its parameters, its kind of result and a sha256.

    find: find_fat_tk on three branch sets of 2-4 vertices with m = 1-3
    on each of 300 seeded random connected graphs with 8-40 vertices,
    and on five fat-tk-gen truncations with the generator's own branch
    set and two random ones. A certificate is digested with its branch,
    m and paths, a failure with its pair, routed count and sorted
    separator. dispersed: is_dispersed on 150 seeded graphs with 8-14
    vertices, probes of 0-2 vertices, n = 2-3, m = 1-3, s = 0-2 and a
    search budget of 1-6, digested with the verdict and every examined
    certificate with its blocker.
    """
    lines = []

    def find(head: str, g: Graph, branch: tuple[int, ...], m: int) -> None:
        found = find_fat_tk(g, branch, m)
        kind = "failure" if isinstance(found, FatTKFailure) else "certificate"
        lines.append(f"{head} branch={branch} m={m} {kind} {_sha(_fattk_repr(found))}")

    for seed in range(300):
        rng = random.Random(5000 + seed)
        n = rng.randint(8, 40)
        g = random_connected_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5]))
        head = f"seed={seed} n={n} edges={len(g.edges)}"
        for _ in range(3):
            find(head, g, tuple(rng.sample(g.vertices, rng.randint(2, 4))), rng.randint(1, 3))
    for n, m, r in ((3, 2, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 3)):
        g = truncate(make_generator("fat-tk-gen", n, m), r)
        rng = random.Random(f"fat-tk-gen({n},{m}) r={r}")
        head = f"fat-tk-gen({n},{m}) r={r}"
        find(head, g, tuple(range(n)), m)
        for _ in range(2):
            find(head, g, tuple(rng.sample(g.vertices, n)), m)
    for seed in range(150):
        rng = random.Random(6000 + seed)
        n = rng.randint(8, 14)
        g = random_connected_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
        probe = tuple(rng.sample(g.vertices, rng.randint(0, 2)))
        k, m, s, budget = rng.randint(2, 3), rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 6)
        v = is_dispersed(g, probe, k, m, s, budget)
        examined = [(_fattk_repr(c), sorted(sep)) for c, sep in v.examined]
        lines.append(
            f"seed={seed} n={n} edges={len(g.edges)} probe={probe} tk=({k},{m}) s={s} "
            f"budget={budget} dispersed={v.dispersed} {_sha(repr((v.dispersed, examined)))}"
        )
    return "\n".join(lines) + "\n"


def dispersed_text() -> str:
    """One line per is_dispersed call: its parameters, its verdict, how
    many certificates it examined and a sha256 of the verdict with every
    examined certificate and its blocker.

    The inputs are 120 seeded random connected graphs with 8-30
    vertices, the grid truncations of radius 4-8 and the five fat-tk-gen
    truncations of fattk_text, three calls each, with n = 2-4, m = 1-4,
    s = 0-2, search budgets of 1-100 and probes of 0-2 vertices. n = 4
    runs only on graphs of at most 22 vertices.
    """
    graphs: list[tuple[str, Graph]] = []
    for seed in range(120):
        rng = random.Random(7000 + seed)
        n = rng.randint(8, 30)
        g = random_connected_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.5, 0.7]))
        graphs.append((f"seed={seed} n={n} edges={len(g.edges)}", g))
    for r in range(4, 9):
        graphs.append((f"grid r={r}", truncate(make_generator("grid"), r)))
    for n, m, r in ((3, 2, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 3)):
        graphs.append((f"fat-tk-gen({n},{m}) r={r}", truncate(make_generator("fat-tk-gen", n, m), r)))
    lines = []
    for head, g in graphs:
        rng = random.Random(f"dispersed {head}")
        for _ in range(3):
            probe = tuple(rng.sample(g.vertices, rng.randint(0, 2)))
            k = rng.randint(2, 4 if len(g) <= 22 else 3)
            m, s = rng.randint(1, 4), rng.randint(0, 2)
            budget = rng.choice([1, 2, 3, 5, 10, 30, 100])
            v = is_dispersed(g, probe, k, m, s, budget)
            examined = [(_fattk_repr(c), sorted(sep)) for c, sep in v.examined]
            lines.append(
                f"{head} probe={probe} tk=({k},{m}) s={s} budget={budget} "
                f"dispersed={v.dispersed} examined={len(examined)} "
                f"{_sha(repr((v.dispersed, examined)))}"
            )
    return "\n".join(lines) + "\n"


def cut_graphs() -> dict[str, Graph]:
    """Six seeded 40-vertex graphs: a random spanning tree plus 80
    chords, the density of the fat-TK benchmark's graphs."""
    return {f"chorded-40-seed{seed}": chorded_graph(random.Random(8000 + seed), 40, 80)
            for seed in range(6)}


def cuts_text() -> str:
    """Every-pair families and the cuts of the flow engine on cut_graphs().

    families: one line per source vertex v, the sha256 of the
    family_text lines "v w: ..." of every w. separator and blocking:
    min_separator on 30 pairs of disjoint, non-adjacent sides of 1-3
    vertices, and min_blocking_set on 30 pairs of sides of 1-8 and 1-12
    vertices that may overlap or touch. route: the failure cut
    fattk._route reads from the residual network of a routing flow, the
    a-b pair flow with 0-13 other vertices blocked, and the value of the
    cut's flow, which is the routing's without a direct a-b edge, on 30
    pairs, a third of them adjacent.
    dispersed: the blocker cut is_dispersed makes, with cuttable sides,
    between a probe of 4-12 vertices and the vertex set of a fat-TK
    certificate found on 3 random branch vertices with m = 2.
    """
    lines = []
    for name, g in cut_graphs().items():
        rng = random.Random(f"cuts {name}")
        text = family_text(g).splitlines()
        n = len(g)
        for i, v in enumerate(g.vertices):
            block = "\n".join(text[i * (n - 1):(i + 1) * (n - 1)])
            lines.append(f"{name} families v={v} {_sha(block)}")
        count = 0
        while count < 30:
            a = frozenset(rng.sample(g.vertices, rng.randint(1, 3)))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, 3)))
            if a & b or any(g.has_edge(x, y) for x in a for y in b):
                continue
            count += 1
            s = min_separator(g, a, b).s
            lines.append(f"{name} separator a={sorted(a)} b={sorted(b)} s={sorted(s)}")
        for _ in range(30):
            a = frozenset(rng.sample(g.vertices, rng.randint(1, 8)))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, 12)))
            s = min_blocking_set(g, a, b).s
            lines.append(f"{name} blocking a={sorted(a)} b={sorted(b)} s={sorted(s)}")
        net = FlowNetwork(g)
        for j in range(30):
            a, b = rng.sample(rng.choice(g.edges), 2) if j % 3 == 0 else rng.sample(g.vertices, 2)
            rest = [x for x in g.vertices if x not in (a, b)]
            blocked = frozenset(rng.sample(rest, rng.randint(0, 13)))
            total, pred, succ = net._pair_flow(a, b, None, blocked)
            cut = net._pair_cut(a, b, total, pred, succ)
            value = total - g.has_edge(a, b)
            lines.append(f"{name} route a={a} b={b} blocked={sorted(blocked)} value={value} "
                         f"cut={sorted(cut)}")
        count = 0
        while count < 10:
            found = find_fat_tk(g, rng.sample(g.vertices, 3), 2)
            if not isinstance(found, FatTKCertificate):
                continue
            count += 1
            probe = frozenset(rng.sample(g.vertices, rng.randint(4, 12)))
            cut = net._cut(probe, found.vertices, True)
            lines.append(f"{name} dispersed probe={sorted(probe)} branch={found.branch} "
                         f"cut={sorted(cut)}")
    return "\n".join(lines) + "\n"


def scale_graphs() -> dict[str, Graph]:
    """The graphs scale_text pins outputs on: grid r=28 and r=40, the
    ray truncated at 1000, and a seeded random 400-vertex graph (a
    spanning tree plus 1200 chords), also with each id x relabelled
    3x - 50, so that its ids are not 0..n-1 and a network maps them to
    ranks. A second seeded 400-vertex graph has only 200 chords: 84 of
    its vertices lie outside the 2-core and 58 of its rows are trimmed
    to it, where the first graph has 1 of each, so its flows run on
    rows that _core_rows changes."""
    grid = make_generator("grid")
    chorded = chorded_graph(random.Random(9000), 400, 1200)
    return {
        "grid-r28": truncate(grid, 28),
        "grid-r40": truncate(grid, 40),
        "ray-k1000": truncate(make_generator("ray"), 1000),
        "chorded-400": chorded,
        "chorded-400-3x-50": Graph([3 * x - 50 for x in chorded.vertices],
                                   [(3 * u - 50, 3 * v - 50) for u, v in chorded.edges]),
        "chorded-400-200": chorded_graph(random.Random(9001), 400, 200),
    }


def scale_text() -> str:
    """One line per output at the scale the engines target: its
    parameters and the sha256 of the output.

    omega: the omega_nst trace JSON on grid r=28 from three roots, on
    grid r=40 from 0, on ray k=1000 from 0 and on the random graph with
    200 chords from 0. local and cover: local_normal_tree to 5 seeded
    targets and nst_from_dispersed_cover on a seeded cover of 3 classes,
    on grid r=28 from 0. families: the family_text lines of 1000 seeded
    pairs, a tenth of them adjacent, on grid r=40, on the random
    400-vertex graph and its relabelled copy, and on the random graph
    with 200 chords. separator and blocking:
    min_separator on 100 seeded pairs of disjoint, non-adjacent sides of
    1-3 vertices, and min_blocking_set on 100 pairs of sides of 1-12
    vertices, on the same four graphs. find: find_fat_tk on 200 seeded
    branch sets of 3-4 vertices with m = 2-3 on the graph with 1200
    chords, and on fat-tk-gen(4,3) and fat-tk-gen(5,2) truncated at
    radii 4 and 5 with the generator's own branch set and 50 seeded
    ones, digested as in fattk_text.
    """
    graphs = scale_graphs()
    lines = []
    for name, roots in (("grid-r28", (0, 217, 434)), ("grid-r40", (0,)), ("ray-k1000", (0,)),
                        ("chorded-400-200", (0,))):
        g = graphs[name]
        for r in roots:
            lines.append(f"{name} omega r={r} {_sha(dumps(trace_to_obj(omega_nst(g, r))))}")
    g = graphs["grid-r28"]
    rng = random.Random("scale sweeps grid-r28")
    u = sorted(rng.sample(g.vertices, 5))
    lines.append(f"grid-r28 local r=0 u={u} {_sha(dumps(trace_to_obj(local_normal_tree(g, u, 0))))}")
    vs = list(g.vertices)
    rng.shuffle(vs)
    cover = DispersedCover(tuple(frozenset(vs[i::3]) for i in range(3)))
    trace = nst_from_dispersed_cover(g, cover, 0)
    lines.append(f"grid-r28 cover r=0 classes=3 {_sha(dumps(trace_to_obj(trace)))}")
    for name in ("grid-r40", "chorded-400", "chorded-400-3x-50", "chorded-400-200"):
        g = graphs[name]
        rng = random.Random(f"scale {name}")
        fams = []
        for j in range(1000):
            v, w = rng.sample(rng.choice(g.edges), 2) if j % 10 == 0 else rng.sample(g.vertices, 2)
            fam = max_independent_paths(g, v, w)
            fams.append(f"{v} {w}: " + " | ".join(" ".join(map(str, p.vertices)) for p in fam))
        lines.append(f"{name} families pairs=1000 " + _sha("\n".join(fams)))
        cuts = []
        while len(cuts) < 100:
            a = frozenset(rng.sample(g.vertices, rng.randint(1, 3)))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, 3)))
            if not a & b and not any(g.has_edge(x, y) for x in a for y in b):
                cuts.append(f"{sorted(a)} {sorted(b)} {sorted(min_separator(g, a, b).s)}")
        lines.append(f"{name} separator sides=100 " + _sha("\n".join(cuts)))
        cuts = []
        for _ in range(100):
            a = frozenset(rng.sample(g.vertices, rng.randint(1, 12)))
            b = frozenset(rng.sample(g.vertices, rng.randint(1, 12)))
            cuts.append(f"{sorted(a)} {sorted(b)} {sorted(min_blocking_set(g, a, b).s)}")
        lines.append(f"{name} blocking sides=100 " + _sha("\n".join(cuts)))
    g = graphs["chorded-400"]
    rng = random.Random("scale find chorded-400")
    found = []
    for _ in range(200):
        branch, m = tuple(rng.sample(g.vertices, rng.randint(3, 4))), rng.randint(2, 3)
        found.append(f"{branch} {m} {_fattk_repr(find_fat_tk(g, branch, m))}")
    lines.append("chorded-400 find branches=200 " + _sha("\n".join(found)))
    for n, m in ((4, 3), (5, 2)):
        for r in (4, 5):
            g = truncate(make_generator("fat-tk-gen", n, m), r)
            rng = random.Random(f"scale find fat-tk-gen({n},{m}) r={r}")
            branches = [tuple(range(n))] + [tuple(rng.sample(g.vertices, n)) for _ in range(50)]
            found = [f"{b} {_fattk_repr(find_fat_tk(g, b, m))}" for b in branches]
            lines.append(f"fat-tk-gen({n},{m}) r={r} find m={m} branches=51 "
                         + _sha("\n".join(found)))
    return "\n".join(lines) + "\n"


# name -> (argv, cover JSON written to a file passed as --cover, or None)
CLI_CASES: dict[str, tuple[list[str], str | None]] = {
    "omega-grid-r6": (["omega", "--gen", "grid", "--radius", "6", "--root", "0"], None),
    "omega-grid-r10-root12": (["omega", "--gen", "grid", "--radius", "10", "--root", "12"], None),
    "omega-grid-r5-kappa-small-2": (
        ["omega", "--gen", "grid", "--radius", "5", "--root", "4", "--kappa-small", "2"],
        None,
    ),
    "omega-fat-tk-gen-3-2-r3": (
        ["omega", "--gen", "fat-tk-gen(3,2)", "--radius", "3", "--root", "0"],
        None,
    ),
    "omega-fat-tk-gen-4-2-r3-root7": (
        ["omega", "--gen", "fat-tk-gen(4,2)", "--radius", "3", "--root", "7"],
        None,
    ),
    "omega-binary-tree-r4-budget-2": (
        ["omega", "--gen", "binary-tree", "--radius", "4", "--root", "5", "--budget", "2"],
        None,
    ),
    "local-grid-r6": (
        ["local", "--gen", "grid", "--radius", "6", "--root", "0", "--targets", "27,20,13"],
        None,
    ),
    "local-fat-tk-gen-3-3-r3": (
        ["local", "--gen", "fat-tk-gen(3,3)", "--radius", "3", "--root", "0", "--targets", "9,14,18"],
        None,
    ),
    "cover-nst-grid-r5": (
        ["cover-nst", "--gen", "grid", "--radius", "5", "--root", "0"],
        '{"cover": [[20, 14, 3], [19, 18, 17, 16, 15, 13, 12, 11, 10],'
        " [9, 8, 7, 6, 5, 4, 2, 1, 0]]}",
    ),
    "cover-nst-fat-tk-gen-3-2-r3-kappa-small-3": (
        ["cover-nst", "--gen", "fat-tk-gen(3,2)", "--radius", "3", "--root", "1",
         "--kappa-small", "3"],
        "[[15, 12], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]]",
    ),
    "dispersed-grid-r8-n3-budget-100": (
        ["dispersed", "--gen", "grid", "--radius", "8", "--probe", "0", "--n", "3", "--m", "2",
         "--s", "1", "--search-budget", "100"],
        None,
    ),
}

# stderr of these runs under NTK_LOG=steps and NTK_LOG=full
LOG_CASES: dict[str, list[str]] = {
    "omega-grid-r4": ["omega", "--gen", "grid", "--radius", "4", "--root", "0"],
}


def cli_argv(name: str, cover_dir: Path) -> list[str]:
    argv, cover = CLI_CASES[name]
    if cover is None:
        return list(argv)
    path = cover_dir / f"{name}.cover.json"
    path.write_text(cover)
    return [*argv, "--cover", str(path)]


def log_stderr(argv: list[str], mode: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, NTK_LOG=mode)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nstree.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stderr


def main() -> None:
    (GOLDEN / "families").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    for name, g in family_graphs().items():
        (GOLDEN / "families" / f"{name}.txt").write_text(family_text(g))
    (GOLDEN / "traces.txt").write_text(trace_digest_text())
    (GOLDEN / "order.txt").write_text(order_text())
    (GOLDEN / "fattk.txt").write_text(fattk_text())
    (GOLDEN / "dispersed.txt").write_text(dispersed_text())
    (GOLDEN / "cuts.txt").write_text(cuts_text())
    (GOLDEN / "scale.txt").write_text(scale_text())
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(cli_argv(name, Path(tmp)))
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            (GOLDEN / "cli" / f"{name}.json").write_text(out.getvalue())
    for name, argv in LOG_CASES.items():
        for mode in ("steps", "full"):
            (GOLDEN / "cli" / f"{name}.{mode}.log").write_text(log_stderr(argv, mode))


if __name__ == "__main__":
    main()
