"""Seeded inputs and the operations of each perfbench workload.

Every input is made here from the benchmark's seed; nstree only ever
receives the finished graphs, trees and vertex sets. An operation is one
timed call (or one CLI command) together with what the independent
checker needs to judge its output. Outputs are turned into plain data
(ints, tuples, dicts) outside the timed region, both for the checker and
so that every later round can be compared with the checked first round.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import random
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import nstree
from nstree import cli, generators


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    plain: Callable[[object], object]
    kind: str
    graph: str | None
    params: dict
    extra: Callable[[object], dict] | None = None


@dataclass
class Workload:
    graphs: dict[str, nstree.Graph]
    ops: list[Op]
    in_process: list[Op] = field(default_factory=list)


def random_graph(rng: random.Random, n: int, extra: float) -> nstree.Graph:
    """A random spanning tree on 0..n-1 plus round(extra * n) random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = len(edges) + round(extra * n)
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return nstree.Graph(range(n), sorted(edges))


def bfs_parent(g: nstree.Graph, root: int) -> dict[int, int]:
    parent: dict[int, int] = {}
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    return parent


def random_dfs_parent(rng: random.Random, g: nstree.Graph, root: int) -> dict[int, int]:
    """Depth-first tree with a random child order: normal, but not nstree's."""
    parent: dict[int, int] = {}
    seen = {root}
    stack = [root]
    while stack:
        x = stack[-1]
        fresh = [y for y in g.neighbors(x) if y not in seen]
        if not fresh:
            stack.pop()
            continue
        y = rng.choice(fresh)
        seen.add(y)
        parent[y] = x
        stack.append(y)
    return parent


# ---- plain forms of outputs ----------------------------------------------


def trace_plain(trace) -> dict:
    return {
        "status": trace.status,
        "parent": trace.tree.parent_map,
        "steps": [
            {
                "step": s.step,
                "component": tuple(sorted(s.component)),
                "attach": s.attach_vertex,
                "entry": s.entry_vertex,
                "targets": tuple(sorted(s.targets)),
                "selections": s.selections,
                "fallback": s.fallback_vertex,
                "added": s.added,
            }
            for s in trace.steps
        ],
    }


def trace_json_plain(obj: dict) -> dict:
    return {
        "status": obj["status"],
        "parent": {int(k): p for k, p in obj["tree"]["parent"].items()},
        "steps": [
            {
                "step": s["step"],
                "component": tuple(s["component"]),
                "attach": s["attach"],
                "entry": s["entry"],
                "targets": tuple(s["targets"]),
                "selections": tuple((tuple(x["pair"]), x["index"]) for x in s["selections"]),
                "fallback": s["fallback"],
                "added": tuple(tuple(e) for e in s["added"]),
            }
            for s in obj["steps"]
        ],
    }


def families(g: nstree.Graph, steps, cache: dict) -> dict:
    """The canonical family of every selected pair; cache holds the
    families already computed on g."""
    out = {}
    for s in steps:
        for (v, w), _k in s["selections"]:
            if (v, w) not in cache:
                cache[(v, w)] = [p.vertices for p in nstree.max_independent_paths(g, v, w)]
            out[(v, w)] = cache[(v, w)]
    return out


def trace_extra(g: nstree.Graph, cache: dict) -> Callable[[object], dict]:
    def extra(trace) -> dict:
        return {
            "families": families(g, trace_plain(trace)["steps"], cache),
            "prefix_parent": trace.prefix_tree(len(trace.steps)).parent_map,
        }

    return extra


def cert_plain(cert) -> tuple:
    return (cert.branch, cert.m, {k: cert.paths_for(*k) for k in cert.pair_keys()})


def planted_fault(cert) -> dict:
    """The certificate with its first pair's last path replaced by its
    first: a shared interior vertex, or a bare edge used twice."""
    paths = {k: cert.paths_for(*k) for k in cert.pair_keys()}
    first = cert.pair_keys()[0]
    paths[first] = paths[first][:-1] + paths[first][:1]
    return paths


def find_and_verify(g: nstree.Graph, branch, m: int):
    found = nstree.find_fat_tk(g, branch, m)
    if isinstance(found, nstree.FatTKFailure):
        return found, ()
    bad = nstree.FatTKCertificate(found.branch, found.m, planted_fault(found))
    return found, (nstree.verify_fat_tk(g, found).ok, nstree.verify_fat_tk(g, bad).ok)


def find_plain(result) -> dict:
    found, verdicts = result
    if isinstance(found, nstree.FatTKFailure):
        return {"cert": None, "pair": found.pair, "routed": found.routed,
                "separator": tuple(sorted(found.separator))}
    return {"cert": cert_plain(found), "verdicts": verdicts, "planted": planted_fault(found)}


def verdict_plain(v) -> dict:
    return {
        "dispersed": v.dispersed,
        "examined": [(cert_plain(c), tuple(sorted(sep))) for c, sep in v.examined],
    }


def tree_plain(t) -> dict:
    return {"parent": t.parent_map, "depth": {v: t.depth(v) for v in t.vertices}}


def normality_plain(report) -> tuple:
    return report.normal, report.witness


# ---- workloads -------------------------------------------------------------


def sweep(rng: random.Random, tmp: Path) -> Workload:
    """The paper's construction on grid truncations and sparse random graphs."""
    graphs = {
        "grid5": nstree.truncate(generators.grid(), 5),
        "grid6": nstree.truncate(generators.grid(), 6),
    }
    ops: list[Op] = []
    caches: dict[str, dict] = {}

    def add(label, gname, call, params):
        extra = trace_extra(graphs[gname], caches.setdefault(gname, {}))
        ops.append(Op(label, call, trace_plain, "trace", gname, params, extra))

    for i in range(120):
        name = f"r32-{i}"
        g = graphs[name] = random_graph(rng, 32, 0.5)
        r = rng.randrange(32)
        add(f"omega {name} root={r}", name, lambda g=g, r=r: nstree.omega_nst(g, r), {"root": r})
    for gname, count, ks in (("grid6", 60, None), ("grid5", 60, 2)):
        g = graphs[gname]
        for _ in range(count):
            r = rng.choice(g.vertices)
            add(f"omega {gname} root={r} kappa_small={ks}", gname,
                lambda g=g, r=r, ks=ks: nstree.omega_nst(g, r, kappa_small=ks),
                {"root": r, "kappa_small": ks})
    for i in range(60):
        name = f"r40-{i}"
        g = graphs[name] = random_graph(rng, 40, 0.5)
        r = rng.randrange(40)
        u = frozenset(rng.sample(range(40), 3))
        add(f"local {name} root={r}", name,
            lambda g=g, r=r, u=u: nstree.local_normal_tree(g, u, r), {"root": r, "targets": u})
    for i in range(60):
        name = f"c32-{i}"
        g = graphs[name] = random_graph(rng, 32, 0.5)
        r = rng.randrange(32)
        classes = [set() for _ in range(3)]
        for v in g.vertices:
            classes[rng.randrange(3)].add(v)
        cover = tuple(frozenset(c) for c in classes if c)
        add(f"cover {name} root={r}", name,
            lambda g=g, r=r, c=nstree.DispersedCover(cover): nstree.nst_from_dispersed_cover(g, c, r),
            {"root": r, "cover": cover})
    for i in range(40):
        name = f"b40-{i}"
        g = graphs[name] = random_graph(rng, 40, 0.5)
        r = rng.randrange(40)
        add(f"omega {name} root={r} step_budget=2", name,
            lambda g=g, r=r: nstree.omega_nst(g, r, step_budget=2), {"root": r, "budget": 2})
    return Workload(graphs, ops)


DENSE_N, DENSE_EXTRA, SPARSE_N, CHAIN_SETS, CHAIN_BATCH = 70, 8.0, 600, 160, 20
GRID_R = 30


def order(rng: random.Random, tmp: Path) -> Workload:
    """Tree-order writes and reads with no flow at all."""
    graphs: dict[str, nstree.Graph] = {}
    ops: list[Op] = []
    for i in range(12):
        graphs[f"dense{i}"] = random_graph(rng, DENSE_N, DENSE_EXTRA)
        graphs[f"sparse{i}"] = random_graph(rng, SPARSE_N, 0.5)
    graphs[f"grid{GRID_R}"] = nstree.truncate(generators.grid(), GRID_R)
    for name, g in graphs.items():
        r = rng.choice(g.vertices)
        bfs = bfs_parent(g, r)
        dfs = random_dfs_parent(rng, g, r)
        t_bfs = nstree.RootedTree(r, bfs)
        t_dfs = nstree.RootedTree(r, dfs)
        sets = []
        for j in range(CHAIN_SETS):
            if j % 2 == 0:
                v = rng.choice(g.vertices)
                path = [v]
                while path[-1] != r:
                    path.append(dfs[path[-1]])
                sets.append(frozenset(rng.sample(path, min(8, len(path)))))
            else:
                sets.append(frozenset(rng.sample(g.vertices, 8)))
        on_dfs = {"root": r, "parent": dfs}
        on_bfs = {"root": r, "parent": bfs}
        ops += [
            Op(f"RootedTree bfs+dfs {name}",
               lambda r=r, b=bfs, d=dfs: (nstree.RootedTree(r, b), nstree.RootedTree(r, d)),
               lambda ts: tuple(tree_plain(t) for t in ts), "builds", name,
               {"root": r, "parents": (bfs, dfs)}),
            Op(f"dfs_nst {name}", lambda g=g, r=r: nstree.dfs_nst(g, r),
               lambda t: {"parent": t.parent_map}, "dfs", name, {"root": r}),
            Op(f"levels_of dfs {name}", lambda t=t_dfs: nstree.levels_of(t),
               lambda c: tuple(tuple(sorted(x)) for x in c.sets), "levels", name, on_dfs),
            Op(f"is_normal dfs {name}", lambda g=g, t=t_dfs: nstree.is_normal(g, t),
               normality_plain, "is_normal", name, on_dfs),
            Op(f"is_normal bfs {name}", lambda g=g, t=t_bfs: nstree.is_normal(g, t),
               normality_plain, "is_normal", name, on_bfs),
        ]
        for k in range(0, len(sets), CHAIN_BATCH):
            batch = sets[k:k + CHAIN_BATCH]
            ops.append(Op(f"is_chain x{len(batch)} {name}",
                          lambda t=t_dfs, s=batch: [nstree.is_chain(t, x) for x in s], tuple,
                          "chains", name, dict(on_dfs, sets=batch)))
    return Workload(graphs, ops)


def fattk(rng: random.Random, tmp: Path) -> Workload:
    """Greedy fat-TK routing and verification, and bounded dispersedness."""
    graphs: dict[str, nstree.Graph] = {}
    ops: list[Op] = []

    def add_find(name, branch, m):
        g = graphs[name]
        ops.append(Op(f"find {name} {branch} m={m}",
                      lambda g=g, b=branch, m=m: find_and_verify(g, b, m), find_plain,
                      "find", name, {"branch": tuple(sorted(branch)), "m": m}))

    for n, m, r in ((3, 2, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3)):
        name = f"fat-tk-gen({n},{m})r{r}"
        graphs[name] = nstree.truncate(generators.fat_tk(n, m), r)
        add_find(name, tuple(range(n)), m)
        add_find(name, tuple(rng.sample(graphs[name].vertices, n)), m)
    for i in range(80):
        name = f"r40-{i}"
        graphs[name] = random_graph(rng, 40, 2.0)
        for _ in range(2):
            add_find(name, tuple(rng.sample(range(40), 3)), 2)
    for i in range(40):
        name = f"r8-{i}"
        g = graphs[name] = random_graph(rng, 8, 0.75)
        probe = (rng.randrange(8),)
        params = {"probe": probe, "n": 3, "m": 2, "s": 1, "budget": 2}
        ops.append(Op(f"is_dispersed {name} probe={probe}",
                      lambda g=g, p=probe: nstree.is_dispersed(g, p, 3, 2, 1, search_budget=2),
                      verdict_plain, "dispersed", name, params))
    return Workload(graphs, ops)


# ---- the CLI ---------------------------------------------------------------


def run_cli(root: Path, argv: list[str]) -> tuple[int, str]:
    """One `python -m nstree.cli` child, waited for."""
    proc = subprocess.run(
        [sys.executable, "-m", "nstree.cli", *argv],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout


def main_in_process(argv: list[str]) -> tuple[int, str]:
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# fat-TK(n, m) searches piped into verification: a fifth of the cli
# operations, so that op_p90_ms falls inside their latencies rather than
# on the edge between them and the single commands
PIPELINES = ((3, 2), (4, 2), (3, 3))


def cli_workload(rng: random.Random, tmp: Path) -> Workload:
    """One CLI child per operation on small inputs; start-up and io show here."""
    graphs = {
        "grid5": nstree.truncate(generators.grid(), 5),
        "grid6": nstree.truncate(generators.grid(), 6),
        "fat-tk-gen(3,2)r3": nstree.truncate(generators.fat_tk(3, 2), 3),
        "fat-tk-gen(4,2)r3": nstree.truncate(generators.fat_tk(4, 2), 3),
        "fat-tk-gen(3,3)r3": nstree.truncate(generators.fat_tk(3, 3), 3),
        "ra": random_graph(rng, 30, 0.6),
        "rb": random_graph(rng, 40, 0.5),
        "rc": random_graph(rng, 60, 0.8),
        "small": random_graph(rng, 9, 1.0),
    }
    files = {}
    for name in ("ra", "rb", "rc", "small"):
        g = graphs[name]
        files[name] = str(tmp / f"{name}.json")
        Path(files[name]).write_text(json.dumps(
            {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}))
    r = rng.randrange(60)
    trees = {"dfs": random_dfs_parent(rng, graphs["rc"], r), "bfs": bfs_parent(graphs["rc"], r)}
    for name, parent in trees.items():
        files[name] = str(tmp / f"{name}.json")
        Path(files[name]).write_text(json.dumps(
            {"root": r, "parent": {str(k): p for k, p in parent.items()}}))

    # (argv, checker rule, graph, params, JSON output -> plain output)
    commands: list[tuple[list[str], str, str | None, dict, Callable]] = []
    r5 = rng.choice(graphs["grid5"].vertices)
    ra_root, rb_root = rng.randrange(30), rng.randrange(40)
    targets = frozenset(rng.sample(range(40), 2))
    commands += [
        (["omega", "--gen", "grid", "--radius", "5", "--root", str(r5)],
         "trace", "grid5", {"root": r5}, trace_json_plain),
        (["omega", "--input", files["ra"], "--root", str(ra_root), "--kappa-small", "2"],
         "trace", "ra", {"root": ra_root, "kappa_small": 2}, trace_json_plain),
        (["omega", "--input", files["rb"], "--root", str(rb_root), "--budget", "2"],
         "trace", "rb", {"root": rb_root, "budget": 2}, trace_json_plain),
        (["local", "--input", files["rb"], "--root", str(rb_root),
          "--targets", ",".join(map(str, sorted(targets)))],
         "trace", "rb", {"root": rb_root, "targets": targets}, trace_json_plain),
    ]
    v, w = rng.sample(range(30), 2)
    w6 = rng.choice(graphs["grid6"].vertices[1:])
    a = rng.randrange(30)
    b = tuple(sorted(rng.sample([x for x in range(30) if x != a and not graphs["ra"].has_edge(a, x)], 2)))
    probe = (rng.randrange(9),)
    commands += [
        (["kappa", "--input", files["ra"], "--pair", str(v), str(w)],
         "kappa", "ra", {"pair": (v, w)}, _kappa_json),
        (["kappa", "--gen", "grid", "--radius", "6", "--pair", "0", str(w6)],
         "kappa", "grid6", {"pair": (0, w6)}, _kappa_json),
        (["separator", "--input", files["ra"], "--a", str(a), "--b", ",".join(map(str, b))],
         "separator", "ra", {"a": (a,), "b": b}, lambda o: {"separator": tuple(o["separator"]), "size": o["size"]}),
        (["check-normal", "--input", files["rc"], "--tree", files["dfs"]],
         "is_normal", "rc", {"root": r, "parent": trees["dfs"]}, _normal_json),
        (["check-normal", "--input", files["rc"], "--tree", files["bfs"]],
         "is_normal", "rc", {"root": r, "parent": trees["bfs"]}, _normal_json),
        (["levels", "--tree", files["dfs"]],
         "levels", "rc", {"root": r, "parent": trees["dfs"]},
         lambda o: tuple(tuple(c) for c in o["levels"])),
        (["dispersed", "--input", files["small"], "--probe", str(probe[0]),
          "--n", "3", "--m", "2", "--s", "1", "--search-budget", "2"],
         "dispersed", "small", {"probe": probe, "n": 3, "m": 2, "s": 1, "budget": 2}, _verdict_json),
        (["gen-list"], "genlist", None, {}, lambda o: tuple(o["generators"])),
    ]

    root = Path(nstree.__file__).resolve().parents[2]
    runners = (lambda argv: run_cli(root, argv), main_in_process)
    ops: list[Op] = []
    in_process: list[Op] = []
    for dest, run in zip((ops, in_process), runners):
        for argv, kind, gname, params, conv in commands:
            extra = None
            if kind == "trace":
                extra = lambda res, g=graphs[gname]: {
                    "families": families(g, trace_json_plain(json.loads(res[1]))["steps"], {})}
            dest.append(Op(" ".join(argv).replace(str(tmp) + "/", ""), lambda a=argv, run=run: run(a),
                           _cli_plain(conv), "cli", gname, {"kind": kind, **params}, extra))
        for n, m in PIPELINES:
            gname = f"fat-tk-gen({n},{m})r3"
            dest.append(Op(f"fat-tk-find | fat-tk-verify {gname}",
                           _pipeline(run, n, m, str(tmp / f"cert{n}{m}.json")), _pipeline_plain,
                           "cli", gname, {"kind": "find", "branch": tuple(range(n)), "m": m}))
    return Workload(graphs, ops, in_process)


def _pipeline(run, n: int, m: int, cert_file: str) -> Callable[[], tuple]:
    """fat-tk-find, its certificate handed on to fat-tk-verify."""
    gen = ["--gen", f"fat-tk-gen({n},{m})", "--radius", "3"]
    find = ["fat-tk-find", *gen, "--branch", ",".join(map(str, range(n))), "--m", str(m)]
    verify = ["fat-tk-verify", *gen, "--cert", cert_file]

    def call():
        code, out = run(find)
        if code != 0:
            return code, out, None
        Path(cert_file).write_text(out)
        return code, out, run(verify)

    return call


def _kappa_json(o: dict) -> dict:
    return {"kappa": o["kappa"], "paths": tuple(tuple(p) for p in o["paths"])}


def _normal_json(o: dict) -> tuple:
    w = o["witness"]
    return o["normal"], None if w is None else (*w["ends"], tuple(w["path"]))


def _verdict_json(o: dict) -> dict:
    return {
        "dispersed": o["dispersed"],
        "examined": [
            ((tuple(e["certificate"]["branch"]), e["certificate"]["m"],
              _json_paths(e["certificate"]["paths"])), tuple(e["separator"]))
            for e in o["examined"]
        ],
    }


def _json_paths(obj: dict) -> dict:
    out = {}
    for key, plist in obj.items():
        a, b = (int(x) for x in key.split(","))
        out[(a, b)] = tuple(tuple(p) for p in plist)
    return out


def _cli_plain(conv):
    def plain(res):
        code, text = res
        return {"exit": code, "out": conv(json.loads(text))}

    return plain


def _pipeline_plain(res) -> dict:
    code, text, verified = res
    obj = json.loads(text)
    if code != 0:
        out = {"cert": None, "pair": tuple(obj["pair"]), "routed": obj["routed"],
               "separator": tuple(obj["separator"])}
    else:
        vcode, vtext = verified
        out = {"cert": (tuple(obj["branch"]), obj["m"], _json_paths(obj["paths"])),
               "verdicts": (json.loads(vtext)["ok"] and vcode == 0,)}
    return {"exit": code, "out": out}


WORKLOADS = {"sweep": sweep, "order": order, "fattk": fattk, "cli": cli_workload}
