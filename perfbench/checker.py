"""Independent checker for the outputs of the perfbench workloads.

Shares no code with nstree and never imports it: outputs arrive as plain
data (ints, tuples, dicts, lists). Tree order comes from this module's
own DFS-interval ancestor test, fat-TK certificates are judged by this
module's own rules, and every connectivity number is recomputed with
networkx (Menger's theorem via unit-capacity flow).

Run as a script it serves the benchmark: it reads pickled requests from
stdin and answers each with a pickled list of problems. Keeping it in a
child process keeps networkx out of the measured process, so it adds
nothing to that process's time or peak memory.
"""

from __future__ import annotations

import pickle
import sys
from itertools import combinations

import networkx as nx
from networkx.algorithms.connectivity import (
    build_auxiliary_node_connectivity,
    local_node_connectivity,
)
from networkx.algorithms.flow import build_residual_network


class Bad(Exception):
    """An output that breaks a rule; the message says which."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Bad(msg)


class Host:
    """A host graph with memoised networkx connectivity."""

    def __init__(self, vertices, edges) -> None:
        self.g = nx.Graph()
        self.g.add_nodes_from(vertices)
        self.g.add_edges_from(edges)
        self.vertices = frozenset(self.g.nodes)
        self._aux = None
        self._kappa: dict[tuple[int, int], int] = {}

    def has_edge(self, u, v) -> bool:
        return self.g.has_edge(u, v)

    def nbrs(self, v):
        return self.g.adj[v]

    def kappa(self, v: int, w: int) -> int:
        key = (v, w) if v < w else (w, v)
        if key not in self._kappa:
            if self._aux is None:
                aux = build_auxiliary_node_connectivity(self.g)
                self._aux = (aux, build_residual_network(aux, "capacity"))
            aux, res = self._aux
            self._kappa[key] = local_node_connectivity(self.g, v, w, auxiliary=aux, residual=res)
        return self._kappa[key]

    def blocking_size(self, a, b) -> int:
        """Fewest vertices, ends allowed, meeting every a-b path."""
        h = self.g.copy()
        h.add_edges_from(("src", x) for x in a)
        h.add_edges_from((x, "snk") for x in b)
        return local_node_connectivity(h, "src", "snk")

    def separator_size(self, a, b) -> int:
        """Fewest vertices outside a and b meeting every a-b path."""
        side = {x: "src" for x in a} | {x: "snk" for x in b}
        h = nx.Graph()
        h.add_edges_from((side.get(u, u), side.get(v, v)) for u, v in self.g.edges
                         if side.get(u, u) != side.get(v, v))
        return local_node_connectivity(h, "src", "snk")

    def connects(self, a, b, removed) -> bool:
        """Is there an a-b path in the graph minus `removed`?"""
        start = set(a) - set(removed)
        goal = set(b) - set(removed)
        seen = set(start)
        stack = list(start)
        while stack:
            x = stack.pop()
            if x in goal:
                return True
            for y in self.nbrs(x):
                if y not in seen and y not in removed:
                    seen.add(y)
                    stack.append(y)
        return False


class Tree:
    """Rooted tree from a parent map, with O(1) ancestor tests.

    Each vertex gets the interval [pre, post] of a depth-first walk; u is
    at or below v's ancestors exactly when its interval contains v's.
    """

    def __init__(self, root: int, parent: dict[int, int]) -> None:
        expect(root not in parent, f"root {root} has a parent")
        children: dict[int, list[int]] = {root: []}
        for v, p in parent.items():
            expect(p == root or p in parent, f"parent {p} of {v} is not a tree vertex")
            children.setdefault(p, []).append(v)
            children.setdefault(v, [])
        self.root = root
        self.parent = dict(parent)
        self.pre: dict[int, int] = {}
        self.post: dict[int, int] = {}
        self.depth: dict[int, int] = {root: 0}
        clock = 0
        stack = [(root, iter(children[root]))]
        self.pre[root] = clock
        while stack:
            v, it = stack[-1]
            c = next(it, None)
            if c is None:
                clock += 1
                self.post[v] = clock
                stack.pop()
            else:
                clock += 1
                self.pre[c] = clock
                self.depth[c] = self.depth[v] + 1
                stack.append((c, iter(children[c])))
        expect(len(self.pre) == len(parent) + 1, "parent map has a cycle")
        self.vertices = frozenset(self.pre)

    def leq(self, u: int, v: int) -> bool:
        return self.pre[u] <= self.pre[v] and self.post[v] <= self.post[u]

    def comparable(self, u: int, v: int) -> bool:
        return self.leq(u, v) or self.leq(v, u)

    def is_chain(self, s) -> bool:
        vs = sorted(s, key=lambda x: self.depth[x])
        return all(self.leq(a, b) for a, b in zip(vs, vs[1:]))


def tree_in(host: Host, root: int, parent: dict[int, int]) -> Tree:
    t = Tree(root, parent)
    expect(t.vertices <= host.vertices, "tree has vertices outside the graph")
    for v, p in parent.items():
        expect(host.has_edge(v, p), f"tree edge {v}-{p} is not a graph edge")
    return t


def outside_components(host: Host, t: Tree) -> list[frozenset[int]]:
    rest = host.g.subgraph(host.vertices - t.vertices)
    return [frozenset(c) for c in nx.connected_components(rest)]


def tree_nbrs(host: Host, t: Tree, d) -> set[int]:
    return {y for x in d for y in host.nbrs(x) if y in t.vertices}


def normal(host: Host, t: Tree) -> bool:
    """Every T-path has comparable ends: chords and component neighbourhoods."""
    for u, v in host.g.edges:
        if u in t.vertices and v in t.vertices and not t.comparable(u, v):
            return False
    return all(t.is_chain(tree_nbrs(host, t, d)) for d in outside_components(host, t))


def check_family(host: Host, v: int, w: int, paths) -> None:
    expect(len(paths) == host.kappa(v, w),
           f"family {v}-{w} has {len(paths)} paths, Menger says {host.kappa(v, w)}")
    used: set[int] = set()
    for p in paths:
        expect(p[0] == v and p[-1] == w, f"path {p} does not run from {v} to {w}")
        expect(len(set(p)) == len(p), f"path {p} repeats a vertex")
        for x, y in zip(p, p[1:]):
            expect(host.has_edge(x, y), f"path {p} uses a non-edge {x}-{y}")
        inner = set(p[1:-1])
        expect(not inner & used, f"family {v}-{w} paths share {sorted(inner & used)}")
        used |= inner


def check_trace(host: Host, p: dict, out: dict) -> None:
    """A sweep run: growth order, components, selections, status, normality."""
    root = p["root"]
    depth = {root: 0}
    union: dict[int, int] = {}
    sweep = -1
    for st in out["steps"]:
        expect(st["step"] in (sweep, sweep + 1), f"sweep index jumps to {st['step']}")
        sweep = st["step"]
        d = set(st["component"])
        expect(not d & depth.keys(), "extension component meets the tree")
        expect(nx.is_connected(host.g.subgraph(d)), "extension component is not connected")
        expect(all(y in d or y in depth for x in d for y in host.nbrs(x)),
               "extension component is not a whole component of G - T")
        if "targets" in p:
            expect(d & p["targets"], "local run extended into a component without targets")
        nbrs = {y for x in d for y in host.nbrs(x) if y in depth}
        added = dict(st["added"])
        expect(set(added) <= d, "extension adds vertices outside its component")
        expect(added.get(st["entry"]) == st["attach"], "entry vertex not hung below attach vertex")
        expect(st["attach"] in nbrs and depth[st["attach"]] == max(depth[y] for y in nbrs),
               "attach vertex is not the deepest tree neighbour of the component")
        targets = set(st["targets"])
        for (v, w), k in st["selections"]:
            expect(v < w and v in nbrs and w in nbrs, f"selected pair {v},{w} not tree neighbours")
            fam = out["families"][(v, w)]
            check_family(host, v, w, fam)
            if p.get("kappa_small") is not None:
                expect(len(fam) <= p["kappa_small"], f"pair {v},{w} above kappa_small was used")
            expect(1 <= k <= len(fam), f"selection index {k} out of range")
            expect(all(not set(fam[i]) & d for i in range(k - 1)), "selection is not least-index")
            hit = set(fam[k - 1]) & d
            expect(hit and hit <= targets, f"selected path {k} of {v},{w} misses its targets")
        if st["fallback"] is not None:
            expect(st["fallback"] == min(d) and targets == {min(d)}, "bad fallback target")
        if "targets" in p:
            expect(min(p["targets"] & d) in targets, "least target of the component not chased")
        if "cover" in p:
            first = next(s for s in p["cover"] if s & d)
            expect(min(first & d) in targets, "least vertex of the first cover class not chased")
        expect(targets <= depth.keys() | added.keys(), "targets left outside the tree")
        pending = dict(added)
        while pending:
            ready = [v for v, q in pending.items() if q in depth]
            expect(ready, "added vertices do not hang from the tree")
            for v in ready:
                depth[v] = depth[pending.pop(v)] + 1
        union.update(added)
    expect(union == out["parent"], "trace steps do not rebuild the final tree")
    if "prefix_parent" in out:
        expect(out["prefix_parent"] == out["parent"], "prefix_tree(len(steps)) differs from the tree")
    t = tree_in(host, root, out["parent"])
    expect(normal(host, t), "final tree is not normal")
    sweeps = sweep + 1
    if t.vertices == host.vertices:
        expect(out["status"] == "spanning", f"spanning tree reported as {out['status']}")
    elif "targets" in p and p["targets"] <= t.vertices:
        expect(out["status"] == "target-covered", f"covered targets reported as {out['status']}")
    else:
        expect(out["status"] == "budget-exhausted" and sweeps == p.get("budget"),
               f"partial tree after {sweeps} sweeps reported as {out['status']}")


def check_is_normal(host: Host, root: int, parent: dict, verdict: bool, witness) -> None:
    t = tree_in(host, root, parent)
    own = normal(host, t)
    expect(verdict == own, f"is_normal says {verdict}, the interval test says {own}")
    if witness is None:
        expect(verdict, "non-normal verdict without a witness")
        return
    u, v, path = witness
    expect(not verdict, "normal verdict with a witness")
    expect(u in t.vertices and v in t.vertices and not t.comparable(u, v),
           f"witness ends {u},{v} are comparable")
    expect(path[0] == u and path[-1] == v and len(set(path)) == len(path), "witness path malformed")
    expect(all(host.has_edge(x, y) for x, y in zip(path, path[1:])), "witness path uses a non-edge")
    expect(not set(path[1:-1]) & t.vertices, "witness path runs through the tree")


def check_builds(host: Host, p: dict, out) -> None:
    for parent, tree in zip(p["parents"], out, strict=True):
        t = tree_in(host, p["root"], parent)
        expect(tree["parent"] == parent, "tree parent map differs from its input")
        expect(tree["depth"] == t.depth, "tree depths differ from the interval walk")


def check_dfs(host: Host, p: dict, out: dict) -> None:
    t = tree_in(host, p["root"], out["parent"])
    expect(t.vertices == host.vertices, "dfs_nst tree does not span")
    expect(normal(host, t), "dfs_nst tree is not normal")


def check_chains(host: Host, p: dict, out) -> None:
    t = tree_in(host, p["root"], p["parent"])
    for s, ans in zip(p["sets"], out):
        expect(ans == t.is_chain(s), f"is_chain({sorted(s)}) answered {ans}")
    expect(len(out) == len(p["sets"]), "is_chain answers missing")


def check_levels(host: Host, p: dict, out) -> None:
    t = tree_in(host, p["root"], p["parent"])
    want: dict[int, set[int]] = {}
    for v, d in t.depth.items():
        want.setdefault(d, set()).add(v)
    expect([set(c) for c in out] == [want[d] for d in sorted(want)], "levels are not depth classes")
    for c in out:
        expect(not any(t.comparable(u, v) for u, v in combinations(c, 2)), "level is no antichain")


def cert_problem(host: Host, branch, m: int, paths: dict) -> str | None:
    """First violated fat-TK rule, or None for a valid certificate."""
    bset = set(branch)
    if len(bset) < 2 or len(bset) != len(branch) or m < 1 or not bset <= host.vertices:
        return "bad branch set or multiplicity"
    if set(paths) != set(combinations(sorted(branch), 2)):
        return "pair lists do not match the branch pairs"
    used: set[int] = set()
    for (a, b), plist in paths.items():
        if len(plist) != m:
            return f"pair {a},{b} has {len(plist)} paths"
        if sum(len(q) == 2 for q in plist) > 1:
            return f"pair {a},{b} uses its edge more than once"
        for q in plist:
            if len(q) < 2 or {q[0], q[-1]} != {a, b} or len(set(q)) != len(q):
                return f"path {q} is not a simple {a}-{b} path"
            if not all(host.has_edge(x, y) for x, y in zip(q, q[1:])):
                return f"path {q} uses a non-edge"
            inner = set(q[1:-1])
            if inner & (bset | used):
                return f"path {q} reuses a vertex"
            used |= inner
    return None


def check_find(host: Host, p: dict, out: dict) -> None:
    branch, m = p["branch"], p["m"]
    if out["cert"] is None:
        a, b = out["pair"]
        expect((a, b) in set(combinations(sorted(branch), 2)), "failure names a non-branch pair")
        expect(0 <= out["routed"] < m, f"failure after routing {out['routed']} of {m} paths")
        expect(out["routed"] <= host.kappa(a, b), "failure routed more paths than Menger allows")
        expect(not set(out["separator"]) & set(branch), "failure separator meets the branch set")
        return
    cb, cm, cpaths = out["cert"]
    expect(list(cb) == sorted(branch) and cm == m, "certificate for the wrong branch set")
    reason = cert_problem(host, cb, cm, cpaths)
    expect(reason is None, f"found certificate is invalid: {reason}")
    planted = [None, out["planted"]] if "planted" in out else [None]
    expect(len(out["verdicts"]) == len(planted), "verify_fat_tk verdicts missing")
    for verdict, paths in zip(out["verdicts"], planted):
        own = reason if paths is None else cert_problem(host, cb, cm, paths)
        expect(paths is None or own is not None, "planted certificate fault is no fault")
        expect(verdict == (own is None), f"verify_fat_tk says {verdict}, own rules say {own}")


def check_dispersed(host: Host, p: dict, out: dict) -> None:
    probe = set(p["probe"])
    sizes = []
    for (branch, m, paths), blocker in out["examined"]:
        reason = cert_problem(host, branch, m, paths)
        expect(reason is None and len(branch) == p["n"] and m == p["m"],
               f"examined certificate invalid: {reason}")
        cv = set(branch) | {x for q in paths.values() for path in q for x in path}
        want = host.blocking_size(probe, cv) if probe else 0
        expect(len(blocker) == want, f"blocker of size {len(blocker)}, min cut is {want}")
        expect(not host.connects(probe, cv, set(blocker)), "blocker does not block")
        sizes.append(len(blocker))
    expect(len(sizes) <= p["budget"], "more certificates examined than the budget allows")
    if out["dispersed"]:
        expect(all(k <= p["s"] for k in sizes), "dispersed despite a large blocker")
    else:
        expect(sizes and sizes[-1] > p["s"] and all(k <= p["s"] for k in sizes[:-1]),
               "not dispersed without a large final blocker")


def check_kappa(host: Host, p: dict, out: dict) -> None:
    v, w = p["pair"]
    check_family(host, v, w, out["paths"])
    expect(out["kappa"] == len(out["paths"]), "kappa differs from its family size")


def check_separator(host: Host, p: dict, out: dict) -> None:
    a, b = set(p["a"]), set(p["b"])
    sep = set(out["separator"])
    expect(not sep & (a | b), "separator meets a side")
    expect(not host.connects(a, b, sep), "separator does not separate")
    want = host.separator_size(a, b)
    expect(len(sep) == want == out["size"], f"separator of size {len(sep)}, Menger says {want}")


def check_cli(host: Host, p: dict, res: dict) -> None:
    """A CLI command: its exit status agrees with its output, which is
    then judged like the library's."""
    kind, out = p["kind"], res["out"]
    failed = {
        "is_normal": lambda: not out[0],
        "dispersed": lambda: not out["dispersed"],
        "find": lambda: out["cert"] is None,
    }.get(kind, lambda: False)()
    expect(res["exit"] == int(failed), f"exit status {res['exit']} for a {kind} output")
    if kind == "genlist":
        expect(out == GENERATORS, f"gen-list printed {out}")
        return
    if "families" in res:
        out = dict(out, families=res["families"])
    CHECKS[kind](host, p, out)


GENERATORS = ("binary-tree", "double-ray", "fat-tk-gen(n,m)", "grid", "ray")

CHECKS = {
    "cli": check_cli,
    "trace": check_trace,
    "is_normal": lambda host, p, out: check_is_normal(host, p["root"], p["parent"], *out),
    "builds": check_builds,
    "dfs": check_dfs,
    "chains": check_chains,
    "levels": check_levels,
    "find": check_find,
    "dispersed": check_dispersed,
    "kappa": check_kappa,
    "separator": check_separator,
}


def check(hosts: dict[str, Host], items) -> list[str]:
    """Check (label, kind, graph name, params, output) items; list the problems."""
    problems = []
    for label, kind, gname, params, out in items:
        try:
            CHECKS[kind](hosts.get(gname), params, out)
        except Bad as exc:
            problems.append(f"{label}: {exc}")
    return problems


def serve(inp, out) -> None:
    hosts: dict[str, Host] = {}
    while True:
        msg = pickle.load(inp)
        if msg is None:
            return
        graphs, items = msg
        for name, (vertices, edges) in graphs.items():
            hosts[name] = Host(vertices, edges)
        pickle.dump(check(hosts, items), out)
        out.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
