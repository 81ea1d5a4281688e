"""Spans around the calls into each nstree layer, recorded from outside.

install() replaces every public function of the layer modules by a
timing wrapper, in every module that bound it (`from .x import y` copies
the name, so `construct.max_independent_paths` and
`connectivity.max_independent_paths` are patched alike), plus the
constructors of Graph ("graph.build") and RootedTree ("tree.RootedTree").
A span is (name, parent, start, end); spans live in flat in-memory lists
until the round is summarised. A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("graph", "generators", "connectivity", "tree", "construct", "fattk", "io", "cli")


def _pair_key(args, _result):
    g, v, w = args[:3]
    return id(g), v, w


def _found(_args, result) -> bool:
    return hasattr(result, "branch")


# extra facts recorded with a span: the vertex pair of a connectivity
# query, and whether a routing attempt produced a certificate
NOTES = {
    "connectivity.kappa": _pair_key,
    "connectivity.max_independent_paths": _pair_key,
    "fattk.find_fat_tk": _found,
    "io.dumps": lambda _args, result: len(result.encode()),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.note: dict[int, object] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        notes, note = self.note, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if note is not None:
                notes[i] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        mods = [sys.modules["nstree"]] + [sys.modules[f"nstree.{layer}"] for layer in LAYERS]
        public = {}
        for layer, mod in zip(LAYERS, mods[1:]):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and attr[0] != "_":
                    public[obj] = f"{layer}.{attr}"
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in public:
                    self._patch(mod, attr, self.wrap(obj, public[obj]))
        graph, tree = sys.modules["nstree.graph"], sys.modules["nstree.tree"]
        self._patch(graph.Graph, "__init__", self.wrap(graph.Graph.__init__, "graph.build"))
        self._patch(tree.RootedTree, "__init__", self.wrap(tree.RootedTree.__init__, "tree.RootedTree"))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        for lst in (self.name, self.parent, self.start, self.end):
            del lst[:]
        self.note.clear()

    def spans(self) -> dict:
        """The recorded spans in a JSON-ready form."""
        return {
            "names": self.names,
            "spans": [list(s) for s in zip(self.name, self.parent, self.start, self.end)],
        }

    def summary(self) -> dict:
        """Calls and self time per span name, and the connectivity queries
        made inside is_dispersed, for the spans recorded so far."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        disp = self._ids.get("fattk.is_dispersed", -2)
        kappa = self._ids.get("connectivity.kappa", -2)
        inside = [False] * n
        pairs = []
        for i in range(n):
            nm = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[nm] += 1
            self_s[nm] += dur - child[i]
            total_s[nm] += dur
            p = self.parent[i]
            inside[i] = self.name[i] == disp or (p >= 0 and inside[p])
            if inside[i] and self.name[i] == kappa:
                pairs.append(self.note[i])
        noted: Counter = Counter()
        for i, v in self.note.items():
            if not isinstance(v, tuple):  # pair keys are gathered above, the rest add up
                noted[self.names[self.name[i]]] += v
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "dispersed_kappa": pairs,
                "found": noted["fattk.find_fat_tk"], "bytes_out": noted["io.dumps"]}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


CONNECTIVITY = ("kappa", "max_independent_paths", "min_separator", "min_blocking_set")

# per-layer metrics: name -> (unit, better)
METRICS = {}
for _f in ("",) + tuple("." + f for f in CONNECTIVITY):
    METRICS.update({
        f"connectivity{_f}.calls": ("count", "lower"),
        f"connectivity{_f}.self_s": ("s", "lower"),
        f"connectivity{_f}.ms_per_call": ("ms", "lower"),
        f"connectivity{_f}.share": ("ratio", "lower"),
    })
METRICS.update({
    "graph.components.calls": ("count", "lower"),
    "graph.components.self_s": ("s", "lower"),
    "graph.induced_subgraph.calls": ("count", "lower"),
    "graph.induced_subgraph.self_s": ("s", "lower"),
    "graph.build.self_s": ("s", "lower"),
    "tree.RootedTree.builds": ("count", "lower"),
    "tree.RootedTree.self_s": ("s", "lower"),
    "tree.is_normal.self_s": ("s", "lower"),
    "tree.tree_leq.calls": ("count", "lower"),
    "tree.is_chain.calls": ("count", "lower"),
    "tree.down_closure.calls": ("count", "lower"),
    "construct.extensions": ("count", "lower"),
    "construct.sweeps": ("count", "lower"),
    "construct.self_s": ("s", "lower"),
    "construct.dfs_nst.self_s": ("s", "lower"),
    "fattk.find_fat_tk.calls": ("count", "lower"),
    "fattk.find_fat_tk.self_s": ("s", "lower"),
    "fattk.route_yield": ("ratio", "higher"),
    "fattk.is_dispersed.kappa_calls": ("count", "lower"),
    "fattk.is_dispersed.pair_reuse": ("ratio", "lower"),
    "fattk.verify_fat_tk.self_s": ("s", "lower"),
    "generators.truncate.self_s": ("s", "lower"),
    "io.self_s": ("s", "lower"),
    "io.bytes_out": ("bytes", "lower"),
    "cli.interp_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.startup_share": ("ratio", "lower"),
    "trace.round_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# metrics that must repeat exactly between rounds and between runs
EXACT = {name for name, (unit, _b) in METRICS.items() if unit in ("count", "bytes")} | {
    "fattk.route_yield",
    "fattk.is_dispersed.pair_reuse",
}


def round_metrics(s: dict, steps: list) -> dict:
    """Per-layer metrics of one traced round from its span summary.

    steps holds, for every sweep run of the round, its list of sweep
    indices, one per extension.
    """
    calls, self_s = s["calls"], s["self_s"]
    op_s = s["total_s"]["op"]
    out = {}

    def layer(prefix: str, names) -> None:
        c = sum(calls[n] for n in names)
        t = sum(self_s[n] for n in names)
        out.update({
            f"{prefix}.calls": c,
            f"{prefix}.self_s": t,
            f"{prefix}.ms_per_call": _ratio(1000 * t, c),
            f"{prefix}.share": _ratio(t, op_s),
        })

    layer("connectivity", [f"connectivity.{f}" for f in CONNECTIVITY])
    for f in CONNECTIVITY:
        layer(f"connectivity.{f}", [f"connectivity.{f}"])
    pairs = s["dispersed_kappa"]
    construct = [n for n in calls if n.startswith("construct.")]
    out.update({
        "graph.components.calls": calls["graph.components"],
        "graph.components.self_s": self_s["graph.components"],
        "graph.induced_subgraph.calls": calls["graph.induced_subgraph"],
        "graph.induced_subgraph.self_s": self_s["graph.induced_subgraph"],
        "tree.RootedTree.builds": calls["tree.RootedTree"],
        "tree.RootedTree.self_s": self_s["tree.RootedTree"],
        "tree.is_normal.self_s": self_s["tree.is_normal"],
        "tree.tree_leq.calls": calls["tree.tree_leq"],
        "tree.is_chain.calls": calls["tree.is_chain"],
        "tree.down_closure.calls": calls["tree.down_closure"],
        "construct.extensions": sum(len(x) for x in steps),
        "construct.sweeps": sum(x[-1] + 1 for x in steps if x),
        "construct.self_s": sum(self_s[n] for n in construct),
        "construct.dfs_nst.self_s": self_s["construct.dfs_nst"],
        "fattk.find_fat_tk.calls": calls["fattk.find_fat_tk"],
        "fattk.find_fat_tk.self_s": self_s["fattk.find_fat_tk"],
        "fattk.route_yield": _ratio(s["found"], calls["fattk.find_fat_tk"]),
        "fattk.is_dispersed.kappa_calls": len(pairs),
        "fattk.is_dispersed.pair_reuse": _ratio(len(pairs), len(set(pairs))),
        "fattk.verify_fat_tk.self_s": self_s["fattk.verify_fat_tk"],
        "io.self_s": sum(t for n, t in self_s.items() if n.startswith("io.")),
        "io.bytes_out": s["bytes_out"],
        "cli.main_ms": _ratio(1000 * s["total_s"]["cli.main"], calls["cli.main"]),
    })
    return out
