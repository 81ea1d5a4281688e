"""Reading and writing graphs, trees, traces, and certificates.

All JSON emitted here is deterministic: containers are sorted and dumps
use sorted keys, so identical inputs give byte-identical output. Ids
read from JSON must be exact ints (type(x) is int): true and false load
as bool, an int subclass, and are refused. Ids written as text are read
by parse_id, which lives in graph and is re-exported here.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .construct import DispersedCover, RunTrace
from .fattk import DispersednessVerdict, FatTKCertificate, FatTKFailure
from .graph import Graph, parse_id
from .tree import RootedTree


def _json(text: str) -> Any:
    """The value JSON text holds; malformed text is an input error, and so
    are a key repeated in one object (json.loads would keep its last
    value) and nesting too deep for the decoder."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # malformed, a repeated key, an int of too many digits
        if str(exc).startswith("Exceeds the limit"):
            # Python's own message advises sys.set_int_max_str_digits(),
            # a call no CLI user can make
            exc = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def _unmarked(text: str) -> str:
    """text without one leading byte-order mark (U+FEFF), which a file
    decoded as plain UTF-8 keeps; JSON text would not parse with it, and
    the format sniffing would take the file for an edge list."""
    return text[1:] if text.startswith("\ufeff") else text


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _id_list(x: Any) -> bool:
    """Is x a JSON list of exact-int ids?"""
    return isinstance(x, list) and all(type(v) is int for v in x)


def graph_to_obj(g: Graph) -> dict[str, Any]:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
    }


def graph_from_obj(obj: Any) -> Graph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValueError('graph JSON must be an object with "vertices" and "edges"')
    vertices = obj["vertices"]
    edges = obj["edges"]
    if not _id_list(vertices):
        raise ValueError("graph vertices must be a list of integers")
    if not isinstance(edges, list):
        raise ValueError("graph edges must be a list of pairs")
    pairs = []
    for e in edges:
        if not (_id_list(e) and len(e) == 2):
            raise ValueError(f"bad edge entry {e!r}; expected [u, v]")
        pairs.append((e[0], e[1]))
    return Graph(vertices, pairs)


def graph_from_edge_list(text: str) -> Graph:
    """Plain text: one edge "u v" per line; a lone id is an isolated vertex."""
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            ids = [parse_id(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: expected decimal ids, got {raw!r}") from None
        if len(ids) == 1:
            vertices.append(ids[0])
        elif len(ids) == 2:
            edges.append((ids[0], ids[1]))
        else:
            raise ValueError(f"line {lineno}: expected 'u v' or a lone vertex, got {raw!r}")
    return Graph(vertices, edges)


def graph_to_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges]
    lines.extend(str(v) for v, row in g._adj.items() if not row)
    return "\n".join(lines) + "\n"


def loads_graph(text: str) -> Graph:
    """Parse a graph from JSON or from the edge-list format, sniffing."""
    text = _unmarked(text)
    if text.lstrip().startswith("{"):
        return graph_from_obj(_json(text))
    return graph_from_edge_list(text)


def graph_to_dot(g: Graph) -> str:
    lines = ["graph {"]
    for v, row in g._adj.items():
        if not row:
            lines.append(f'  "{v}";')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_obj(t: RootedTree) -> dict[str, Any]:
    return {
        "root": t.root,
        "parent": {str(v): p for v, p in sorted(t.parent_map.items())},
    }


def tree_from_obj(obj: Any) -> RootedTree:
    """Accept {"root", "parent"}, or the trace object of omega, local and
    cover-nst, whose "tree" is one."""
    if isinstance(obj, dict) and "root" not in obj and "tree" in obj:
        obj = obj["tree"]
    if not isinstance(obj, dict) or "root" not in obj or "parent" not in obj:
        raise ValueError('tree JSON must be an object with "root" and "parent"')
    root = obj["root"]
    if type(root) is not int:
        raise ValueError("tree root must be an integer")
    parent_obj = obj["parent"]
    if not isinstance(parent_obj, dict):
        raise ValueError("tree parent must map child ids to parent ids")
    parent: dict[int, int] = {}
    for k, p in parent_obj.items():
        try:
            child = parse_id(k)
        except ValueError:
            raise ValueError(f"bad child id {k!r} in parent map") from None
        if type(p) is not int:
            raise ValueError(f"bad parent {p!r} for child {k}")
        parent[child] = p
    return RootedTree(root, parent)


def loads_tree(text: str) -> RootedTree:
    return tree_from_obj(_json(_unmarked(text)))


def tree_to_dot(t: RootedTree, g: Graph | None = None) -> str:
    """Tree edges solid; when the host graph is given, its remaining
    edges between tree vertices appear dashed."""
    lines = ["graph {", f'  "{t.root}" [shape=doublecircle];']
    tree_edges = set(t.edges())
    for u, v in sorted(tree_edges):
        lines.append(f'  "{u}" -- "{v}";')
    if g is not None:
        for u, v in g.edges:
            if u in t and v in t and (u, v) not in tree_edges:
                lines.append(f'  "{u}" -- "{v}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_to_obj(trace: RunTrace) -> dict[str, Any]:
    return {
        "status": trace.status,
        "tree": tree_to_obj(trace.tree),
        "steps": [
            {
                "step": s.step,
                "component": sorted(s.component),
                "attach": s.attach_vertex,
                "entry": s.entry_vertex,
                "targets": sorted(s.targets),
                "selections": [
                    {"pair": list(pair), "index": k} for pair, k in s.selections
                ],
                "fallback": s.fallback_vertex,
                "added": [list(e) for e in s.added],
            }
            for s in trace.steps
        ],
    }


def cert_to_obj(cert: FatTKCertificate) -> dict[str, Any]:
    return {
        "branch": list(cert.branch),
        "m": cert.m,
        "paths": {
            f"{a},{b}": [list(p) for p in cert.paths_for(a, b)]
            for a, b in cert.pair_keys()
        },
    }


def cert_from_obj(obj: Any) -> FatTKCertificate:
    if not isinstance(obj, dict) or not {"branch", "m", "paths"} <= set(obj):
        raise ValueError('certificate JSON needs "branch", "m" and "paths"')
    branch = obj["branch"]
    m = obj["m"]
    if not _id_list(branch):
        raise ValueError("certificate branch must be a list of integers")
    if type(m) is not int:
        raise ValueError("certificate m must be an integer")
    paths: dict[tuple[int, int], list[list[int]]] = {}
    if not isinstance(obj["paths"], dict):
        raise ValueError("certificate paths must map pair keys to path lists")
    for key, plist in obj["paths"].items():
        try:
            a, b = (parse_id(x) for x in key.split(","))
        except ValueError:
            raise ValueError(f'bad pair key {key!r}; expected "a,b"') from None
        if not isinstance(plist, list) or not all(map(_id_list, plist)):
            raise ValueError(f"paths for {key} must be lists of integer lists")
        # "1,2" and "2,1" name one pair; the certificate would keep the last
        if (a, b) in paths or (b, a) in paths:
            raise ValueError(f"pair key {key!r} names a pair already listed")
        paths[(a, b)] = plist
    return FatTKCertificate(branch, m, paths)


def loads_cert(text: str) -> FatTKCertificate:
    return cert_from_obj(_json(_unmarked(text)))


def failure_to_obj(failure: FatTKFailure) -> dict[str, Any]:
    return {
        "found": False,
        "pair": list(failure.pair),
        "routed": failure.routed,
        "separator": sorted(failure.separator),
    }


def verdict_to_obj(verdict: DispersednessVerdict) -> dict[str, Any]:
    return {
        "dispersed": verdict.dispersed,
        "bound": verdict.bound,
        "examined": [
            {"certificate": cert_to_obj(cert), "separator": sorted(sep)}
            for cert, sep in verdict.examined
        ],
    }


def cover_from_obj(obj: Any) -> DispersedCover:
    """Accept a bare list of vertex lists, {"cover": [...]}, or the
    {"levels": [...]} that cover_to_obj writes."""
    if isinstance(obj, dict):
        obj = obj.get("cover", obj.get("levels"))
    if not isinstance(obj, list) or not all(map(_id_list, obj)):
        raise ValueError("cover must be a list of integer lists")
    return DispersedCover(tuple(frozenset(s) for s in obj))


def loads_cover(text: str) -> DispersedCover:
    return cover_from_obj(_json(_unmarked(text)))


def cover_to_obj(cover: DispersedCover) -> dict[str, Any]:
    return {"levels": [sorted(s) for s in cover.sets]}


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
