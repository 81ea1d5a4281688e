"""Command-line front end.

One subcommand per library operation. Graphs come from a file
(--input, JSON or edge-list) or from a built-in generator truncation
(--gen NAME --radius K). Results are printed as deterministic JSON, or
DOT where --format dot makes sense. Exit status: 0 on success, 1 when
a checked property fails to hold (non-normal tree, invalid or missing
certificate, not dispersed, inseparable sides), 2 on input errors,
which print one `error:` line on stderr, cut to 300 characters after
the prefix.

The NTK_LOG environment variable controls construction logging:
off (default), steps (one line per extension), full (per-pair
selection detail).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io
from .connectivity import InseparableError, max_independent_paths, min_separator
from .construct import dfs_nst, levels_of, local_normal_tree, nst_from_dispersed_cover, omega_nst
from .fattk import FatTKFailure, find_fat_tk, is_dispersed, verify_fat_tk
from .generators import BUILTIN_GENERATORS, make_generator, truncate
from .graph import Graph
from .tree import is_normal


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    if argv is None:
        argv = sys.argv[1:]
    # a known command needs its own parser alone; anything else is help or
    # an error whose usage line names every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, extra = _build_parser(command).parse_known_args(argv)
    if extra:
        _build_parser().parse_args(argv)  # exits with the top-level error
    handler = _COMMANDS[args.command][1]
    try:
        _parse_integers(args)
        # levels and gen-list declare no --input and take no graph
        g = _load_graph(args) if hasattr(args, "input") else None
        out, code = handler(args, g)
        sys.stdout.write(out if isinstance(out, str) else io.dumps(out))
        return code
    except (ValueError, OSError) as exc:
        msg = str(exc)  # cut, since it may quote a whole input line
        print(f"error: {msg if len(msg) <= 300 else msg[:297] + '...'}", file=sys.stderr)
        return 2


# options holding integers; argparse leaves them as text so that
# _parse_integers can reject a malformed one as an input error
_INTEGER_OPTIONS = ("radius", "root", "budget", "kappa_small", "pair", "m", "n", "s", "search_budget")


def _parse_integers(args: argparse.Namespace) -> None:
    """Read the integer options in canonical decimal, as io.parse_id
    reads ids: "1_0", "+1" and "01" raise rather than read as 10 and 1."""
    for name in _INTEGER_OPTIONS:
        text = getattr(args, name, None)
        if text is None:
            continue
        try:
            if isinstance(text, list):
                value: int | list[int] = [io.parse_id(t) for t in text]
            else:
                value = io.parse_id(text)
        except ValueError:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} expects decimal integers, got {text!r}") from None
        setattr(args, name, value)


def _setup_logging() -> None:
    level = {"off": None, "steps": "INFO", "full": "DEBUG"}
    mode = os.environ.get("NTK_LOG", "off")
    if mode not in level:
        print(f"warning: unknown NTK_LOG value {mode!r}, using off", file=sys.stderr)
    elif level[mode] is not None:
        # imported only here, so that a run without logging pays nothing for it
        import logging

        logging.basicConfig(level=level[mode], format="%(message)s", stream=sys.stderr)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone."""
    parser = argparse.ArgumentParser(
        prog="nstree",
        description="Normal spanning trees, tree orders, vertex connectivity, "
        "and fat-TK certificates on finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        if command is None or name == command:
            _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def _add_options(p: argparse.ArgumentParser, name: str) -> None:
    if name not in ("levels", "gen-list"):
        p.add_argument("--input", help="graph file, JSON or edge-list")
        p.add_argument("--gen", help="built-in generator name (see gen-list)")
        p.add_argument("--radius", help="truncation radius for --gen")
    if name == "nst":
        p.add_argument("--root", required=True)
        p.add_argument("--format", choices=("json", "dot"), default="json")
    elif name in ("omega", "local", "cover-nst"):
        p.add_argument("--root", required=True)
        p.add_argument("--budget", help="maximum number of sweeps")
        p.add_argument("--kappa-small", dest="kappa_small",
                       help="ignore vertex pairs with connectivity above this")
        p.add_argument("--format", choices=("json", "dot"), default="json")
        if name == "local":
            p.add_argument("--targets", required=True, help="comma-separated vertex ids")
        if name == "cover-nst":
            p.add_argument("--cover", required=True, help="JSON file with the cover sets")
    elif name in ("levels", "check-normal"):
        p.add_argument("--tree", required=True, help="tree JSON file")
    elif name == "kappa":
        p.add_argument("--pair", nargs=2, required=True, metavar=("V", "W"))
    elif name == "separator":
        p.add_argument("--a", required=True, help="comma-separated vertex ids")
        p.add_argument("--b", required=True, help="comma-separated vertex ids")
    elif name == "fat-tk-find":
        p.add_argument("--branch", required=True, help="comma-separated branch vertex ids")
        p.add_argument("--m", required=True, help="paths per branch pair")
    elif name == "fat-tk-verify":
        p.add_argument("--cert", required=True, help="certificate JSON file")
    elif name == "dispersed":
        p.add_argument("--probe", required=True, help="comma-separated vertex ids")
        p.add_argument("--n", required=True, help="branch vertex count")
        p.add_argument("--m", required=True, help="paths per branch pair")
        p.add_argument("--s", required=True, help="separator size bound")
        p.add_argument("--search-budget", default="100", dest="search_budget")


def _read(path: str) -> str:
    # a leading byte-order mark is dropped by the io readers
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.input and args.gen:
        raise ValueError("give either --input or --gen, not both")
    if args.input:
        return io.loads_graph(_read(args.input))
    if args.gen:
        if args.radius is None:
            raise ValueError("--gen requires --radius")
        return truncate(make_generator(args.gen), args.radius)
    raise ValueError("no graph given; use --input or --gen with --radius")


def _ids(text: str) -> list[int]:
    try:
        return [io.parse_id(p.strip()) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated decimal ids, got {text!r}") from None


# Each handler takes the parsed arguments and the graph and returns its
# output, DOT text or a JSON object for io.dumps, with its exit code.


def _cmd_nst(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    t = dfs_nst(g, args.root)
    if args.format == "dot":
        return io.tree_to_dot(t, g), 0
    return io.tree_to_obj(t), 0


def _cmd_omega(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    trace = omega_nst(g, args.root, step_budget=args.budget, kappa_small=args.kappa_small)
    return _trace_out(trace, g, args.format), 0


def _cmd_local(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    trace = local_normal_tree(
        g, _ids(args.targets), args.root, step_budget=args.budget, kappa_small=args.kappa_small
    )
    return _trace_out(trace, g, args.format), 0


def _cmd_cover_nst(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    cover = io.loads_cover(_read(args.cover))
    trace = nst_from_dispersed_cover(
        g, cover, args.root, step_budget=args.budget, kappa_small=args.kappa_small
    )
    return _trace_out(trace, g, args.format), 0


def _trace_out(trace, g: Graph, fmt: str) -> str | dict:
    if fmt == "dot":
        return io.tree_to_dot(trace.tree, g)
    return io.trace_to_obj(trace)


def _cmd_levels(args: argparse.Namespace, g: None) -> tuple[str | dict, int]:
    t = io.loads_tree(_read(args.tree))
    return io.cover_to_obj(levels_of(t)), 0


def _cmd_check_normal(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    t = io.loads_tree(_read(args.tree))
    report = is_normal(g, t)
    obj = {"normal": report.normal}
    if report.witness is not None:
        u, v, path = report.witness
        obj["witness"] = {"ends": [u, v], "path": list(path)}
    else:
        obj["witness"] = None
    return obj, 0 if report.normal else 1


def _cmd_kappa(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    v, w = args.pair
    fam = max_independent_paths(g, v, w)
    return {"kappa": len(fam), "paths": [list(p.vertices) for p in fam]}, 0


def _cmd_separator(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    try:
        sep = min_separator(g, frozenset(_ids(args.a)), frozenset(_ids(args.b)))
    except InseparableError as exc:
        return {"inseparable": True, "reason": str(exc), "separator": None}, 1
    return {"separator": sorted(sep.s), "size": len(sep.s)}, 0


def _cmd_fat_tk_find(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    found = find_fat_tk(g, _ids(args.branch), args.m)
    if isinstance(found, FatTKFailure):
        return io.failure_to_obj(found), 1
    return io.cert_to_obj(found), 0


def _cmd_fat_tk_verify(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    cert = io.loads_cert(_read(args.cert))
    report = verify_fat_tk(g, cert)
    return {"ok": report.ok, "reason": report.reason}, 0 if report.ok else 1


def _cmd_dispersed(args: argparse.Namespace, g: Graph) -> tuple[str | dict, int]:
    verdict = is_dispersed(
        g, _ids(args.probe), args.n, args.m, args.s, search_budget=args.search_budget
    )
    return io.verdict_to_obj(verdict), 0 if verdict.dispersed else 1


def _cmd_gen_list(args: argparse.Namespace, g: None) -> tuple[str | dict, int]:
    names = sorted(BUILTIN_GENERATORS)
    names[names.index("fat-tk-gen")] = "fat-tk-gen(n,m)"
    return {"generators": names}, 0


# each command's help line and handler, in the order help lists them
_COMMANDS = {
    "nst": ("depth-first normal spanning tree", _cmd_nst),
    "omega": ("path-guided normal spanning tree construction", _cmd_omega),
    "local": ("normal tree covering a prescribed vertex set", _cmd_local),
    "cover-nst": ("normal spanning tree guided by an ordered cover", _cmd_cover_nst),
    "levels": ("root-distance classes of a tree", _cmd_levels),
    "check-normal": ("is the tree normal in the graph?", _cmd_check_normal),
    "kappa": ("independent-path count and family", _cmd_kappa),
    "separator": ("minimum separator between vertex sets", _cmd_separator),
    "fat-tk-find": ("greedy fat TK(n,m) search", _cmd_fat_tk_find),
    "fat-tk-verify": ("check a claimed certificate", _cmd_fat_tk_verify),
    "dispersed": ("bounded dispersedness check", _cmd_dispersed),
    "gen-list": ("list built-in generators", _cmd_gen_list),
}


if __name__ == "__main__":
    sys.exit(main())
