"""Mutation fuzzing of every input reader, in io and through cli.main.

Valid texts written from graphs of at most 12 vertices (graph JSON, an
edge list, a tree, a cover and a certificate) are mutated: a key
repeated, deep nesting, truncation, flipped or inserted bytes, a
byte-order mark, huge ints and floats. Whatever the text, a reader
returns a value or raises ValueError, a value written back out reads
equal, and a CLI command exits 0, 1 or 2, printing on exit 2 one
bounded `error:` line and nothing else.
"""

from __future__ import annotations

import contextlib
import io as _io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bfs_tree, random_connected_graph
from nstree import find_fat_tk, levels_of
from nstree.cli import main
from nstree.io import (
    cert_to_obj,
    cover_to_obj,
    dumps,
    graph_to_edge_list,
    graph_to_obj,
    loads_cert,
    loads_cover,
    loads_graph,
    loads_tree,
    tree_to_obj,
)

_KEY = re.compile(rb'"[^"]*"\s*:')
_NUMBER = re.compile(rb"\d+")


def _at(pattern: re.Pattern, data: bytes, k: int) -> re.Match | None:
    found = list(pattern.finditer(data))
    return found[k % len(found)] if found else None


def _repeat_key(data: bytes, k: int) -> bytes:
    # '"key": 0, "key": value': the key twice in one object
    m = _at(_KEY, data, k)
    return data if m is None else data[: m.start()] + m.group() + b" 0, " + data[m.start():]


def _nest(data: bytes, k: int) -> bytes:
    i = k % (len(data) + 1)
    return data[:i] + b"[" * 100_000 + b"0" + b"]" * 100_000 + data[i:]


def _truncate(data: bytes, k: int) -> bytes:
    return data[: k % (len(data) + 1)]


def _flip(data: bytes, k: int) -> bytes:
    if not data:
        return data
    i = (k >> 3) % len(data)
    return data[:i] + bytes([data[i] ^ (1 << (k & 7))]) + data[i + 1:]


def _insert(data: bytes, k: int) -> bytes:
    i = (k >> 8) % (len(data) + 1)
    return data[:i] + bytes([k % 256]) + data[i:]


def _bom(data: bytes, k: int) -> bytes:
    return b"\xef\xbb\xbf" + data


# a number replaced: past int()'s 4300-digit limit, a big int that reads,
# and floats json reads (1e400 is inf)
_NUMBERS = (b"9" * 5000, b"1" + b"0" * 400, b"1.0", b"1e400", b"NaN", b"-0")


def _huge(data: bytes, k: int) -> bytes:
    m = _at(_NUMBER, data, k // len(_NUMBERS))
    if m is None:
        return data
    return data[: m.start()] + _NUMBERS[k % len(_NUMBERS)] + data[m.end():]


_MUTATIONS = (_repeat_key, _nest, _truncate, _flip, _insert, _bom, _huge)


def _seed_texts(seed: int) -> tuple[dict[str, str], list[int]]:
    """Each kind's valid text on a random graph, and the graph's least
    and greatest vertex."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 12), rng.choice((0.0, 0.3, 0.7)))
    t = bfs_tree(g, 0)
    cert = find_fat_tk(g, [0, len(g) - 1], 1)
    texts = {
        "graph": dumps(graph_to_obj(g)),
        "edges": graph_to_edge_list(g),
        "tree": dumps(tree_to_obj(t)),
        "cover": dumps(cover_to_obj(levels_of(t))),
        "cert": dumps(cert_to_obj(cert)),
    }
    return texts, [0, len(g) - 1]


def _round_trip(kind: str, text: str) -> None:
    """Read text as kind; if it reads, its re-emitted text reads equal."""
    read, write = {
        "graph": (loads_graph, lambda x: dumps(graph_to_obj(x))),
        "edges": (loads_graph, graph_to_edge_list),
        "tree": (loads_tree, lambda x: dumps(tree_to_obj(x))),
        "cover": (loads_cover, lambda x: dumps(cover_to_obj(x))),
        "cert": (loads_cert, lambda x: dumps(cert_to_obj(x))),
    }[kind]
    try:
        value = read(text)
    except ValueError:
        return
    assert read(write(value)) == value


def _commands(kind: str, ends: list[int]) -> list[list[str]]:
    """The commands that read a file of this kind; FILE marks where it goes
    and GRAPH where the unmutated graph goes."""
    a, b = map(str, ends)
    if kind in ("graph", "edges"):
        return [["nst", "--input", "FILE", "--root", a],
                ["kappa", "--input", "FILE", "--pair", a, b],
                ["omega", "--input", "FILE", "--root", a]]
    if kind == "tree":
        return [["check-normal", "--input", "GRAPH", "--tree", "FILE"], ["levels", "--tree", "FILE"]]
    if kind == "cover":
        return [["cover-nst", "--input", "GRAPH", "--root", a, "--cover", "FILE"]]
    return [["fat-tk-verify", "--input", "GRAPH", "--cert", "FILE"]]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("graph", "edges", "tree", "cover", "cert")),
    mutations=st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 2**24 - 1)), min_size=1, max_size=2
    ),
)
def test_mutated_inputs_read_or_exit_2_with_one_bounded_error_line(fuzz_dir, seed, kind, mutations):
    texts, ends = _seed_texts(seed)
    data = texts[kind].encode()
    for mutate, k in mutations:
        data = mutate(data, k)
    try:
        text = data.decode()
    except UnicodeDecodeError:
        pass
    else:
        _round_trip(kind, text)

    graph_file, file = fuzz_dir / "graph.json", fuzz_dir / "input"
    graph_file.write_text(texts["graph"])
    file.write_bytes(data)
    paths = {"FILE": str(file), "GRAPH": str(graph_file)}
    for argv in _commands(kind, ends):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(x, x) for x in argv])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out.getvalue() == ""
            line = err.getvalue()
            assert line.startswith("error: ") and line.count("\n") == 1 and line.endswith("\n")
            assert len(line.encode()) <= 310
        else:
            assert err.getvalue() == ""
