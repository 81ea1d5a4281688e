from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs_st, random_connected_graph
from nstree import FatTKCertificate, Graph, RootedTree, dfs_nst, find_fat_tk, levels_of, omega_nst
from nstree.cli import main as cli_main
from nstree.io import (
    cert_from_obj,
    cert_to_obj,
    cover_from_obj,
    cover_to_obj,
    dumps,
    failure_to_obj,
    graph_from_edge_list,
    graph_from_obj,
    graph_to_dot,
    graph_to_edge_list,
    graph_to_obj,
    loads_cert,
    loads_cover,
    loads_graph,
    loads_tree,
    trace_to_obj,
    tree_from_obj,
    tree_to_dot,
    tree_to_obj,
    verdict_to_obj,
)

C5 = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_graph_json_round_trip():
    g = Graph([7], [(1, 2), (2, 3)])
    assert graph_from_obj(graph_to_obj(g)) == g
    assert loads_graph(dumps(graph_to_obj(g))) == g


def test_graph_edge_list_round_trip():
    g = Graph([7], [(1, 2), (2, 3)])
    text = graph_to_edge_list(g)
    assert text == "1 2\n2 3\n7\n"
    assert graph_from_edge_list(text) == g


def test_edge_list_comments_and_blanks():
    text = "# header\n1 2\n\n2 3  # chain\n 9 \n"
    g = graph_from_edge_list(text)
    assert g.vertex_set == {1, 2, 3, 9}
    assert g.edges == ((1, 2), (2, 3))


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        graph_from_edge_list("1 2\nx y\n")
    with pytest.raises(ValueError, match="line 1"):
        graph_from_edge_list("1 2 3\n")


def test_loads_graph_sniffs_format():
    assert loads_graph('{"vertices": [1, 2], "edges": [[1, 2]]}') == Graph(edges=[(1, 2)])
    assert loads_graph("1 2\n") == Graph(edges=[(1, 2)])
    with pytest.raises(ValueError, match="invalid JSON"):
        loads_graph("{broken")


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "read, text, message",
    [
        (loads_graph, '{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]], "edges": [[0, 2]]}',
         "duplicate key 'edges'"),
        (loads_tree, '{"root": 0, "parent": {"1": 0}, "parent": {"2": 0}}',
         "duplicate key 'parent'"),
        (loads_tree, '{"root": 0, "parent": {"1": 0, "1": 2}}', "duplicate key '1'"),
        (loads_cert, '{"branch": [1, 2], "m": 1, "paths": {"1,2": [[1, 2]], "1,2": []}}',
         "duplicate key '1,2'"),
        (loads_cover, '{"cover": [[0]], "cover": [[1]]}', "duplicate key 'cover'"),
        (loads_graph, '{"vertices": ' + _DEEP + ', "edges": []}', "nested too deeply"),
        (loads_tree, '{"root": 0, "parent": ' + _DEEP + "}", "nested too deeply"),
    ],
    ids=["graph-key", "tree-key", "child-key", "cert-key", "cover-key", "graph-deep",
         "tree-deep"],
)
def test_repeated_keys_and_deep_nesting_are_invalid_json(read, text, message):
    # json.loads keeps a repeated key's last value, and raises RecursionError
    # on deep nesting; each reader refuses both as malformed input
    with pytest.raises(ValueError, match=f"^invalid JSON: {re.escape(message)}$"):
        read(text)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"vertices": [1]},
        {"vertices": "no", "edges": []},
        {"vertices": [1.5], "edges": []},
        {"vertices": [], "edges": [[1]]},
        {"vertices": [], "edges": [["a", "b"]]},
        {"vertices": [True], "edges": []},
        {"vertices": [], "edges": [[True, 2]]},
    ],
)
def test_graph_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        graph_from_obj(obj)


def test_tree_round_trip():
    t = RootedTree(1, {2: 1, 3: 2})
    obj = tree_to_obj(t)
    assert obj == {"root": 1, "parent": {"2": 1, "3": 2}}
    assert tree_from_obj(obj) == t
    assert loads_tree(dumps(obj)) == t


def test_tree_from_obj_reads_the_tree_of_a_trace():
    trace = omega_nst(C5, 0)
    assert tree_from_obj(trace_to_obj(trace)) == trace.tree
    assert loads_tree(dumps(trace_to_obj(trace))) == trace.tree


def test_negative_ids_are_canonical():
    assert tree_from_obj({"root": 0, "parent": {"-3": 0}}) == RootedTree(0, {-3: 0})
    assert graph_from_edge_list("-3 -1\n-7\n") == Graph([-7], [(-3, -1)])


@pytest.mark.parametrize(
    "text, line",
    [("1_0 2\n+3 2\n", 1), ("1 2\n+3 2\n", 2), ("01 2\n", 1), ("1 -0\n", 1)],
)
def test_edge_list_rejects_non_canonical_ids(text, line):
    with pytest.raises(ValueError, match=f"line {line}:"):
        graph_from_edge_list(text)


@pytest.mark.parametrize(
    "obj",
    [
        {"root": 1},
        {"root": "r", "parent": {}},
        {"root": 1, "parent": []},
        {"root": 1, "parent": {"x": 1}},
        {"root": 1, "parent": {"2": "1"}},
        {"root": True, "parent": {"2": 1}},
        {"root": 1, "parent": {"2": True}},
        {"root": 0, "parent": {"1": 0, "01": 2, "2": 0}},
        {"root": 0, "parent": {"1_0": 0}},
        {"root": 0, "parent": {" 3 ": 0}},
        {"root": 0, "parent": {"+3": 0}},
        {"root": 0, "parent": {"-0": 0}},
        {"tree": {"root": 0, "parent": {"01": 0}}},
        {"tree": [0], "steps": []},
    ],
)
def test_tree_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        tree_from_obj(obj)


def test_graph_dot_shape():
    g = Graph([5], [(1, 2)])
    dot = graph_to_dot(g)
    assert dot.startswith("graph {")
    assert '"1" -- "2";' in dot
    assert '"5";' in dot
    assert dot.endswith("}\n")


def test_tree_dot_marks_root_and_chords():
    t = dfs_nst(C5, 0)
    dot = tree_to_dot(t, C5)
    assert '"0" [shape=doublecircle];' in dot
    assert "[style=dashed]" in dot  # the chord 0-4
    assert tree_to_dot(t).count("dashed") == 0


def test_trace_obj_is_json_ready_and_replayable():
    trace = omega_nst(C5, 0)
    obj = trace_to_obj(trace)
    text = dumps(obj)
    back = json.loads(text)
    assert back["status"] == "spanning"
    assert tree_from_obj(back["tree"]) == trace.tree
    assert len(back["steps"]) == len(trace.steps)
    for step_obj, step in zip(back["steps"], trace.steps):
        assert step_obj["component"] == sorted(step.component)
        assert step_obj["added"] == [list(e) for e in step.added]


def test_cert_round_trip():
    g = Graph(edges=[(1, 2), (1, 3), (3, 2)])
    cert = find_fat_tk(g, {1, 2}, 2)
    obj = cert_to_obj(cert)
    assert cert_from_obj(obj) == cert
    assert loads_cert(dumps(obj)) == cert


def test_cert_with_keys_that_do_not_compare_round_trips_to_a_rejection():
    # pair keys that do not compare are written in repr order, and the
    # reader, which takes integer vertices only, names the stray key
    cert = FatTKCertificate([1, 2], 1, {(1, "a"): [(1, 2)], (1, 2): [(1, 2)]})
    obj = cert_to_obj(cert)
    assert obj == {"branch": [1, 2], "m": 1, "paths": {"a,1": [[1, 2]], "1,2": [[1, 2]]}}
    assert list(obj["paths"]) == ["a,1", "1,2"]
    with pytest.raises(ValueError, match="bad pair key 'a,1'"):
        loads_cert(dumps(obj))
    del obj["paths"]["a,1"]
    assert loads_cert(dumps(obj)) == FatTKCertificate([1, 2], 1, {(1, 2): [(1, 2)]})


@pytest.mark.parametrize(
    "obj",
    [
        {"branch": [1, 2]},
        {"branch": "x", "m": 1, "paths": {}},
        {"branch": [1, 2], "m": "1", "paths": {}},
        {"branch": [1, 2], "m": 1, "paths": []},
        {"branch": [1, 2], "m": 1, "paths": {"1-2": [[1, 2]]}},
        {"branch": [1, 2], "m": 1, "paths": {"1,2": [[1, "2"]]}},
        {"branch": [True, 2], "m": 1, "paths": {"1,2": [[1, 2]]}},
        {"branch": [1, 2], "m": True, "paths": {"1,2": [[1, 2]]}},
        {"branch": [1, 2], "m": 1, "paths": {"1,2": [[True, 2]]}},
        {"branch": [1, 2], "m": 1, "paths": {"01,2": [[1, 2]]}},
        {"branch": [1, 2], "m": 1, "paths": {"1, 2": [[1, 2]]}},
        {"branch": [1, 10], "m": 1, "paths": {"1,1_0": [[1, 10]]}},
        # one pair under two keys: the certificate would keep the last
        {"branch": [1, 2], "m": 1, "paths": {"1,2": [[1, 2]], "2,1": [[2, 3, 1]]}},
    ],
)
def test_cert_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        cert_from_obj(obj)


def test_failure_obj():
    from nstree import FatTKFailure

    obj = failure_to_obj(FatTKFailure((1, 2), 1, frozenset({4, 3})))
    assert obj == {"found": False, "pair": [1, 2], "routed": 1, "separator": [3, 4]}


def test_verdict_obj():
    from nstree import is_dispersed

    verdict = is_dispersed(C5, {0}, 2, 2, 1)
    obj = verdict_to_obj(verdict)
    assert obj["dispersed"] == verdict.dispersed
    assert obj["bound"] == 1
    assert len(obj["examined"]) == len(verdict.examined)


def test_cover_round_trip(capsys, tmp_path):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(dumps(tree_to_obj(dfs_nst(C5, 0))))
    graph_file = tmp_path / "c5.json"
    graph_file.write_text(dumps(graph_to_obj(C5)))
    assert cli_main(["levels", "--tree", str(tree_file)]) == 0
    levels = capsys.readouterr().out
    assert json.loads(levels) == cover_to_obj(levels_of(dfs_nst(C5, 0)))
    assert json.loads(levels) == {"levels": [[0], [1], [2], [3], [4]]}
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(levels)
    argv = ["cover-nst", "--input", str(graph_file), "--root", "0", "--cover", str(cover_file)]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "spanning"
    assert cover_from_obj([[0], [1, 2]]).sets == (frozenset({0}), frozenset({1, 2}))
    assert loads_cover('{"cover": [[0], [1, 2]]}').sets == (
        frozenset({0}),
        frozenset({1, 2}),
    )
    for bad in ({"cover": [["a"]]}, {"levels": [[True]]}, [[0], [False]]):
        with pytest.raises(ValueError):
            cover_from_obj(bad)


def test_dumps_is_deterministic():
    g = random_connected_graph(random.Random(2), 8, 0.4)
    first = dumps(trace_to_obj(omega_nst(g, 0)))
    second = dumps(trace_to_obj(omega_nst(g, 0)))
    assert first == second
    assert first.endswith("\n")


@settings(max_examples=100, deadline=None)
@given(connected_graphs_st())
def test_graph_round_trips_any(g):
    assert graph_from_obj(graph_to_obj(g)) == g
    assert graph_from_edge_list(graph_to_edge_list(g)) == g


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(), st.randoms(use_true_random=False))
def test_tree_round_trips_any(g, rng):
    t = dfs_nst(g, rng.choice(g.vertices))
    assert tree_from_obj(tree_to_obj(t)) == t


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-50, 50) | st.booleans(), min_size=1, max_size=12, unique=True),
    st.randoms(use_true_random=False),
)
def test_every_tree_that_builds_reads_back_from_its_json(ids, rng):
    # each vertex hangs below one listed before it; a bool id equals 0
    # or 1 but JSON writes it as true or false, so the tree refuses it
    parent = {v: rng.choice(ids[:i]) for i, v in enumerate(ids) if i}
    try:
        t = RootedTree(ids[0], parent)
    except TypeError:
        assert any(type(x) is bool for x in ids)
        return
    assert loads_tree(dumps(tree_to_obj(t))) == t


@pytest.mark.parametrize("edges", ["no", {"0": 1}, None])
def test_graph_edges_that_are_not_a_list_are_refused(capsys, tmp_path, edges):
    obj = {"vertices": [0, 1], "edges": edges}
    with pytest.raises(ValueError, match="^graph edges must be a list of pairs$"):
        graph_from_obj(obj)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["nst", "--input", str(path), "--root", "0"]) == 2
    assert capsys.readouterr() == ("", "error: graph edges must be a list of pairs\n")
