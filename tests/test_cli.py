from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys

import pytest

from helpers import bfs_tree, random_connected_graph, random_subtree
from nstree import (
    DispersedCover,
    FatTKCertificate,
    Graph,
    RootedTree,
    find_fat_tk,
    is_dispersed,
    is_normal,
    local_normal_tree,
    make_generator,
    nst_from_dispersed_cover,
    omega_nst,
    truncate,
)
from nstree.cli import main
from nstree.io import cert_to_obj, dumps, graph_to_obj, tree_to_dot, tree_to_obj

DST_EDGES = "\n".join(
    f"{u} {v}"
    for u, v in [
        (1, 4), (4, 2), (1, 5), (5, 2),
        (1, 6), (6, 3), (1, 7), (7, 3),
        (2, 8), (8, 3), (2, 9), (9, 3),
    ]
) + "\n"


@pytest.fixture()
def k4_file(tmp_path):
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    path = tmp_path / "k4.json"
    path.write_text(dumps(graph_to_obj(g)))
    return str(path)


@pytest.fixture()
def dst_file(tmp_path):
    path = tmp_path / "dst.txt"
    path.write_text(DST_EDGES)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_nst_json(capsys, k4_file):
    code, out = run(capsys, ["nst", "--input", k4_file, "--root", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"root": 1, "parent": {"2": 1, "3": 2, "4": 3}}


def test_nst_dot(capsys, k4_file):
    code, out = run(capsys, ["nst", "--input", k4_file, "--root", "1", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph {")
    assert '"1" [shape=doublecircle];' in out


@pytest.mark.parametrize("command", ["omega", "local", "cover-nst"])
def test_trace_commands_write_the_final_tree_as_dot(capsys, tmp_path, command):
    g = truncate(make_generator("grid"), 3)
    vs = g.vertices
    classes = (frozenset(vs[::2]), frozenset(vs[1::2]))
    cover = tmp_path / "cover.json"
    cover.write_text(dumps([sorted(c) for c in classes]))
    trace, extra = {
        "omega": (omega_nst(g, 0), []),
        "local": (local_normal_tree(g, [5, 9], 0), ["--targets", "5,9"]),
        "cover-nst": (nst_from_dispersed_cover(g, DispersedCover(classes), 0),
                      ["--cover", str(cover)]),
    }[command]
    argv = [command, "--gen", "grid", "--radius", "3", "--root", "0", "--format", "dot", *extra]
    assert run(capsys, argv) == (0, tree_to_dot(trace.tree, g))


def test_omega_from_generator(capsys):
    code, out = run(capsys, ["omega", "--gen", "grid", "--radius", "3", "--root", "0"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "spanning"
    assert obj["tree"]["root"] == 0


def test_omega_budget_reported(capsys, k4_file):
    code, out = run(capsys, ["omega", "--input", k4_file, "--root", "1", "--budget", "0"])
    assert code == 0
    assert json.loads(out)["status"] == "budget-exhausted"


def test_local_targets(capsys, dst_file):
    code, out = run(capsys, ["local", "--input", dst_file, "--root", "1", "--targets", "8"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] in ("target-covered", "spanning")
    assert "8" in obj["tree"]["parent"]


def test_cover_nst(capsys, tmp_path, k4_file):
    cover = tmp_path / "cover.json"
    cover.write_text('{"cover": [[1, 2], [3, 4]]}')
    code, out = run(
        capsys, ["cover-nst", "--input", k4_file, "--root", "1", "--cover", str(cover)]
    )
    assert code == 0
    assert json.loads(out)["status"] == "spanning"


def test_levels(capsys, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(dumps(tree_to_obj(RootedTree(0, {1: 0, 2: 0, 3: 1}))))
    code, out = run(capsys, ["levels", "--tree", str(tree)])
    assert code == 0
    assert json.loads(out) == {"levels": [[0], [1, 2], [3]]}


def test_check_normal_accepts(capsys, tmp_path, k4_file):
    tree = tmp_path / "tree.json"
    tree.write_text(dumps(tree_to_obj(RootedTree(1, {2: 1, 3: 2, 4: 3}))))
    code, out = run(capsys, ["check-normal", "--input", k4_file, "--tree", str(tree)])
    assert code == 0
    assert json.loads(out) == {"normal": True, "witness": None}


def test_check_normal_rejects_with_witness(capsys, tmp_path):
    g = tmp_path / "c4.txt"
    g.write_text("1 2\n2 3\n3 4\n1 4\n")
    tree = tmp_path / "tree.json"
    tree.write_text(dumps(tree_to_obj(RootedTree(1, {2: 1, 4: 1}))))
    code, out = run(capsys, ["check-normal", "--input", str(g), "--tree", str(tree)])
    assert code == 1
    obj = json.loads(out)
    assert obj["normal"] is False
    assert sorted(obj["witness"]["ends"]) == [2, 4]
    assert obj["witness"]["path"] == [2, 3, 4]


def test_kappa(capsys, k4_file):
    code, out = run(capsys, ["kappa", "--input", k4_file, "--pair", "1", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kappa"] == 3
    assert obj["paths"] == [[1, 2], [1, 3, 2], [1, 4, 2]]


def test_separator(capsys, dst_file):
    code, out = run(capsys, ["separator", "--input", dst_file, "--a", "1", "--b", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 3


def test_separator_inseparable_exit_1(capsys, k4_file):
    code, out = run(capsys, ["separator", "--input", k4_file, "--a", "1", "--b", "2"])
    assert code == 1
    assert json.loads(out)["inseparable"] is True


def test_fat_tk_find_pipes_into_verify(capsys, tmp_path, dst_file):
    code, out = run(
        capsys, ["fat-tk-find", "--input", dst_file, "--branch", "1,2,3", "--m", "2"]
    )
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out = run(
        capsys, ["fat-tk-verify", "--input", dst_file, "--cert", str(cert)]
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_fat_tk_find_failure_exit_1(capsys, dst_file):
    code, out = run(
        capsys, ["fat-tk-find", "--input", dst_file, "--branch", "1,2,3", "--m", "3"]
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["found"] is False
    assert obj["separator"] == [4, 5]


def test_fat_tk_verify_rejects_exit_1(capsys, tmp_path, dst_file):
    cert = tmp_path / "cert.json"
    cert.write_text(
        json.dumps({"branch": [1, 2], "m": 1, "paths": {"1,2": [[1, 2]]}})
    )
    code, out = run(capsys, ["fat-tk-verify", "--input", dst_file, "--cert", str(cert)])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_dispersed_exit_codes(capsys, tmp_path, dst_file):
    pendant = tmp_path / "pendant.txt"
    pendant.write_text(DST_EDGES + "1 10\n")
    code, out = run(
        capsys,
        ["dispersed", "--input", str(pendant), "--probe", "10",
         "--n", "3", "--m", "2", "--s", "1"],
    )
    assert code == 0
    assert json.loads(out)["dispersed"] is True
    code, out = run(
        capsys,
        ["dispersed", "--input", dst_file, "--probe", "1,2,3",
         "--n", "3", "--m", "2", "--s", "1"],
    )
    assert code == 1
    assert json.loads(out)["dispersed"] is False


def test_gen_list(capsys):
    code, out = run(capsys, ["gen-list"])
    assert code == 0
    assert json.loads(out) == {
        "generators": ["binary-tree", "double-ray", "fat-tk-gen(n,m)", "grid", "ray"]
    }


def test_fat_tk_generator_argument_form(capsys):
    code, out = run(
        capsys, ["omega", "--gen", "fat-tk-gen(3,2)", "--radius", "2", "--root", "0"]
    )
    assert code == 0
    assert json.loads(out)["status"] in ("spanning", "budget-exhausted")


def test_fat_tk_generator_without_parameters_exit_2(capsys):
    code = main(["omega", "--gen", "fat-tk-gen", "--radius", "2", "--root", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "fat-tk-gen(N,M)" in err
    assert "--n" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["nst", "--root", "1"],  # no graph source
        ["nst", "--gen", "grid", "--root", "0"],  # missing radius
        ["nst", "--gen", "no-such", "--radius", "2", "--root", "0"],
        ["nst", "--input", "/nonexistent.json", "--root", "1"],
        ["kappa", "--gen", "grid", "--radius", "2", "--pair", "0", "999"],
        ["separator", "--gen", "grid", "--radius", "2", "--a", "0", "--b", "x"],
        ["omega", "--gen", "grid", "--radius", "3", "--root", "0", "--kappa-small", "-3"],
        # ids in lists are canonical decimals: these once read as 10, 3, 1 and 10
        ["fat-tk-find", "--gen", "grid", "--radius", "4", "--branch", "1_0,+3", "--m", "1"],
        ["local", "--gen", "grid", "--radius", "4", "--root", "0", "--targets", "+3"],
        ["separator", "--gen", "grid", "--radius", "4", "--a", "01", "--b", "12"],
        ["dispersed", "--gen", "grid", "--radius", "4", "--probe", "1_0", "--n", "2", "--m", "1",
         "--s", "5"],
        # so are single ids and counts: these once read as 10, 1 and 1, 10 and 10
        ["nst", "--gen", "grid", "--radius", "4", "--root", "1_0"],
        ["kappa", "--gen", "grid", "--radius", "4", "--pair", "+1", "01"],
        ["kappa", "--gen", "grid", "--radius", "4", "--pair", "0", "1_0"],
        ["nst", "--gen", "grid", "--radius", "1_0", "--root", "0"],
        ["omega", "--gen", "grid", "--radius", "3", "--root", "0", "--budget", "1_0"],
        ["omega", "--gen", "grid", "--radius", "3", "--root", "0", "--kappa-small", "1_0"],
        ["fat-tk-find", "--gen", "grid", "--radius", "4", "--branch", "0,1", "--m", "1_0"],
        ["dispersed", "--gen", "grid", "--radius", "4", "--probe", "0", "--n", "1_0", "--m", "1",
         "--s", "5"],
        ["dispersed", "--gen", "grid", "--radius", "4", "--probe", "0", "--n", "2", "--m", "+1",
         "--s", "5"],
        ["dispersed", "--gen", "grid", "--radius", "4", "--probe", "0", "--n", "2", "--m", "1",
         "--s", "05"],
        ["dispersed", "--gen", "grid", "--radius", "4", "--probe", "0", "--n", "2", "--m", "1",
         "--s", "5", "--search-budget", "1_0"],
        # so are generator parameters: these once ran as fat-tk-gen(3,2)
        ["kappa", "--gen", "fat-tk-gen(03,2)", "--radius", "2", "--pair", "0", "2"],
        ["kappa", "--gen", "fat-tk-gen(3,\u0662)", "--radius", "2", "--pair", "0", "2"],
        ["kappa", "--gen", "fat-tk-gen(3,2)\n", "--radius", "2", "--pair", "0", "2"],
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_separator_names_a_side_vertex_outside_the_graph(capsys):
    code = main(["separator", "--gen", "grid", "--radius", "2", "--a", "0", "--b", "99,5"])
    assert (code, capsys.readouterr().err) == (2, "error: side vertices not in graph: [99]\n")


_K3 = '{"vertices": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]]}'
_DEEP = "[" * 100_000 + "]" * 100_000
# "0,1" and "1,0" name one pair, once read as whichever came last:
# fat-tk-verify exited 0 or 1 on the same two path lists
_PAIR_TWICE = '{{"branch": [0, 1], "m": 1, "paths": {{"{}": [[0, 1]], "{}": [[0, 7, 1]]}}}}'


@pytest.mark.parametrize(
    "argv, files",
    [
        (["kappa", "--pair", "0", "1"],
         {"--input": '{"vertices":[0,1,2],"edges":[[0,1],[1,2]],"edges":[[0,2]]}'}),
        (["check-normal"],
         {"--input": _K3, "--tree": '{"root":0,"parent":{"1":0},"parent":{"2":0}}'}),
        (["kappa", "--pair", "0", "1"], {"--input": '{"vertices": ' + _DEEP + "}"}),
        (["check-normal"], {"--input": _K3, "--tree": '{"root": 0, "parent": ' + _DEEP + "}"}),
        (["kappa", "--pair", "0", "1"], {"--input": "0 1\n" + "1 " * 100_000 + "\n"}),
        (["levels"], {"--tree": '{"root": 0, "parent": {"1' + "[" * 3000 + '": 0}}'}),
        (["fat-tk-verify"], {"--input": _K3, "--cert": _PAIR_TWICE.format("0,1", "1,0")}),
        (["fat-tk-verify"], {"--input": _K3, "--cert": _PAIR_TWICE.format("1,0", "0,1")}),
    ],
    ids=["repeated graph key", "repeated tree key", "deep graph", "deep tree",
         "long edge-list line", "long tree key", "pair twice", "pair twice reversed"],
)
def test_malformed_files_exit_2_with_one_bounded_error_line(capsys, tmp_path, argv, files):
    for i, (option, text) in enumerate(files.items()):
        path = tmp_path / f"f{i}"
        path.write_text(text)
        argv = [*argv, option, str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 310


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["kappa", "--pair", "1", "2"], "--input", _K3.replace("[0, 1, 2]", "[0, 1, 2, 3]")),
        (["nst", "--root", "1"], "--input", DST_EDGES),
        (["levels"], "--tree", '{"root": 0, "parent": {"1": 0, "2": 1}}'),
        (["cover-nst", "--input", "K3", "--root", "0"], "--cover", "[[0], [1, 2]]"),
        (["fat-tk-verify", "--input", "K3"], "--cert",
         '{"branch": [0, 1], "m": 2, "paths": {"0,1": [[0, 1], [0, 2, 1]]}}'),
    ],
    ids=["graph JSON", "edge list", "tree", "cover", "certificate"],
)
def test_a_byte_order_mark_is_read_past(capsys, tmp_path, argv, option, text):
    # a JSON file saved with a BOM was once sniffed as an edge list
    k3 = tmp_path / "k3.json"
    k3.write_text(_K3)
    argv = [str(k3) if a == "K3" else a for a in argv]
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / "f"
        path.write_bytes(bom + text.encode())
        outputs.append((main([*argv, option, str(path)]), *capsys.readouterr()))
    assert outputs[0][1] != ""
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [], "edges": [[true, 2]]}',
        '{"vertices": [false], "edges": [[0, 1], [1, 2]]}',
    ],
)
def test_bool_vertex_ids_exit_2(capsys, tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code = main(["nst", "--input", str(path), "--root", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bool_tree_ids_exit_2(capsys, tmp_path, k4_file):
    path = tmp_path / "t.json"
    path.write_text('{"root": 1, "parent": {"2": true, "3": 1, "4": 1}}')
    assert main(["check-normal", "--input", k4_file, "--tree", str(path)]) == 2
    assert main(["levels", "--tree", str(path)]) == 2


def test_non_canonical_edge_list_ids_exit_2(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1_0 2\n+3 2\n")
    assert main(["nst", "--input", str(path), "--root", "2"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_negative_list_ids_load(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("-3 -1\n-1 0\n0 2\n-3 2\n")
    code, out = run(capsys, ["separator", "--input", str(path), "--a", "-3", "--b", " 0"])
    assert code == 0
    assert json.loads(out) == {"separator": [-1, 2], "size": 2}
    code, out = run(capsys, ["nst", "--input", str(path), "--root", "-3"])
    assert code == 0
    assert json.loads(out)["root"] == -3
    code, out = run(capsys, ["kappa", "--input", str(path), "--pair", "-3", "0"])
    assert code == 0
    assert json.loads(out)["kappa"] == 2


@pytest.mark.parametrize(
    "parent",
    ['{"1": 0, "01": 2, "2": 0}', '{"1_0": 0}', '{" 3 ": 0}'],
)
def test_non_canonical_tree_ids_exit_2(capsys, tmp_path, parent):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n0 2\n0 3\n0 10\n")
    path = tmp_path / "t.json"
    path.write_text(f'{{"root": 0, "parent": {parent}}}')
    assert main(["check-normal", "--input", str(g), "--tree", str(path)]) == 2
    assert "bad child id" in capsys.readouterr().err
    assert main(["levels", "--tree", str(path)]) == 2


def test_trace_output_is_a_tree_input(capsys, tmp_path):
    grid = ["--gen", "grid", "--radius", "4"]
    code, out = run(capsys, ["omega", *grid, "--root", "0"])
    assert code == 0
    trace = tmp_path / "trace.json"
    trace.write_text(out)
    code, out = run(capsys, ["check-normal", *grid, "--tree", str(trace)])
    assert code == 0
    assert json.loads(out) == {"normal": True, "witness": None}
    code, out = run(capsys, ["levels", "--tree", str(trace)])
    assert code == 0
    assert json.loads(out)["levels"][0] == [0]


def test_both_sources_rejected(capsys, k4_file):
    code = main(["nst", "--input", k4_file, "--gen", "grid", "--radius", "2", "--root", "1"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


# the checkout's package, which a CLI child imports whether or not the
# test run itself found it through PYTHONPATH
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_proc(argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from nstree.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_repeated_runs_are_byte_identical():
    argv = ["omega", "--gen", "grid", "--radius", "4", "--root", "0"]
    first = _run_proc(argv)
    second = _run_proc(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_log_modes():
    argv = ["omega", "--gen", "grid", "--radius", "2", "--root", "0"]
    quiet = _run_proc(argv, {"NTK_LOG": "off"})
    steps = _run_proc(argv, {"NTK_LOG": "steps"})
    full = _run_proc(argv, {"NTK_LOG": "full"})
    assert quiet.stderr == ""
    assert steps.stderr != ""
    assert len(full.stderr) > len(steps.stderr)
    assert quiet.stdout == steps.stdout == full.stdout


def _imported(argv, env_extra=None):
    """Names of the modules a fresh interpreter imports to run argv, with
    NTK_LOG unset unless env_extra sets it (read from -X importtime)."""
    env = {k: v for k, v in os.environ.items() if k != "NTK_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_start_up_imports_no_dataclasses_inspect_or_logging():
    # measured against a bare interpreter, whose site may preload modules
    baseline = _imported(["-c", "pass"])
    for argv in (["-c", "import nstree.cli"], ["-m", "nstree.cli", "gen-list"]):
        added = _imported(argv) - baseline
        assert "nstree.construct" in added
        assert not {"dataclasses", "inspect", "logging"} & added, argv
    # switched on, logging loads; test_golden.py checks its stderr byte for byte
    assert "logging" in _imported(["-m", "nstree.cli", "gen-list"], {"NTK_LOG": "steps"}) - baseline


def test_unknown_log_mode_warns():
    out = _run_proc(["gen-list"], {"NTK_LOG": "loud"})
    assert out.returncode == 0
    assert "unknown NTK_LOG" in out.stderr


_USAGE = """\
usage: nstree [-h]
              {nst,omega,local,cover-nst,levels,check-normal,kappa,separator,fat-tk-find,fat-tk-verify,dispersed,gen-list}
              ...
"""

_OMEGA_USAGE = """\
usage: nstree omega [-h] [--input INPUT] [--gen GEN] [--radius RADIUS] --root
                    ROOT [--budget BUDGET] [--kappa-small KAPPA_SMALL]
                    [--format {json,dot}]
"""

# argv -> (exit code, stdout, stderr) of a CLI child on an 80-column terminal
_PINNED_PARSER_OUTPUT = {
    ("--help",): (0, _USAGE + """
Normal spanning trees, tree orders, vertex connectivity, and fat-TK
certificates on finite graphs.

positional arguments:
  {nst,omega,local,cover-nst,levels,check-normal,kappa,separator,fat-tk-find,fat-tk-verify,dispersed,gen-list}
    nst                 depth-first normal spanning tree
    omega               path-guided normal spanning tree construction
    local               normal tree covering a prescribed vertex set
    cover-nst           normal spanning tree guided by an ordered cover
    levels              root-distance classes of a tree
    check-normal        is the tree normal in the graph?
    kappa               independent-path count and family
    separator           minimum separator between vertex sets
    fat-tk-find         greedy fat TK(n,m) search
    fat-tk-verify       check a claimed certificate
    dispersed           bounded dispersedness check
    gen-list            list built-in generators

options:
  -h, --help            show this help message and exit
""", ""),
    (): (2, "", _USAGE + "nstree: error: the following arguments are required: command\n"),
    ("bogus",): (2, "", _USAGE + "nstree: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'nst', 'omega', 'local', 'cover-nst', 'levels', 'check-normal', "
                 "'kappa', 'separator', 'fat-tk-find', 'fat-tk-verify', 'dispersed', "
                 "'gen-list')\n"),
    ("omega", "--help"): (0, _OMEGA_USAGE + """
options:
  -h, --help            show this help message and exit
  --input INPUT         graph file, JSON or edge-list
  --gen GEN             built-in generator name (see gen-list)
  --radius RADIUS       truncation radius for --gen
  --root ROOT
  --budget BUDGET       maximum number of sweeps
  --kappa-small KAPPA_SMALL
                        ignore vertex pairs with connectivity above this
  --format {json,dot}
""", ""),
    ("omega", "--gen", "grid", "--radius", "2"): (
        2, "", _OMEGA_USAGE
        + "nstree omega: error: the following arguments are required: --root\n"),
    # a command's stray argument is reported by the top-level parser
    ("omega", "--gen", "grid", "--radius", "2", "--root", "0", "extra"): (
        2, "", _USAGE + "nstree: error: unrecognized arguments: extra\n"),
}


@pytest.mark.parametrize("argv", sorted(_PINNED_PARSER_OUTPUT))
def test_parser_output_is_pinned(argv):
    """Help, usage and argparse errors, byte for byte, exit code included
    (argparse wraps them to the COLUMNS width)."""
    proc = _run_proc(list(argv), {"COLUMNS": "80", "NTK_LOG": "off"})
    assert (proc.returncode, proc.stdout, proc.stderr) == _PINNED_PARSER_OUTPUT[argv]


def test_a_known_command_builds_its_own_parser_alone(capsys, monkeypatch):
    import nstree.cli as cli

    built: list[str] = []
    real = cli._add_options

    def add_options(p, name):
        built.append(name)
        real(p, name)

    monkeypatch.setattr(cli, "_add_options", add_options)
    assert main(["gen-list"]) == 0
    assert built == ["gen-list"]
    del built[:]
    with pytest.raises(SystemExit):
        main(["gen-lis"])
    assert built == list(cli._COMMANDS)
    capsys.readouterr()


# ---- relabelling oracle through the CLI -------------------------------------
#
# Every tie is broken by vertex order alone, so relabelling the input files
# by the increasing map f must relabel every output by f (tests/test_relabel.py
# checks the library calls the same way). f(x) = 3x - 50 makes some ids
# negative, which the CLI must read in its id lists and --pair.

# output keys whose numbers count something rather than name a vertex
_COUNTS = {"step", "index", "kappa", "size", "m", "routed", "bound"}


def _relabel(x, fn):
    """JSON data x with every vertex id mapped through fn: ints, and the
    object keys that hold ids, a tree's "v" and a certificate's "a,b"."""
    if isinstance(x, dict):
        return {_relabel_key(k, fn): v if k in _COUNTS else _relabel(v, fn) for k, v in x.items()}
    if isinstance(x, list):
        return [_relabel(v, fn) for v in x]
    return fn(x) if type(x) is int else x  # a string, a bool or null


def _relabel_key(k: str, fn) -> str:
    if re.fullmatch(r"-?\d+(,-?\d+)?", k):
        return ",".join(str(fn(int(p))) for p in k.split(","))
    return k


def _f(x: int) -> int:
    return 3 * x - 50


def _f_inverse(y: int) -> int:
    x, rest = divmod(y + 50, 3)
    assert rest == 0, f"{y} is not an image of f"
    return x


def _cli_runs(rng: random.Random, g: Graph) -> tuple[list[list], dict]:
    """CLI commands on g and the JSON files they read, by name. An argv
    item is text, a file name, an id or a list of ids; ids are relabelled
    with the files."""
    vs = g.vertices
    r = rng.choice(vs)
    v, w = rng.sample(vs, 2)
    # sides joined by no edge, so that the separator exists
    a = rng.choice(vs)
    b = rng.choice([x for x in vs if x != a and not g.has_edge(a, x)])
    shuffled = list(vs)
    rng.shuffle(shuffled)
    files = {
        "graph": graph_to_obj(g),
        "bfs": tree_to_obj(bfs_tree(g, r)),
        "subtree": tree_to_obj(random_subtree(rng, g, r)),
        "cover": {"cover": [sorted(shuffled[i::3]) for i in range(3)]},
    }
    runs: list[list] = [
        ["omega", "--root", r],
        ["omega", "--root", r, "--budget", "1", "--kappa-small", "2"],
        ["local", "--root", r, "--targets", rng.sample(vs, 3)],
        ["cover-nst", "--root", r, "--cover", "cover", "--kappa-small", "3"],
        ["kappa", "--pair", v, w],
        ["separator", "--a", [a], "--b", [b]],
        ["fat-tk-find", "--branch", rng.sample(vs, 3), "--m", "2"],
        ["check-normal", "--tree", "bfs"],
        ["check-normal", "--tree", "subtree"],
    ]
    for _ in range(20):
        found = find_fat_tk(g, rng.sample(vs, 3), 2)
        if isinstance(found, FatTKCertificate):
            files["cert"] = cert_to_obj(found)
            runs.append(["fat-tk-verify", "--cert", "cert"])
            break
    # a probe inside the first certificate the search finds, and one that
    # also holds a vertex outside it: the blocking-set cut's sides overlap
    examined = is_dispersed(g, [r], 3, 2, 1, search_budget=5).examined
    if examined:
        inside = sorted(examined[0][0].vertices)
        outside = [x for x in vs if x not in inside]
        dispersed = ["dispersed", "--n", "3", "--m", "2", "--s", "1", "--search-budget", "5"]
        runs.append(dispersed + ["--probe", rng.sample(inside, 2)])
        if outside:
            runs.append(dispersed + ["--probe", [rng.choice(inside), rng.choice(outside)]])
    runs = [[argv[0], "--input", "graph", *argv[1:]] for argv in runs]
    return runs + [["levels", "--tree", "bfs"]], files


def _cli_output(capsys, tmp_path, argv, files, fn):
    """Exit code and parsed stdout of the CLI run argv on files relabelled by fn."""
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(dumps(_relabel(obj, fn)))
    args = []
    for item in argv:
        if isinstance(item, list):
            # "--opt=ids" keeps a list that starts with a negative id from
            # reading as an option
            args[-1] += "=" + ",".join(str(fn(x)) for x in item)
            continue
        if isinstance(item, int):
            item = str(fn(item))
        elif item in files:
            item = str(tmp_path / f"{item}.json")
        args.append(item)
    code = main(args)
    return code, json.loads(capsys.readouterr().out)


def test_relabelling_the_cli_inputs_relabels_every_cli_output(capsys, tmp_path):
    rng = random.Random(2520)
    seen: dict[str, int] = {}
    overlaps = 0
    for _ in range(6):
        g = random_connected_graph(rng, rng.randint(20, 60), rng.choice([0.1, 0.15, 0.2]))
        runs, files = _cli_runs(rng, g)
        for argv in runs:
            code, out = _cli_output(capsys, tmp_path, argv, files, lambda x: x)
            image_code, image_out = _cli_output(capsys, tmp_path, argv, files, _f)
            assert (image_code, _relabel(image_out, _f_inverse)) == (code, out), argv
            seen[argv[0]] = seen.get(argv[0], 0) + 1
            if argv[0] == "dispersed":
                first = out["examined"][0]
                paths = first["certificate"]["paths"].values()
                cert = {x for plist in paths for p in plist for x in p}
                probe = set(argv[argv.index("--probe") + 1])
                overlaps += bool(probe & cert)
                if probe <= cert:  # every vertex of both sides is in the blocking set
                    assert first["separator"] == sorted(probe)
    assert seen.keys() == {
        "omega", "local", "cover-nst", "kappa", "separator", "fat-tk-find",
        "fat-tk-verify", "dispersed", "check-normal", "levels",
    }, seen
    assert overlaps >= 6, overlaps


def test_an_integer_past_the_digit_limit_exits_2_without_python_advice(capsys, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    path = tmp_path / "big.json"
    path.write_text(f'{{"vertices": [{"9" * 5000}], "edges": []}}')
    assert main(["nst", "--input", str(path), "--root", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid JSON: an integer has more than {limit} digits\n"
