"""The independent checker accepts real nstree outputs and rejects planted faults."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nstree  # noqa: E402
from nstree import generators  # noqa: E402

import checker  # noqa: E402
import repeat_check  # noqa: E402
import workloads  # noqa: E402


def host(g: nstree.Graph) -> checker.Host:
    return checker.Host(g.vertices, g.edges)


@pytest.fixture
def grid():
    return nstree.truncate(generators.grid(), 4)


def test_normality_verdicts_hold_and_bfs_tree_is_rejected(grid):
    h = host(grid)
    dfs = nstree.dfs_nst(grid, 0)
    bfs = nstree.RootedTree(0, workloads.bfs_parent(grid, 0))
    report = nstree.is_normal(grid, bfs)
    assert not report.normal
    checker.check_is_normal(h, 0, dfs.parent_map, True, None)
    checker.check_is_normal(h, 0, bfs.parent_map, False, report.witness)
    with pytest.raises(checker.Bad, match="interval test says False"):
        checker.check_is_normal(h, 0, bfs.parent_map, True, None)
    with pytest.raises(checker.Bad, match="not normal"):
        checker.check_dfs(h, {"root": 0}, {"parent": bfs.parent_map})


def test_sweep_trace_passes_and_a_non_normal_final_tree_fails(grid):
    h = host(grid)
    trace = nstree.omega_nst(grid, 0)
    out = {**workloads.trace_plain(trace), **workloads.trace_extra(grid, {})(trace)}
    checker.check_trace(h, {"root": 0}, out)
    bfs = workloads.bfs_parent(grid, 0)
    with pytest.raises(checker.Bad):
        checker.check_trace(h, {"root": 0}, dict(out, parent=bfs, prefix_parent=bfs))


def test_certificate_with_a_shared_interior_vertex_is_rejected():
    g = nstree.truncate(generators.fat_tk(3, 2), 3)
    out = workloads.find_plain(workloads.find_and_verify(g, (0, 1, 2), 2))
    checker.check_find(host(g), {"branch": (0, 1, 2), "m": 2}, out)

    g = nstree.Graph(edges=[(0, 9), (1, 9), (2, 9), (0, 5), (2, 5), (1, 2)])
    shared = {(0, 1): ((0, 9, 1),), (0, 2): ((0, 9, 2),), (1, 2): ((1, 2),)}
    verdict = nstree.verify_fat_tk(g, nstree.FatTKCertificate((0, 1, 2), 1, shared)).ok
    assert "reuses a vertex" in checker.cert_problem(host(g), (0, 1, 2), 1, shared)
    with pytest.raises(checker.Bad, match="invalid"):
        checker.check_find(host(g), {"branch": (0, 1, 2), "m": 1},
                           {"cert": ((0, 1, 2), 1, shared), "verdicts": (verdict,)})
    fixed = dict(shared)
    fixed[(0, 2)] = ((0, 5, 2),)
    checker.check_find(host(g), {"branch": (0, 1, 2), "m": 1},
                       {"cert": ((0, 1, 2), 1, fixed), "verdicts": (True,)})


def test_wrong_kappa_is_rejected(grid):
    h = host(grid)
    fam = [p.vertices for p in nstree.max_independent_paths(grid, 0, 12)]
    checker.check_kappa(h, {"pair": (0, 12)}, {"kappa": len(fam), "paths": fam})
    with pytest.raises(checker.Bad, match="Menger says"):
        checker.check_kappa(h, {"pair": (0, 12)}, {"kappa": len(fam) - 1, "paths": fam[:-1]})


def test_dispersed_blockers_match_networkx_min_cut():
    rng = random.Random(5)
    g = workloads.random_graph(rng, 8, 0.75)
    params = {"probe": (3,), "n": 3, "m": 2, "s": 1, "budget": 2}
    out = workloads.verdict_plain(nstree.is_dispersed(g, (3,), 3, 2, 1, search_budget=2))
    checker.check_dispersed(host(g), params, out)
    if out["examined"]:
        cert, blocker = out["examined"][0]
        grown = [(cert, blocker + tuple(v for v in g.vertices if v not in blocker)[:1])]
        with pytest.raises(checker.Bad, match="min cut"):
            checker.check_dispersed(host(g), params, dict(out, examined=grown))


def test_order_counts_repeat_across_traced_runs():
    assert repeat_check.differences("order", 2, 0.3) == []
