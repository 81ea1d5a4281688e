from __future__ import annotations

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import clique_chain, connected_graphs_st, random_connected_graph
from nstree import (
    FatTKCertificate,
    FatTKFailure,
    Graph,
    components,
    find_fat_tk,
    induced_subgraph,
    is_dispersed,
    kappa,
    kappa_necessary_check,
    make_generator,
    max_independent_paths,
    min_blocking_set,
    min_separator,
    truncate,
    verify_fat_tk,
)
from nstree import connectivity, fattk
from nstree.connectivity import FlowNetwork
from nstree.fattk import _ranked
from oracles import brute_fat_tk_exists, ref_dispersed_ranking, ref_verify_fat_tk

# triangle on {1,2,3} with every edge replaced by two length-2 paths
DST = Graph(
    edges=[
        (1, 4), (4, 2), (1, 5), (5, 2),
        (1, 6), (6, 3), (1, 7), (7, 3),
        (2, 8), (8, 3), (2, 9), (9, 3),
    ]
)
K7 = Graph(edges=[(a, b) for a, b in combinations(range(1, 8), 2)])


def test_verify_single_edge():
    g = Graph(edges=[(0, 1)])
    cert = FatTKCertificate([0, 1], 1, {(0, 1): [(0, 1)]})
    assert verify_fat_tk(g, cert).ok


def test_verify_dst_doubled_triangle():
    cert = FatTKCertificate(
        [1, 2, 3],
        2,
        {
            (1, 2): [(1, 4, 2), (1, 5, 2)],
            (1, 3): [(1, 6, 3), (1, 7, 3)],
            (2, 3): [(2, 8, 3), (2, 9, 3)],
        },
    )
    assert verify_fat_tk(DST, cert).ok
    assert cert.vertices == DST.vertex_set


def test_verify_rejects_shared_interior():
    cert = FatTKCertificate(
        [1, 2, 3],
        1,
        {
            (1, 2): [(1, 4, 2)],
            (1, 3): [(1, 4, 3)],
            (2, 3): [(2, 8, 3)],
        },
    )
    g = Graph(edges=[(1, 4), (4, 2), (4, 3), (2, 8), (8, 3)])
    report = verify_fat_tk(g, cert)
    assert not report.ok
    assert "4" in report.reason


# the first ten ids are those the reason fragments once gave
@pytest.mark.parametrize(
    "branch, m, paths, reason",
    [
        pytest.param(
            [1], 1, {}, "need at least 2 branch vertices, have 1",
            id="branch0-1-paths0-at least 2",
        ),
        pytest.param(
            [1, 2], 0, {(1, 2): []}, "multiplicity must be at least 1, got 0",
            id="branch1-0-paths1-multiplicity",
        ),
        pytest.param(
            [1, 99], 1, {(1, 99): [(1, 99)]}, "branch vertices not in graph: [99]",
            id="branch2-1-paths2-not in graph",
        ),
        pytest.param(
            [1, 2, 3], 1, {(1, 2): [(1, 4, 2)]},
            "pair lists wrong or missing for [(1, 3), (2, 3)]",
            id="branch3-1-paths3-pair lists",
        ),
        pytest.param(
            [1, 2], 2, {(1, 2): [(1, 4, 2)]}, "pair (1,2) has 1 paths, expected 2",
            id="branch4-2-paths4-expected 2",
        ),
        pytest.param(
            [1, 2], 1, {(1, 2): [(1,)]}, "pair (1,2) has a degenerate path (1,)",
            id="branch5-1-paths5-degenerate",
        ),
        pytest.param(
            [1, 2], 1, {(1, 2): [(1, 4, 1)]}, "path (1, 4, 1) repeats a vertex",
            id="branch6-1-paths6-repeats",
        ),
        pytest.param(
            [1, 2], 1, {(1, 2): [(1, 4, 3)]}, "path (1, 4, 3) does not join 1 and 2",
            id="branch7-1-paths7-does not join",
        ),
        pytest.param(
            [1, 2], 1, {(1, 2): [(1, 9, 2)]}, "claimed edge 1-9 is not in the graph",
            id="branch8-1-paths8-not in the graph",
        ),
        pytest.param(
            [1, 2, 4], 1, {(1, 2): [(1, 4, 2)], (1, 4): [(1, 4)], (2, 4): [(2, 4)]},
            "path (1, 4, 2) passes through branch vertices [4]",
            id="branch9-1-paths9-branch",
        ),
        pytest.param(
            [1, 1], 1, {(1, 1): [(1, 1)]}, "branch vertices are not distinct",
            id="duplicated branch",
        ),
        pytest.param(
            [1, 2], 1, {(1, 2): [(1, 77, 2)]}, "claimed edge 1-77 is not in the graph",
            id="vertex outside the graph",
        ),
        pytest.param(
            [1, 2, 3], 1, {(1, 2): [(1, 4, 2)], (1, 3): [(1, 4, 3)], (2, 3): [(2, 3)]},
            "interior vertices [4] are used twice",
            id="interior used twice",
        ),
        pytest.param(
            [1, 2], 2, {(1, 2): [(1, 2), (2, 1)]},
            "pair (1,2) uses the edge 1-2 as 2 parallel paths",
            id="parallel bare edges",
        ),
        # two faults each: the one checked first is named
        pytest.param(
            [1, 2], 1, {(1, 2): [(1, 9, 1, 2)]}, "path (1, 9, 1, 2) repeats a vertex",
            id="repeat before non-edge",
        ),
        # the non-edge 3-9 is named, though the branch vertex 3 comes first
        pytest.param(
            [1, 2, 3], 1, {(1, 2): [(1, 3, 9, 2)], (1, 3): [(1, 3)], (2, 3): [(2, 3)]},
            "claimed edge 3-9 is not in the graph",
            id="non-edge before branch interior",
        ),
        # the lexicographically first pair is named, not the first key given
        pytest.param(
            [1, 2, 3], 1, {(2, 3): [(2, 9, 3)], (1, 3): [(1, 9, 3)], (1, 2): [(1, 2)]},
            "claimed edge 1-9 is not in the graph",
            id="faults in two pairs",
        ),
        pytest.param(
            [1, 2, 3], 1, {(1, 2): [(1, 2)], (1, 3): [(1, 3)], (1, 4): [(1, 4)]},
            "pair lists wrong or missing for [(1, 4), (2, 3)]",
            id="missing and extra keys",
        ),
        # malformed certificates get a reason too
        pytest.param(
            [1, 2], "2", {(1, 2): [(1, 2)]}, "multiplicity must be an integer, got '2'",
            id="m str",
        ),
        pytest.param(
            [1, 2], None, {(1, 2): [(1, 2)]}, "multiplicity must be an integer, got None",
            id="m None",
        ),
        pytest.param(
            [1, 2], True, {(1, 2): [(1, 2)]}, "multiplicity must be an integer, got True",
            id="m bool",
        ),
        pytest.param(
            [1, 2], 1.0, {(1, 2): [(1, 2)]}, "multiplicity must be an integer, got 1.0",
            id="m float",
        ),
        pytest.param(
            [1, 2], 1, {(1, 2): [(1, [3], 2)]}, "path (1, [3], 2) has an unhashable vertex",
            id="unhashable path vertex",
        ),
        pytest.param(
            [[1], [2]], 1, {}, "branch [[1], [2]] has an unhashable vertex",
            id="unhashable branch vertex",
        ),
        # pair keys that do not sort with the branch's are listed by repr
        pytest.param(
            [1, 2, 3], 1, {(1, 2): [(1, 2)], (1, 3): [(1, 3)], ("a", "b"): [("a", "b")]},
            "pair lists wrong or missing for [('a', 'b'), (2, 3)]",
            id="keys of another type",
        ),
        # entries that do not compare with each other are put in repr order
        pytest.param(
            [1, "a"], 1, {}, "branch vertices not in graph: ['a']",
            id="branch of mixed types",
        ),
        pytest.param(
            [1, 2], 1, {(1, "a"): [(1, 2)]}, "pair lists wrong or missing for [('a', 1), (1, 2)]",
            id="key of mixed types",
        ),
        pytest.param(
            [1, 2], 1, {(1, "a"): [(1, 2)], (1, 2): [(1, 2)]},
            "pair lists wrong or missing for [('a', 1)]",
            id="keys of mixed types",
        ),
    ],
)
def test_verify_rejection_reasons(branch, m, paths, reason):
    g = Graph([9], [(1, 2), (1, 3), (3, 2), (1, 4), (4, 2), (4, 3)])
    cert = FatTKCertificate(branch, m, paths)
    report = verify_fat_tk(g, cert)
    assert not report.ok
    assert report.reason == reason
    assert set(cert.pair_keys()) == set(cert._paths)


def test_verify_accepts_a_path_written_from_its_far_end():
    g = Graph(edges=[(1, 4), (4, 2)])
    assert verify_fat_tk(g, FatTKCertificate([1, 2], 1, {(1, 2): [(2, 4, 1)]})).ok


def test_verify_rejects_doubled_bare_edge():
    # the same edge cannot stand in for two parallel paths
    cert = FatTKCertificate([1, 2], 2, {(1, 2): [(1, 2), (2, 1)]})
    g = Graph(edges=[(1, 2), (1, 3), (3, 2)])
    report = verify_fat_tk(g, cert)
    assert not report.ok
    assert "parallel" in report.reason
    fixed = FatTKCertificate([1, 2], 2, {(1, 2): [(1, 2), (1, 3, 2)]})
    assert verify_fat_tk(g, fixed).ok


def test_certificate_pair_key_normalization():
    cert = FatTKCertificate([2, 1], 1, {(2, 1): [(2, 5, 1)]})
    assert cert.branch == (1, 2)
    assert cert.pair_keys() == [(1, 2)]
    assert cert.paths_for(1, 2) == cert.paths_for(2, 1) == ((2, 5, 1),)


def test_find_dst_m2():
    cert = find_fat_tk(DST, {1, 2, 3}, 2)
    assert isinstance(cert, FatTKCertificate)
    assert verify_fat_tk(DST, cert).ok
    assert cert.paths_for(1, 2) == ((1, 4, 2), (1, 5, 2))


def test_find_dst_m3_fails_with_separator():
    out = find_fat_tk(DST, {1, 2, 3}, 3)
    assert isinstance(out, FatTKFailure)
    assert out.pair == (1, 2)
    assert out.routed == 2
    assert out.separator == frozenset({4, 5})


def test_find_on_tree_fails():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    out = find_fat_tk(g, {0, 3}, 2)
    assert isinstance(out, FatTKFailure)
    assert out.routed == 1


def test_find_k7_uses_one_bare_edge_per_pair():
    cert = find_fat_tk(K7, {1, 2, 3}, 2)
    assert isinstance(cert, FatTKCertificate)
    assert verify_fat_tk(K7, cert).ok
    for a, b in cert.pair_keys():
        plist = cert.paths_for(a, b)
        assert sum(1 for p in plist if len(p) == 2) == 1


def test_find_validation():
    with pytest.raises(ValueError):
        find_fat_tk(DST, {1}, 2)
    with pytest.raises(ValueError):
        find_fat_tk(DST, {1, 2}, 0)
    with pytest.raises(ValueError):
        find_fat_tk(DST, {1, 99}, 1)


K4 = Graph(edges=list(combinations((1, 2, 3, 4), 2)))


@pytest.mark.parametrize("m", [True, 2.0, "2"])
def test_a_multiplicity_that_is_not_an_int_is_rejected_before_routing(m, monkeypatch):
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(FlowNetwork, "_pair_flow", no_flow)
    message = re.escape(f"multiplicity must be an integer, got {m!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_fat_tk(K4, [1, 2], m)
    with pytest.raises(ValueError, match=f"^{message}$"):
        is_dispersed(K4, [1], 3, m, 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 3.0}, "n must be an integer, got 3.0"),
        ({"n": True}, "n must be an integer, got True"),
        ({"m": 2.0}, "multiplicity must be an integer, got 2.0"),
        ({"s": 1.5}, "s must be an integer, got 1.5"),
        ({"s": True}, "s must be an integer, got True"),
        ({"search_budget": 2.5}, "search budget must be an integer, got 2.5"),
        ({"search_budget": False}, "search budget must be an integer, got False"),
    ],
)
def test_is_dispersed_rejects_a_count_that_is_not_an_int_before_any_flow(kwargs, message, monkeypatch):
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(FlowNetwork, "_pair_flow", no_flow)
    args = {"n": 3, "m": 2, "s": 1, "search_budget": 100} | kwargs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        is_dispersed(K4, [1], **args)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 1}, "need n >= 2, m >= 1, s >= 0, got n=1, m=2, s=1"),
        ({"s": -1}, "need n >= 2, m >= 1, s >= 0, got n=3, m=2, s=-1"),
        ({"search_budget": 0}, "search budget must be positive, got 0"),
    ],
)
def test_is_dispersed_keeps_its_range_messages(kwargs, message):
    args = {"n": 3, "m": 2, "s": 1, "search_budget": 100} | kwargs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        is_dispersed(K4, [1], **args)


def test_kappa_necessary_check_dst():
    assert kappa_necessary_check(DST, {1, 2, 3}, 2)
    # pairwise connectivity is 3 throughout, yet no fat TK(3, 3) fits:
    # the bound is necessary, not sufficient
    assert all(kappa(DST, a, b) == 3 for a, b in combinations((1, 2, 3), 2))
    assert kappa_necessary_check(DST, {1, 2, 3}, 3)
    assert not brute_fat_tk_exists(DST, (1, 2, 3), 3)
    assert not kappa_necessary_check(DST, {1, 2, 3}, 4)


_KAPPA_CHECK_ERRORS = [
    ({1, 9}, 1, "vertex 9 not in graph"),
    ({1}, 1, "need at least 2 branch vertices, got 1"),
    # the multiplicity is checked as find_fat_tk checks it, before any flow
    ({1, 2, 3}, True, "multiplicity must be an integer, got True"),
    ({1, 2, 3}, 1.5, "multiplicity must be an integer, got 1.5"),
    ({1, 2, 3}, "2", "multiplicity must be an integer, got '2'"),
    ({1, 2, 3}, 0, "multiplicity must be at least 1, got 0"),
    ({1, 2, 3}, -2, "multiplicity must be at least 1, got -2"),
    ({1, 9}, 0, "multiplicity must be at least 1, got 0"),
]


@pytest.mark.parametrize(
    "u, m, message",
    _KAPPA_CHECK_ERRORS,
    ids=["u0-vertex 9 not in graph", "u1-need at least 2 branch vertices, got 1", "m=True",
         "m=1.5", "m='2'", "m=0", "m=-2", "m=0 before a missing vertex"],
)
def test_kappa_necessary_check_argument_errors(u, m, message, monkeypatch):
    def no_flow(*args):
        raise AssertionError("a flow ran")

    k4 = Graph(edges=list(combinations((1, 2, 3, 4), 2)))
    monkeypatch.setattr(FlowNetwork, "_pair_flow", no_flow)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kappa_necessary_check(k4, u, m)


@pytest.mark.parametrize(
    "g, u, error, message",
    [
        # 1.0 and True equal 1, and were once merged into it: the check said True
        (K4, [1, 1.0, 2], TypeError, "vertex ids must be integers, got float"),
        (K4, [1, True, 2], TypeError, "vertex ids must be integers, got bool"),
        # κ(1, 2) = 1 < m once answered False before 9 was looked at
        (Graph(edges=[(1, 2), (2, 3)]), {1, 2, 9}, ValueError, "vertex 9 not in graph"),
    ],
    ids=["1.0", "True", "missing vertex"],
)
def test_kappa_necessary_check_reads_its_branch_as_find_fat_tk_does(g, u, error, message,
                                                                    monkeypatch):
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(FlowNetwork, "_pair_flow", no_flow)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        kappa_necessary_check(g, u, 2)


@pytest.mark.parametrize("seed", range(4))
def test_kappa_necessary_check_stops_each_flow_at_m(seed, monkeypatch):
    """The check agrees with kappa on every pair, though none of its
    pair flows goes past m paths."""
    values: list[int] = []
    real = FlowNetwork._pair_flow

    def pair_flow(self, v, w, limit, blocked=frozenset()):
        out = real(self, v, w, limit, blocked)
        values.append(out[0])
        return out

    monkeypatch.setattr(FlowNetwork, "_pair_flow", pair_flow)
    rng = random.Random(4400 + seed)
    above = 0
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(6, 16), rng.choice([0.2, 0.4, 0.6]))
        u = rng.sample(g.vertices, rng.randint(2, 4))
        m = rng.randint(1, 4)
        kappas = [kappa(g, a, b) for a, b in combinations(u, 2)]
        above += sum(k > m for k in kappas)
        values.clear()
        assert kappa_necessary_check(g, u, m) == all(k >= m for k in kappas)
        assert values and max(values) <= m
    assert above > 10


def test_brute_confirms_dst_multiplicities():
    assert brute_fat_tk_exists(DST, (1, 2, 3), 2)
    assert not brute_fat_tk_exists(DST, (1, 2, 3), 3)


def test_is_dispersed_tree_vacuous():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    verdict = is_dispersed(g, {0}, 2, 2, 0)
    assert verdict.dispersed
    assert verdict.examined == ()
    assert verdict.witness is None


def test_is_dispersed_pendant_probe():
    g = Graph(edges=list(DST.edges) + [(1, 10)])
    verdict = is_dispersed(g, {10}, 3, 2, 1)
    assert verdict.dispersed
    assert verdict.examined
    cert, blocker = verdict.examined[0]
    assert set(cert.branch) == {1, 2, 3}
    assert blocker == frozenset({1})
    assert all(len(sep) <= 1 for _c, sep in verdict.examined)


def test_is_dispersed_pendant_probe_s0_fails():
    g = Graph(edges=list(DST.edges) + [(1, 10)])
    verdict = is_dispersed(g, {10}, 3, 2, 0)
    assert not verdict.dispersed
    cert, sep = verdict.witness
    assert sep == frozenset({1})
    assert len(sep) > 0


def test_is_dispersed_probe_inside_certificate():
    # probe vertices woven into every certificate force large blockers
    verdict = is_dispersed(DST, {1, 2, 3}, 3, 2, 1)
    assert not verdict.dispersed
    _cert, sep = verdict.witness
    assert len(sep) > 1


def test_witness_is_the_certificate_that_settles_the_verdict():
    """Two K6 joined by the edge 5-6, probe {10, 11} in the second: the
    seven certificates inside the first K6 are cut from the probe by
    {5}, within the bound, and the eighth, on 6, 7 and 8, needs {10, 11}
    and settles the verdict."""
    g = Graph(edges=[*combinations(range(6), 2), *combinations(range(6, 12), 2), (5, 6)])
    verdict = is_dispersed(g, {10, 11}, 3, 2, 1, search_budget=25)
    assert not verdict.dispersed and len(verdict.examined) == 8
    assert [sep for _c, sep in verdict.examined[:7]] == [frozenset({5})] * 7
    cert, sep = verdict.witness
    assert (cert.branch, sep) == ((6, 7, 8), frozenset({10, 11}))
    assert verdict.witness == verdict.examined[-1]
    # a dispersed verdict has no witness, however many it examined
    dispersed = is_dispersed(g, {10, 11}, 3, 2, 2, search_budget=25)
    assert dispersed.dispersed and dispersed.examined and dispersed.witness is None


def test_is_dispersed_empty_probe():
    verdict = is_dispersed(DST, (), 3, 2, 0)
    assert verdict.dispersed
    assert all(sep == frozenset() for _c, sep in verdict.examined)


def test_is_dispersed_validation():
    with pytest.raises(ValueError):
        is_dispersed(DST, {99}, 3, 2, 1)
    with pytest.raises(ValueError):
        is_dispersed(DST, {1}, 1, 2, 1)
    with pytest.raises(ValueError):
        is_dispersed(DST, {1}, 3, 2, -1)
    with pytest.raises(ValueError):
        is_dispersed(DST, {1}, 3, 2, 1, search_budget=0)


def _recording_kappa(monkeypatch) -> list[tuple[int, int]]:
    """Record every κ query, an unmasked pair flow of no limit, in call
    order."""
    calls: list[tuple[int, int]] = []
    real = FlowNetwork._pair_flow

    def pair_flow(self, v, w, limit, blocked=frozenset()):
        if limit is None and not blocked:
            calls.append((v, w))
        return real(self, v, w, limit, blocked)

    monkeypatch.setattr(FlowNetwork, "_pair_flow", pair_flow)
    return calls


def _ref_verdict(g, probe, ranking, m, s):
    """is_dispersed's routing and blocking loop on public calls."""
    examined = []
    for _score, cand in ranking:
        found = find_fat_tk(g, cand, m)
        if isinstance(found, FatTKFailure):
            continue
        blocker = min_blocking_set(g, probe, found.vertices).s if probe else frozenset()
        examined.append((found, blocker))
        if len(blocker) > s:
            return False, examined
    return True, examined


def _dispersed_case(seed: int):
    """A graph of 3-14 vertices (random, a random tree, or a chain of
    cliques with up to four extra edges) and is_dispersed arguments."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 2:
        g = random_connected_graph(rng, rng.randint(3, 14), 0.0)
    elif kind == 3:
        size = rng.randint(2, 5)
        chain = clique_chain(rng.randint(1, 14 // size), size)
        extra = [tuple(rng.sample(chain.vertices, 2)) for _ in range(rng.randint(0, 4))]
        g = Graph(chain.vertices, list(chain.edges) + [(min(e), max(e)) for e in extra])
    else:
        g = random_connected_graph(rng, rng.randint(3, 14), rng.choice([0.1, 0.25, 0.45, 0.7]))
    probe = frozenset(rng.sample(g.vertices, rng.randint(0, 2)))
    n = rng.randint(2, min(4, len(g)))
    m, s = rng.randint(1, 4), rng.randint(0, 2)
    budget = rng.choice([1, 2, 3, 5, 8, 20, 100])
    return g, probe, n, m, s, budget


def test_dispersed_ranking_matches_exhaustive_oracle(monkeypatch):
    calls = _recording_kappa(monkeypatch)
    ranked_sets = non_dispersed = 0
    for seed in range(1200):
        g, probe, n, m, s, budget = _dispersed_case(seed)
        del calls[:]
        ranking = _ranked(FlowNetwork(g), n, m, budget)
        queried = set(calls)
        assert len(queried) == len(calls)  # each pair once
        net = FlowNetwork(g)
        del calls[:]
        expected = ref_dispersed_ranking(g, n, m, budget, lambda v, w: net._pair_flow(v, w, None)[0])
        assert ranking == expected, (seed, n, m, budget)
        assert queried <= set(calls), seed
        verdict = is_dispersed(g, probe, n, m, s, budget)
        assert (verdict.dispersed, list(verdict.examined)) == _ref_verdict(g, probe, expected, m, s)
        ranked_sets += len(ranking)
        non_dispersed += not verdict.dispersed
    assert ranked_sets > 5000 and non_dispersed > 100


@pytest.mark.parametrize("n", [3, 4])
def test_dispersed_search_is_bounded_on_grid_r12(monkeypatch, n):
    g = truncate(make_generator("grid"), 12)
    assert len(g) == 91
    calls = _recording_kappa(monkeypatch)
    verdict = is_dispersed(g, {0}, n, 2, 1, search_budget=100)
    # a grid vertex has degree 4 at most, too few for fat TK(4, 2) branch
    # vertices, so no n = 4 candidate routes
    assert verdict.dispersed and bool(verdict.examined) == (n == 3)
    assert len(calls) <= 300


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(min_n=4, max_n=7), st.randoms(use_true_random=False))
def test_find_success_implies_necessary_bound(g, rng):
    n = rng.choice((2, 3))
    branch = rng.sample(g.vertices, n)
    m = rng.choice((1, 2))
    out = find_fat_tk(g, branch, m)
    if isinstance(out, FatTKCertificate):
        assert verify_fat_tk(g, out).ok
        assert kappa_necessary_check(g, branch, m)
        assert brute_fat_tk_exists(g, branch, m)
    else:
        assert 0 <= out.routed < m


@settings(max_examples=40, deadline=None)
@given(connected_graphs_st(min_n=4, max_n=7), st.randoms(use_true_random=False))
def test_verify_rejects_tampered_certificates(g, rng):
    branch = rng.sample(g.vertices, 2)
    out = find_fat_tk(g, branch, 2)
    if not isinstance(out, FatTKCertificate):
        return
    (a, b) = out.pair_keys()[0]
    plist = out.paths_for(a, b)
    long = [p for p in plist if len(p) > 2]
    if not long:
        return
    broken = tuple(p[:-1] if p == long[0] else p for p in plist)
    tampered = FatTKCertificate(out.branch, out.m, {(a, b): broken})
    assert not verify_fat_tk(g, tampered).ok


def _one_fault_away(g: Graph, cert: FatTKCertificate, rng: random.Random):
    """Certificates that differ from cert by one edit: a path with an
    interior vertex dropped, a non-neighbour swapped in, its direction
    reversed, its last vertex cut off, repeated, cut to a bare edge or
    led through a branch vertex; a pair key dropped or added; the
    multiplicity changed."""
    paths = {key: cert.paths_for(*key) for key in cert.pair_keys()}
    branch = cert.branch

    def edit(key, plist):
        return FatTKCertificate(branch, cert.m, {**paths, key: plist})

    for key, plist in paths.items():
        for i, seq in enumerate(plist):
            def put(new, i=i, plist=plist, key=key):
                return edit(key, plist[:i] + (new,) + plist[i + 1:])

            if len(seq) > 2:
                j = rng.randrange(1, len(seq) - 1)
                yield put(seq[:j] + seq[j + 1:])
                far = [x for x in g.vertices if not g.has_edge(seq[j - 1], x)]
                yield put(seq[:j] + (rng.choice(far),) + seq[j + 1:])
            yield put(seq[::-1])
            yield put(seq[:-1])
            yield edit(key, plist + (seq,))
            yield put(plist[(i + 1) % len(plist)])
            yield put((seq[0], seq[-1]))
            for c in branch:
                yield put(seq[:1] + (c,) + seq[1:])
        yield FatTKCertificate(branch, cert.m, {k: v for k, v in paths.items() if k != key})
    outside = min(v for v in g.vertices if v not in branch)
    yield FatTKCertificate(branch, cert.m, {**paths, (branch[0], outside): paths[branch[:2]]})
    for m in (cert.m - 1, cert.m + 1):
        yield FatTKCertificate(branch, m, paths)


def test_verify_matches_the_reference_on_found_and_edited_certificates():
    rng = random.Random(1803)
    found = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(6, 13), rng.choice((0.4, 0.6, 0.8)))
        branch = rng.sample(g.vertices, rng.randrange(2, 5))
        cert = find_fat_tk(g, branch, rng.randrange(1, 4))
        if not isinstance(cert, FatTKCertificate):
            continue
        found += 1
        assert verify_fat_tk(g, cert) == ref_verify_fat_tk(g, cert)
        for other in _one_fault_away(g, cert, rng):
            assert verify_fat_tk(g, other) == ref_verify_fat_tk(g, other)
    assert found >= 30


def _ref_nbrs(g: Graph) -> list[tuple[int, ...]]:
    # the neighbour-rank rows FlowNetwork builds, found by a sort
    rank = {v: k for k, v in enumerate(g.vertices)}
    return [tuple(sorted(map(rank.__getitem__, g.neighbors(v)))) for v in g.vertices]


def test_network_tuples_match_the_sorted_reference():
    rng = random.Random(1804)
    graphs = [
        Graph(),
        Graph([5]),
        Graph([-7]),
        Graph([-3, 0, 40, 2], [(-3, 40), (0, 40), (-3, 0)]),
        Graph([-10, -1, 7, 1000], [(-10, 1000)]),
        K7,
    ]
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(1, 30), rng.random())
        ids = rng.sample(range(-500, 500), len(g) + 3)
        label = dict(zip(g.vertices, ids))
        graphs.append(g)
        graphs.append(Graph(ids, [(label[u], label[v]) for u, v in g.edges]))
    for g in graphs:
        net = FlowNetwork(g)
        assert net._nbrs == _ref_nbrs(g)
        if g.vertices == tuple(range(len(g))):
            # ids 0..n-1 are their own ranks: the rows are the graph's own tuples
            assert all(net._nbrs[k] is g._adj[v] for k, v in enumerate(g.vertices))


def _flow_events(monkeypatch) -> list[str]:
    """Log, in call order, every pair flow, every augmenting-path search
    and the entry to and return from every FlowNetwork._pair_cut."""
    events: list[str] = []
    real_search = connectivity._search
    real_flow = FlowNetwork._pair_flow
    real_cut = FlowNetwork._pair_cut

    def search(*args):
        events.append("search")
        return real_search(*args)

    def pair_flow(self, *args):
        events.append("flow")
        return real_flow(self, *args)

    def pair_cut(self, *args):
        events.append("cut")
        cut = real_cut(self, *args)
        events.append("/cut")
        return cut

    monkeypatch.setattr(connectivity, "_search", search)
    monkeypatch.setattr(FlowNetwork, "_pair_flow", pair_flow)
    monkeypatch.setattr(FlowNetwork, "_pair_cut", pair_cut)
    return events


def test_failure_separator_blocks_residual_routing(monkeypatch):
    events = _flow_events(monkeypatch)
    failures = 0
    for seed in range(21, 61):
        g = random_connected_graph(random.Random(seed), 9, 0.3)
        branch = (0, 1, 2)
        del events[:]
        out = find_fat_tk(g, branch, 3)
        if not isinstance(out, FatTKFailure):
            assert "cut" not in events
            continue
        failures += 1
        # one flow per pair, the failing one included; its separator is
        # read from that flow's residual network, with no search of its own
        assert events.count("flow") == list(combinations(branch, 2)).index(out.pair) + 1
        assert events[-2:] == ["cut", "/cut"] and events.count("cut") == 1
        assert out.routed < 3
        assert out.separator <= g.vertex_set - set(out.pair)
        # rebuild the residual graph the failing pair saw, as an induced
        # subgraph: the other branch vertices and earlier interiors removed
        used: set[int] = set()
        for a, b in combinations(branch, 2):
            sub = induced_subgraph(g, g.vertex_set - (set(branch) - {a, b}) - used)
            if (a, b) == out.pair:
                break
            for p in list(max_independent_paths(sub, a, b))[:3]:
                used.update(p.interior)
        assert out.routed == len(max_independent_paths(sub, a, b))
        without_ab = Graph(sub.vertices, [e for e in sub.edges if set(e) != {a, b}])
        # minimum: as small as min_separator's, and it separates the pair
        assert len(out.separator) == len(min_separator(without_ab, {a}, {b}).s)
        assert len(out.separator) == out.routed - g.has_edge(a, b)
        assert not any(a in c and b in c for c in components(without_ab, out.separator))
    assert failures


def test_dispersed_routes_no_set_of_too_small_degree(monkeypatch):
    """A branch vertex of a fat TK(n, m) has (n - 1) * m paths leaving it
    by distinct neighbors, so is_dispersed does not route a set with a
    vertex of lower degree; such a routing could only fail."""
    g = truncate(make_generator("grid"), 12)
    routed: list[tuple[int, ...]] = []
    real = fattk._route

    def route(net, branch, m):
        routed.append(branch)
        return real(net, branch, m)

    monkeypatch.setattr(fattk, "_route", route)
    # all 100 ranked 4-sets have least degree 4 < 6
    assert len(_ranked(FlowNetwork(g), 4, 2, 100)) == 100
    verdict = is_dispersed(g, {0}, 4, 2, 1, search_budget=100)
    assert routed == [] and verdict.dispersed and verdict.examined == ()
    # 3-sets need degree 4, which the inner grid vertices have
    verdict = is_dispersed(g, {0}, 3, 2, 1, search_budget=100)
    assert routed and all(min(map(g.degree, b)) >= 4 for b in routed)
    assert verdict.examined
