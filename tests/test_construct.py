from __future__ import annotations

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs_st, random_connected_graph
from nstree import (
    BUDGET_EXHAUSTED,
    DispersedCover,
    Graph,
    RootedTree,
    SPANNING,
    TARGET_COVERED,
    components,
    dfs_nst,
    induced_subgraph,
    is_normal,
    levels_of,
    local_normal_tree,
    nst_from_dispersed_cover,
    omega_nst,
    tree_leq,
    truncate,
)
from nstree.connectivity import FlowNetwork, _network
from nstree.construct import _dfs, _extend
from nstree.generators import fat_tk, grid
from oracles import normal_spanning_trees, ref_dfs, ref_run

K4 = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
C4 = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])


def test_dfs_nst_cycle():
    t = dfs_nst(C4, 1)
    assert t.parent_map == {2: 1, 3: 2, 4: 3}


def test_dfs_nst_k4_is_a_path():
    t = dfs_nst(K4, 1)
    assert t.parent_map == {2: 1, 3: 2, 4: 3}
    assert is_normal(K4, t).normal


def test_dfs_nst_tree_reroot():
    g = Graph(edges=[(0, 1), (1, 2), (1, 3)])
    t = dfs_nst(g, 2)
    assert t.vertex_set == g.vertex_set
    assert set(t.edges()) == set(g.edges)


def test_dfs_nst_rejects_disconnected():
    with pytest.raises(ValueError):
        dfs_nst(Graph([1, 2]), 1)


@pytest.mark.parametrize(
    "run",
    [
        dfs_nst,
        omega_nst,
        lambda g, r: local_normal_tree(g, {3}, r),
        lambda g, r: nst_from_dispersed_cover(g, DispersedCover((g.vertex_set,)), r),
    ],
    ids=["dfs_nst", "omega_nst", "local_normal_tree", "nst_from_dispersed_cover"],
)
@pytest.mark.parametrize("root", [True, 1.0], ids=["True", "1.0"])
def test_a_root_equal_to_an_id_but_not_an_int_is_refused(run, root):
    # True and 1.0 equal the vertex 1 of K4, as ids Graph refuses
    with pytest.raises(TypeError) as want:
        Graph([root])
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        run(K4, root)


def test_jung_subtree_triangle():
    g = Graph(edges=[(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    t = RootedTree(0, _dfs(induced_subgraph(g, {0, 1, 2}), 0))
    assert t.vertex_set == {0, 1, 2}
    assert is_normal(Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)]), t).normal


def test_jung_subtree_full_vertex_set():
    assert RootedTree(1, _dfs(K4, 1)) == dfs_nst(K4, 1)


def test_dfs_inside_matches_dfs_of_induced_subgraph():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 14), rng.choice([0.05, 0.2, 0.5]))
        inside = components(g, frozenset(rng.sample(g.vertices, rng.randint(0, len(g) // 2))))[0]
        r = rng.choice(sorted(inside))
        assert _dfs(induced_subgraph(g, inside), r) == ref_dfs(g, r, inside)


def _seeded_graphs():
    """120 seeded random connected graphs with 2-45 vertices and a root."""
    for seed in range(120):
        rng = random.Random(900 + seed)
        g = random_connected_graph(rng, rng.randint(2, 45), rng.choice([0.02, 0.1, 0.3]))
        yield rng, g, rng.choice(g.vertices)


def test_dfs_matches_the_reference_stack_search_in_key_order():
    for rng, g, r in _seeded_graphs():
        for inside in (
            g.vertex_set,
            frozenset(rng.sample(g.vertices, rng.randint(0, len(g))) + [r]),
        ):
            got = _dfs(induced_subgraph(g, inside), r)
            assert list(got.items()) == list(ref_dfs(g, r, inside).items())


def test_dfs_nst_matches_the_checked_constructor():
    for _, g, r in _seeded_graphs():
        got = dfs_nst(g, r)
        want = RootedTree(r, ref_dfs(g, r, g.vertex_set))
        assert got == want
        assert (got._pre, got._end, got._index) == (want._pre, want._end, want._index)
        assert got.vertices == want.vertices
        for v in g.vertices:
            assert got.children(v) == want.children(v)
            assert got.depth(v) == want.depth(v)
        assert levels_of(got) == levels_of(want)


def test_local_prunes_to_target_down_closures():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    trace = local_normal_tree(g, {2}, 0)
    assert trace.status == TARGET_COVERED
    assert trace.tree.parent_map == {1: 0, 2: 1}
    (step,) = trace.steps
    assert (step.component, step.attach_vertex, step.entry_vertex) == ({1, 2, 3}, 0, 1)
    # a target at the bottom of the component's depth-first tree keeps all of it
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (1, 3)])
    trace = local_normal_tree(g, {3}, 0)
    assert trace.status == SPANNING
    assert trace.tree.parent_map == {1: 0, 2: 1, 3: 2}
    assert len(trace.steps) == 1
    assert is_normal(g, trace.tree).normal


def test_local_enters_at_least_neighbor_of_deepest_tree_neighbor():
    # after the first sweep the tree is 0-1; the component {2, 3, 4, 5}
    # has tree neighbors 0 (via 2) and 1 (via 4 and 5), so the second
    # extension hangs below 1 and enters at 4, not at the least vertex 2
    g = Graph(edges=[(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (1, 4), (1, 5)])
    trace = local_normal_tree(g, {1, 3}, 0)
    assert trace.status == TARGET_COVERED
    first, second = trace.steps
    assert first.added == ((1, 0),)
    assert (second.component, second.attach_vertex, second.entry_vertex) == ({2, 3, 4, 5}, 1, 4)
    assert (4, 1) in second.added
    assert is_normal(g, trace.tree).normal


def _grown(t: RootedTree, tree: set[int]) -> RootedTree:
    """The tree that the down-closed vertex set tree spans in t."""
    return RootedTree(t.root, {v: p for v, p in t.parent_map.items() if v in tree})


def test_attach_cycle_completion():
    # the path 1-2-3 in C4 leaves {4} with the chain of neighbors 1 and 3
    t = dfs_nst(C4, 1)
    assert t.parent_map == {2: 1, 3: 2, 4: 3}
    tree = {1, 2, 3}
    out = _extend(t, tree, 4, frozenset({1, 3}), frozenset({4}))
    assert out == (3, ((4, 3),), [])
    assert tree == {1, 2, 3, 4}
    assert is_normal(C4, _grown(t, tree)).normal


def test_extend_into_component_path_pruning():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    t = dfs_nst(g, 0)
    tree = {0}
    out = _extend(t, tree, 1, frozenset({0}), frozenset({2}))
    assert out[2] == [3]
    grown = _grown(t, tree)
    assert grown.vertex_set == {0, 1, 2}
    assert grown.parent_map == {1: 0, 2: 1}


def test_extend_into_component_full_targets():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (1, 3)])
    d = frozenset({1, 2, 3})
    t = dfs_nst(g, 0)
    tree = {0}
    _extend(t, tree, 1, frozenset({0}), d)
    grown = _grown(t, tree)
    assert grown.vertex_set == g.vertex_set
    assert is_normal(g, grown).normal


def test_extend_rejects_a_neighborhood_that_is_not_a_chain():
    # star 1-2, 1-4 in C4 leaves {3} with the incomparable neighbors 2 and 4
    # (no depth-first tree of C4 holds this star, so the tree is made by hand)
    t = RootedTree(1, {2: 1, 4: 1, 3: 2})
    with pytest.raises(AssertionError, match="not a chain"):
        _extend(t, {1, 2, 4}, 3, frozenset({2, 4}), frozenset({3}))


def test_extend_rejects_a_top_whose_parent_is_not_a_tree_neighbor():
    # the component {2, 3} below the tree 0-1 of the path 0-1-2-3, named
    # by 3: the depth-first tree enters it from 1 at 2, so 3's parent 2
    # is no tree neighbor
    g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    with pytest.raises(AssertionError, match="top 3 hangs below 2, which is not a tree neighbor"):
        _extend(dfs_nst(g, 0), {0, 1}, 3, frozenset({1}), frozenset({3}))


@pytest.mark.parametrize("kwargs", [{"step_budget": -1}, {"kappa_small": -3}])
def test_negative_budget_and_kappa_small_rejected(kwargs):
    cover = DispersedCover((K4.vertex_set,))
    with pytest.raises(ValueError, match="non-negative"):
        omega_nst(K4, 1, **kwargs)
    with pytest.raises(ValueError, match="non-negative"):
        local_normal_tree(K4, {2}, 1, **kwargs)
    with pytest.raises(ValueError, match="non-negative"):
        nst_from_dispersed_cover(K4, cover, 1, **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"step_budget": 1.5}, "step budget must be an integer, got 1.5"),
        ({"step_budget": True}, "step budget must be an integer, got True"),
        ({"kappa_small": 0.5}, "kappa_small must be an integer, got 0.5"),
        ({"kappa_small": True}, "kappa_small must be an integer, got True"),
    ],
)
def test_budget_and_kappa_small_that_are_not_ints_rejected(kwargs, message):
    cover = DispersedCover((K4.vertex_set,))
    message = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=message):
        omega_nst(K4, 1, **kwargs)
    with pytest.raises(ValueError, match=message):
        local_normal_tree(K4, {2}, 1, **kwargs)
    with pytest.raises(ValueError, match=message):
        nst_from_dispersed_cover(K4, cover, 1, **kwargs)


def test_omega_single_vertex():
    trace = omega_nst(Graph([7]), 7)
    assert trace.status == SPANNING
    assert trace.steps == ()
    assert len(trace.tree) == 1


def test_omega_k4():
    trace = omega_nst(K4, 1)
    assert trace.status == SPANNING
    assert is_normal(K4, trace.tree).normal
    key = tuple(sorted(trace.tree.parent_map.items()))
    assert key in normal_spanning_trees(K4, 1)


def test_omega_5x5_grid():
    def vid(x, y):
        return 5 * y + x

    edges = []
    for y in range(5):
        for x in range(5):
            if x < 4:
                edges.append((vid(x, y), vid(x + 1, y)))
            if y < 4:
                edges.append((vid(x, y), vid(x, y + 1)))
    g = Graph(edges=edges)
    trace = omega_nst(g, 0, step_budget=50)
    assert trace.status == SPANNING
    assert is_normal(g, trace.tree).normal


def test_omega_budget_exhaustion():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    trace = omega_nst(g, 0, step_budget=1)
    assert trace.status == BUDGET_EXHAUSTED
    assert is_normal(g, trace.tree).normal
    assert len(trace.tree) < len(g)


def test_omega_trace_replays_to_prefix_trees():
    g = random_connected_graph(random.Random(5), 10, 0.35)
    trace = omega_nst(g, 0)
    assert trace.status == SPANNING
    grown = trace.prefix_tree(len(trace.steps))
    assert grown == trace.tree
    prev = 1
    for k in range(len(trace.steps) + 1):
        t = trace.prefix_tree(k)
        assert is_normal(g, t).normal
        assert len(t) >= prev or k == 0
        prev = len(t)


def test_prefix_tree_rejects_a_count_out_of_range():
    trace = omega_nst(K4, 1)
    assert len(trace.steps) == 3
    assert trace.prefix_tree(0) == RootedTree(1)
    assert trace.prefix_tree(3) == trace.tree
    for count in (-1, 4):
        with pytest.raises(ValueError, match=f"^prefix count must be in 0..3, got {count}$"):
            trace.prefix_tree(count)


def test_omega_selection_indices_are_valid():
    from nstree import max_independent_paths

    g = random_connected_graph(random.Random(11), 9, 0.4)
    trace = omega_nst(g, 0)
    for step in trace.steps:
        for (v, w), k in step.selections:
            fam = max_independent_paths(g, v, w)
            chosen = fam[k]
            assert set(chosen.vertices) & step.component
            for j in range(1, k):
                assert not set(fam[j].vertices) & step.component


def test_omega_kappa_small_still_spans():
    g = random_connected_graph(random.Random(3), 9, 0.5)
    trace = omega_nst(g, 0, kappa_small=1)
    assert trace.status == SPANNING
    assert is_normal(g, trace.tree).normal


def test_omega_rejects_disconnected():
    with pytest.raises(ValueError):
        omega_nst(Graph([1, 2]), 1)


@pytest.mark.parametrize("edges, root", [
    ([(0, 1), (2, 3)], 0),  # the root has a neighbor, but not in {2, 3}
    ([(0, 1), (1, 2), (3, 4)], 1),
    ([(1, 2)], 0),  # an isolated root
])
def test_disconnected_is_reported_before_the_budget_checks(edges, root):
    g = Graph([0], edges)
    with pytest.raises(ValueError, match="graph is disconnected"):
        omega_nst(g, root, step_budget=-1, kappa_small=-1)
    with pytest.raises(ValueError, match="graph is disconnected"):
        local_normal_tree(g, {root}, root, step_budget=-1)
    with pytest.raises(ValueError, match="graph is disconnected"):
        nst_from_dispersed_cover(g, DispersedCover((g.vertex_set,)), root, kappa_small=-1)


def test_local_root_only():
    trace = local_normal_tree(K4, {1}, 1)
    assert trace.status == TARGET_COVERED
    assert len(trace.tree) == 1


def test_local_full_vertex_set_spans():
    trace = local_normal_tree(K4, K4.vertex_set, 1)
    assert trace.status == SPANNING
    assert trace.tree == omega_nst(K4, 1).tree


def test_local_skips_unrelated_components():
    # long path; u deep on one side only
    g = Graph(edges=[(i, i + 1) for i in range(8)])
    trace = local_normal_tree(g, {2}, 4)
    assert trace.status == TARGET_COVERED
    assert 2 in trace.tree
    assert not {5, 6, 7, 8} & trace.tree.vertex_set


def test_local_validation():
    with pytest.raises(ValueError):
        local_normal_tree(K4, {9}, 1)


def test_cover_single_class_matches_omega():
    cover = DispersedCover((K4.vertex_set,))
    trace = nst_from_dispersed_cover(K4, cover, 1)
    assert trace.status == SPANNING
    assert trace.tree == omega_nst(K4, 1).tree


def test_cover_singletons():
    g = random_connected_graph(random.Random(9), 8, 0.3)
    cover = DispersedCover(tuple(frozenset({v}) for v in g.vertices))
    trace = nst_from_dispersed_cover(g, cover, 0)
    assert trace.status == SPANNING
    assert is_normal(g, trace.tree).normal


def test_cover_validation():
    with pytest.raises(ValueError):
        nst_from_dispersed_cover(K4, DispersedCover((frozenset({1, 2}),)), 1)
    with pytest.raises(ValueError):
        nst_from_dispersed_cover(
            K4, DispersedCover((K4.vertex_set, frozenset({99}))), 1
        )


def test_levels_path_and_star():
    assert levels_of(RootedTree(0, {1: 0, 2: 1})).sets == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    )
    assert levels_of(RootedTree(0, {1: 0, 2: 0, 3: 0})).sets == (
        frozenset({0}),
        frozenset({1, 2, 3}),
    )


def test_levels_partition_grid_tree():
    def vid(x, y):
        return 4 * y + x

    edges = []
    for y in range(4):
        for x in range(4):
            if x < 3:
                edges.append((vid(x, y), vid(x + 1, y)))
            if y < 3:
                edges.append((vid(x, y), vid(x, y + 1)))
    g = Graph(edges=edges)
    t = dfs_nst(g, 0)
    cover = levels_of(t)
    flat = [v for s in cover.sets for v in s]
    assert sorted(flat) == list(g.vertices)
    for level in cover.sets:
        for u, v in combinations(sorted(level), 2):
            assert not tree_leq(t, u, v) and not tree_leq(t, v, u)


@settings(max_examples=200, deadline=None)
@given(connected_graphs_st(), st.randoms(use_true_random=False))
def test_omega_random_prefixes_normal_and_growing(g, rng):
    r = rng.choice(g.vertices)
    trace = omega_nst(g, r)
    assert trace.status == SPANNING
    assert len(trace.steps) <= len(g)
    seen = {r}
    for step in trace.steps:
        new = {c for c, _ in step.added}
        assert new and not (new & seen)
        assert step.targets <= step.component
        assert step.entry_vertex in step.component
        assert step.attach_vertex in seen
        seen |= new
    assert seen == g.vertex_set


@settings(max_examples=150, deadline=None)
@given(connected_graphs_st(min_n=2), st.randoms(use_true_random=False))
def test_local_covers_u_and_is_normal(g, rng):
    r = rng.choice(g.vertices)
    size = rng.randrange(1, len(g) + 1)
    u = frozenset(rng.sample(g.vertices, size))
    trace = local_normal_tree(g, u, r)
    assert u | {r} <= trace.tree.vertex_set
    assert is_normal(g, trace.tree).normal
    if trace.tree.vertex_set == g.vertex_set:
        assert trace.status == SPANNING
    else:
        assert trace.status == TARGET_COVERED


@settings(max_examples=120, deadline=None)
@given(connected_graphs_st(min_n=2), st.randoms(use_true_random=False))
def test_cover_random_spans_normal(g, rng):
    r = rng.choice(g.vertices)
    vs = list(g.vertices)
    rng.shuffle(vs)
    k = rng.randrange(1, 4)
    sets = [frozenset(vs[i::k]) for i in range(k) if vs[i::k]]
    trace = nst_from_dispersed_cover(g, DispersedCover(tuple(sets)), r)
    assert trace.status == SPANNING
    assert is_normal(g, trace.tree).normal
    for level in levels_of(trace.tree).sets:
        for u, v in combinations(sorted(level), 2):
            assert not tree_leq(trace.tree, u, v)


def test_truncation_runs_stay_normal():
    for gen, budget in ((grid(), 3), (fat_tk(3, 2), 2)):
        g = truncate(gen, 4)
        trace = omega_nst(g, gen.root, step_budget=budget)
        assert trace.status in (SPANNING, BUDGET_EXHAUSTED)
        for k in range(len(trace.steps) + 1):
            assert is_normal(g, trace.prefix_tree(k)).normal


def test_every_component_is_extended_each_sweep():
    g = random_connected_graph(random.Random(17), 11, 0.25)
    trace = omega_nst(g, 0, step_budget=2)
    by_sweep: dict[int, set[frozenset[int]]] = {}
    for step in trace.steps:
        by_sweep.setdefault(step.step, set()).add(step.component)
    count = 0
    for sweep in sorted(by_sweep):
        t = trace.prefix_tree(count)
        expect = set(components(g, t.vertex_set))
        assert by_sweep[sweep] == expect
        count += len(by_sweep[sweep])


@pytest.mark.parametrize("seed", range(4))
def test_local_extends_the_components_meeting_u_each_sweep(seed):
    """Components that miss u are passed over and carried to the next
    sweep; every sweep extends into exactly the components of G - T
    that meet u."""
    rng = random.Random(40 + seed)
    g = random_connected_graph(rng, 14, 0.2)
    u = frozenset(rng.sample(g.vertices, 3))
    trace = local_normal_tree(g, u, 0)
    by_sweep: dict[int, list[frozenset[int]]] = {}
    for step in trace.steps:
        by_sweep.setdefault(step.step, []).append(step.component)
    count = 0
    for sweep in sorted(by_sweep):
        t = trace.prefix_tree(count)
        assert by_sweep[sweep] == [d for d in components(g, t.vertex_set) if d & u]
        count += len(by_sweep[sweep])


def _sweep_cases():
    """300 seeded random connected graphs with 2-40 vertices, apart from
    the golden traces' seeds, each with a root, a step budget, a
    kappa_small, a target set and a cover. Every fourth graph is a tree
    and most others are sparse, so many vertices are cut vertices; every
    third case is rooted at one when the graph has one."""
    for seed in range(300):
        rng = random.Random(7000 + seed)
        n = rng.randint(2, 40)
        g = random_connected_graph(rng, n, 0.0 if seed % 4 == 0 else rng.choice([0.02, 0.06, 0.15, 0.4]))
        cuts = [v for v in g.vertices if len(components(g, {v})) > 1]
        r = rng.choice(cuts) if seed % 3 == 0 and cuts else rng.randrange(n)
        budget = rng.randint(0, 3) if seed % 5 == 2 else None
        kappa_small = rng.randint(0, 3) if seed % 4 == 1 else None
        u = frozenset(rng.sample(g.vertices, rng.randint(1, min(4, n))))
        vs = list(g.vertices)
        rng.shuffle(vs)
        k = rng.randint(1, 4)
        cover = DispersedCover(tuple(frozenset(vs[i::k]) for i in range(k) if vs[i::k]))
        yield g, r, budget, kappa_small, u, cover


def _entry_point_runs(g, r, budget, kappa_small, u, cover):
    """Each entry point's trace, with the skip and extra_target that the
    reference loop needs to run it: (name, trace, skip, extra_target)."""

    def first_class_target(d):
        return next(min(s & d) for s in cover.sets if s & d)

    yield "omega", omega_nst(g, r, budget, kappa_small), None, None
    yield (
        "local", local_normal_tree(g, u, r, budget, kappa_small),
        lambda d: not (u & d), lambda d: min(u & d),
    )
    yield "cover", nst_from_dispersed_cover(g, cover, r, budget, kappa_small), None, first_class_target


def test_sweep_runs_match_the_reference_loop():
    seen = {SPANNING: 0, BUDGET_EXHAUSTED: 0, TARGET_COVERED: 0}
    cut_roots = carried = 0
    for g, r, budget, kappa_small, u, cover in _sweep_cases():
        cut_roots += len(components(g, {r})) > 1
        for name, trace, skip, extra_target in _entry_point_runs(g, r, budget, kappa_small, u, cover):
            want = ref_run(g, r, budget, kappa_small, skip, extra_target)
            assert trace == want, (name, r, budget, kappa_small)
            assert (trace.tree._pre, trace.tree._end) == (want.tree._pre, want.tree._end)
            seen[trace.status] += 1
            if name == "local" and trace.steps:
                # a component outside the tree that the last sweep did not
                # extend into was skipped and carried through that sweep
                last = [s.component for s in trace.steps if s.step == trace.steps[-1].step]
                left = components(g, trace.tree.vertex_set)
                carried += any(all(c.isdisjoint(d) for d in last) for c in left)
    assert min(seen.values()) >= 30, seen
    assert cut_roots >= 100 and carried >= 30, (cut_roots, carried)


def test_sweep_runs_grow_inside_the_dfs_tree():
    """Every extension is a down-closed part of the depth-first tree
    from the root, so a spanning run builds exactly dfs_nst."""
    for g, r, budget, kappa_small, u, cover in _sweep_cases():
        dfs = dfs_nst(g, r)
        dfs_parent = dfs.parent_map
        for _name, trace, _skip, _extra in _entry_point_runs(g, r, budget, kappa_small, u, cover):
            for step in trace.steps:
                assert dfs.parent(step.entry_vertex) == step.attach_vertex
                for v, p in step.added:
                    assert dfs_parent[v] == p
            tree = trace.tree
            assert tree.parent_map == {v: p for v, p in dfs_parent.items() if v in tree}
            if trace.status == SPANNING:
                assert tree == dfs


def _counted_pair_flows(monkeypatch) -> list[tuple[int, int]]:
    """Record the ends of every flow a FlowNetwork computes for a pair."""
    flows: list[tuple[int, int]] = []
    real = FlowNetwork._pair_flow

    def pair_flow(self, v, w, *args):
        flows.append((v, w))
        return real(self, v, w, *args)

    monkeypatch.setattr(FlowNetwork, "_pair_flow", pair_flow)
    return flows


def _copy(g: Graph) -> Graph:
    """An equal Graph object, which gets a network (and memo) of its own."""
    return Graph(g.vertices, g.edges)


def test_a_second_sweep_on_one_graph_reuses_the_families(monkeypatch):
    g = truncate(grid(), 6)
    flows = _counted_pair_flows(monkeypatch)
    fresh = omega_nst(_copy(g), 2)
    fresh_flows = len(flows)
    omega_nst(g, 0)
    del flows[:]
    assert omega_nst(g, 2) == fresh
    assert len(flows) < fresh_flows
    # a run from a root already swept finds every family it needs
    del flows[:]
    omega_nst(g, 0)
    assert flows == []


def test_sweeps_on_alternating_graphs_match_fresh_networks():
    a = truncate(grid(), 5)
    b = random_connected_graph(random.Random(3), 14, 0.3)
    expected = {id(g): omega_nst(_copy(g), 0) for g in (a, b)}
    for g in (a, b, a):
        assert omega_nst(g, 0) == expected[id(g)]


def test_sweeps_with_and_without_kappa_small_match_fresh_networks():
    a = truncate(grid(), 5)
    u = frozenset(a.vertices[-3:])
    cover = levels_of(dfs_nst(a, 0))
    runs = [
        lambda g: omega_nst(g, 4),
        lambda g: omega_nst(g, 4, kappa_small=2),
        lambda g: local_normal_tree(g, u, 4, kappa_small=2),
        lambda g: nst_from_dispersed_cover(g, cover, 4),
        lambda g: omega_nst(g, 4),
    ]
    expected = [run(_copy(a)) for run in runs]
    assert expected[0] != expected[1]
    assert [run(a) for run in runs] == expected
    # the memo is keyed by the path limit as well as by the pair
    net = _network(a)
    assert net.graph is a and {limit for _v, _w, limit in net._families} == {None, 3}


def test_a_kappa_small_sweep_reads_the_held_full_families(monkeypatch):
    """A limited family follows from the full one held for its pair:
    None when that has at least `limit` paths, else the full family."""
    g = truncate(grid(), 6)
    for r in g.vertices:
        omega_nst(g, r)
    flows = _counted_pair_flows(monkeypatch)
    got = [omega_nst(g, r, kappa_small=2) for r in g.vertices]
    # 181 when every (v, w, 3) family is computed anew
    assert len(flows) == 59
    assert got == [omega_nst(_copy(g), r, kappa_small=2) for r in g.vertices]
