from __future__ import annotations

import re
from collections import Counter

import pytest

from nstree import Graph, GraphGenerator, is_connected, make_generator, truncate
from nstree.generators import _pair_id, _unpair, binary_tree, double_ray, fat_tk, grid, ray
from oracles import ref_truncate, ref_unpair


def test_ray_truncation():
    g = truncate(ray(), 3)
    assert g == Graph(range(4), [(0, 1), (1, 2), (2, 3)])


def test_double_ray_truncation():
    g = truncate(double_ray(), 2)
    assert g.vertices == (-2, -1, 0, 1, 2)
    assert g.edges == ((-2, -1), (-1, 0), (0, 1), (1, 2))


def test_binary_tree_radius_one():
    g = truncate(binary_tree(), 1)
    assert len(g) == 3
    assert g.edges == ((0, 1), (0, 2))


def test_grid_radius_one():
    g = truncate(grid(), 1)
    assert g.vertices == (0, 1, 2)
    assert len(g.edges) == 2


def test_grid_radius_two_counts():
    # lattice points with x+y <= 2; unit steps only
    g = truncate(grid(), 2)
    assert len(g) == 6
    assert len(g.edges) == 6


def test_radius_zero_is_root():
    for gen in (ray(), double_ray(), binary_tree(), grid(), fat_tk(3, 2)):
        g = truncate(gen, 0)
        assert g.vertices == (gen.root,)
        assert g.edges == ()


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        truncate(ray(), -1)


@pytest.mark.parametrize("k", [1.5, True])
def test_radius_that_is_not_an_int_rejected(k):
    with pytest.raises(ValueError, match=f"^{re.escape(f'radius must be an integer, got {k!r}')}$"):
        truncate(grid(), k)


@pytest.mark.parametrize(
    "gen",
    [ray(), double_ray(), binary_tree(), grid(), fat_tk(3, 2), fat_tk(4, 1)],
    ids=lambda g: g.name,
)
def test_truncation_monotone(gen):
    prev = truncate(gen, 0)
    for k in range(1, 5):
        cur = truncate(gen, k)
        assert set(prev.vertices) <= set(cur.vertices)
        assert set(prev.edges) <= set(cur.edges)
        assert is_connected(cur)
        # ball is an induced subgraph: no edge of cur joins two prev
        # vertices without being a prev edge
        for u, v in cur.edges:
            if u in prev and v in prev:
                assert prev.has_edge(u, v)
        prev = cur


def test_fat_tk_core_structure():
    # n=3, m=2: branch pairs joined through 2 subdivision vertices each;
    # the whole core sits within distance 3 of branch vertex 0
    gen = fat_tk(3, 2)
    core = truncate(gen, 3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        shared = set(core.neighbors(a)) & set(core.neighbors(b))
        assert len(shared) == 2, f"pair {(a, b)} should have 2 subdivision vertices"


def test_fat_tk_rays_grow_linearly():
    # once the core is swallowed, each radius step adds one ray vertex
    # per branch vertex
    gen = fat_tk(3, 2)
    sizes = [len(truncate(gen, k)) for k in range(3, 7)]
    assert all(b - a == 3 for a, b in zip(sizes, sizes[1:]))


def test_fat_tk_parameter_validation():
    with pytest.raises(ValueError):
        fat_tk(1, 2)
    with pytest.raises(ValueError):
        fat_tk(3, 0)


@pytest.mark.parametrize("bad", [True, 1.0, "2"], ids=["True", "1.0", "'2'"])
@pytest.mark.parametrize(
    ("name", "build"),
    [
        ("n", lambda x: fat_tk(x, 2)),
        ("m", lambda x: fat_tk(3, x)),
        ("n", lambda x: make_generator("fat-tk-gen", x, 2)),
        ("m", lambda x: make_generator("fat-tk-gen", 3, x)),
    ],
    ids=["fat_tk n", "fat_tk m", "make_generator n", "make_generator m"],
)
def test_fat_tk_parameters_that_are_not_ints_rejected(name, build, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"):
        build(bad)


@pytest.mark.parametrize(
    "gen",
    [ray(), double_ray(), binary_tree(), grid(), fat_tk(3, 2), fat_tk(4, 3)],
    ids=lambda gen: gen.name,
)
def test_make_generator_rebuilds_each_generator_from_its_name(gen):
    rebuilt = make_generator(gen.name)
    assert rebuilt.name == gen.name and rebuilt == gen
    assert truncate(rebuilt, 3) == truncate(gen, 3)


@pytest.mark.parametrize(
    "name, message",
    [
        # parameters are canonical decimals, as parse_id reads ids
        ("fat-tk-gen(03,2)", "fat-tk-gen(N,M) expects decimal N and M, got 'fat-tk-gen(03,2)'"),
        ("fat-tk-gen(3,\u0662)",
         "fat-tk-gen(N,M) expects decimal N and M, got 'fat-tk-gen(3,\u0662)'"),
        ("fat-tk-gen(3,2,1)", "fat-tk-gen(N,M) expects decimal N and M, got 'fat-tk-gen(3,2,1)'"),
        ("fat-tk-gen(3,2)\n",
         "unknown generator 'fat-tk-gen(3,2)\\n' (known: binary-tree, double-ray, fat-tk-gen, "
         "grid, ray)"),
        # a parameter read in full is fat_tk's to check
        ("fat-tk-gen(1,2)", "need n >= 2 branch vertices and m >= 1 paths, got n=1, m=2"),
    ],
    ids=["leading zero", "arabic-indic digit", "three parameters", "newline", "n=1"],
)
def test_make_generator_refuses_a_malformed_name(name, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_generator(name)


def test_make_generator():
    assert make_generator("ray").name == "ray"
    assert make_generator("fat-tk-gen", 3, 2).name == "fat-tk-gen(3,2)"
    with pytest.raises(ValueError):
        make_generator("unknown-thing")
    with pytest.raises(ValueError):
        make_generator("fat-tk-gen")


def test_generator_rule_failure_propagates():
    gen = fat_tk(2, 1)
    with pytest.raises(ValueError):
        gen.neighbors(-5)


def test_unpair_closed_form_matches_the_diagonal_walk():
    for z in range(10**5):
        assert _unpair(z) == ref_unpair(z)
    for x in range(300):
        for y in range(300):
            assert _unpair(_pair_id(x, y)) == (x, y)


@pytest.mark.parametrize(
    ("gen", "k"), [(grid(), 30), (ray(), 3000), (fat_tk(3, 2), 8), (grid(), 0), (binary_tree(), 5)],
    ids=lambda x: x.name if isinstance(x, GraphGenerator) else str(x),
)
def test_truncate_asks_each_ball_vertex_rule_once(gen, k):
    calls = Counter()

    def rule(v):
        calls[v] += 1
        return gen.rule(v)

    g = truncate(GraphGenerator(gen.name, gen.root, rule), k)
    assert sorted(calls) == list(g.vertices)
    assert set(calls.values()) == {1}
    assert g == ref_truncate(gen, k)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_truncate_checks_every_ball_vertex_for_a_self_loop(where):
    # the ray with a loop at vertex `where`; radius 2 makes 2 the outer layer
    gen = GraphGenerator("looped-ray", 0, lambda v: ray().rule(v) + ((v,) if v == where else ()))
    with pytest.raises(ValueError, match=f"^generator 'looped-ray' produced a self-loop at {where}$"):
        truncate(gen, 2)
