"""Value semantics of the library's record classes.

Every record is built positionally or by keyword, compares equal to a
record of its own class with equal fields (and to nothing else), hashes
by those fields, prints as `Name(field=value, ...)`, refuses assignment
and deletion, and survives pickle and copy.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from nstree import (
    CertificateReport,
    DispersedCover,
    DispersednessVerdict,
    ExtensionStep,
    FatTKCertificate,
    FatTKFailure,
    GraphGenerator,
    NormalityReport,
    Path,
    PathFamily,
    RootedTree,
    RunTrace,
    Separator,
)

CERT = FatTKCertificate((0, 1), 1, {(0, 1): [(0, 1)]})
TREE = RootedTree(0, {2: 0, 3: 2})
STEP = {
    "step": 0,
    "component": frozenset({2, 3}),
    "attach_vertex": 0,
    "entry_vertex": 2,
    "targets": frozenset({3}),
    "selections": (((0, 1), 1),),
    "fallback_vertex": None,
    "added": ((2, 0), (3, 2)),
}
STEP_REPR = (
    "ExtensionStep(step=0, component=frozenset({2, 3}), attach_vertex=0, entry_vertex=2, "
    "targets=frozenset({3}), selections=(((0, 1), 1),), fallback_vertex=None, "
    "added=((2, 0), (3, 2)))"
)


def _rule(v: int) -> tuple[int, int]:
    return (v - 1, v + 1)


# name: (class, fields in declaration order, the same with one field
# changed, the exact repr)
CASES = {
    "Path": (Path, {"vertices": (1, 2, 3)}, {"vertices": (1, 3)}, "Path(vertices=(1, 2, 3))"),
    "PathFamily": (
        PathFamily,
        {"v": 1, "w": 3, "paths": (Path((1, 2, 3)), Path((1, 4, 3)))},
        {"v": 1, "w": 3, "paths": (Path((1, 2, 3)),)},
        "PathFamily(v=1, w=3, paths=(Path(vertices=(1, 2, 3)), Path(vertices=(1, 4, 3))))",
    ),
    "Separator": (
        Separator,
        {"s": frozenset({1}), "a": frozenset({0}), "b": frozenset({2, 3})},
        {"s": frozenset({1}), "a": frozenset({0}), "b": frozenset({2})},
        "Separator(s=frozenset({1}), a=frozenset({0}), b=frozenset({2, 3}))",
    ),
    "ExtensionStep": (ExtensionStep, STEP, {**STEP, "fallback_vertex": 3}, STEP_REPR),
    "RunTrace": (
        RunTrace,
        {"steps": (ExtensionStep(**STEP),), "tree": TREE, "status": "spanning"},
        {"steps": (ExtensionStep(**STEP),), "tree": TREE, "status": "budget-exhausted"},
        f"RunTrace(steps=({STEP_REPR},), tree=RootedTree(root=0, 3 vertices), status='spanning')",
    ),
    "DispersedCover": (
        DispersedCover,
        {"sets": (frozenset({0}), frozenset({1, 2}))},
        {"sets": (frozenset({0, 1, 2}),)},
        "DispersedCover(sets=(frozenset({0}), frozenset({1, 2})))",
    ),
    "CertificateReport": (
        CertificateReport,
        {"ok": False, "reason": "bad"},
        {"ok": False, "reason": "worse"},
        "CertificateReport(ok=False, reason='bad')",
    ),
    "FatTKFailure": (
        FatTKFailure,
        {"pair": (0, 1), "routed": 1, "separator": frozenset({5})},
        {"pair": (0, 1), "routed": 2, "separator": frozenset({5})},
        "FatTKFailure(pair=(0, 1), routed=1, separator=frozenset({5}))",
    ),
    "DispersednessVerdict": (
        DispersednessVerdict,
        {"dispersed": True, "bound": 1, "examined": ((CERT, frozenset({4})),)},
        {"dispersed": True, "bound": 1, "examined": ((CERT, frozenset({4, 5})),)},
        "DispersednessVerdict(dispersed=True, bound=1, "
        "examined=((FatTKCertificate(n=2, m=1), frozenset({4})),))",
    ),
    "NormalityReport": (
        NormalityReport,
        {"normal": False, "witness": (1, 2, (1, 2))},
        {"normal": False, "witness": (1, 2, (1, 0, 2))},
        "NormalityReport(normal=False, witness=(1, 2, (1, 2)))",
    ),
    "GraphGenerator": (
        GraphGenerator,
        {"name": "line", "root": 0, "rule": _rule},
        {"name": "line", "root": 1, "rule": _rule},
        f"GraphGenerator(name='line', root=0, rule={_rule!r})",
    ),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_keyword_and_positional_construction_agree(name):
    cls, fields, _, _ = CASES[name]
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    for field, value in fields.items():
        assert getattr(by_position, field) is value


@pytest.mark.parametrize("name", NAMES)
def test_equal_records_hash_alike(name):
    cls, fields, _, _ = CASES[name]
    a, b = cls(**fields), cls(**fields)
    assert a is not b and a == b
    if name == "DispersednessVerdict":
        # a certificate defines equality but no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        key = tuple(fields.values())
        if name == "GraphGenerator":
            key = key[:2]  # the rule takes no part
        assert hash(a) == hash(b) == hash(key)


@pytest.mark.parametrize("name", NAMES)
def test_different_fields_compare_unequal(name):
    cls, fields, changed, _ = CASES[name]
    assert cls(**fields) != cls(**changed)
    assert not cls(**fields) == cls(**changed)


@pytest.mark.parametrize("name", NAMES)
def test_other_classes_never_compare_equal(name):
    cls, fields, _, _ = CASES[name]
    a = cls(**fields)
    assert a.__eq__(tuple(fields.values())) is NotImplemented
    assert a != tuple(fields.values())

    class Sub(cls):
        __slots__ = ()

    assert a.__eq__(Sub(**fields)) is NotImplemented
    assert a != Sub(**fields)


def test_reports_with_equal_fields_differ_by_class():
    assert CertificateReport(True) != NormalityReport(True)
    assert FatTKFailure((0, 1), 1, frozenset()) != Separator((0, 1), 1, frozenset())


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    cls, fields, _, text = CASES[name]
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    cls, fields, changed, _ = CASES[name]
    a = cls(**fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, changed[field])
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**fields)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    # the generator case pickles because its rule is a module-level function
    cls, fields, _, text = CASES[name]
    a = cls(**fields)
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and repr(b) == text
    if name != "RunTrace":  # a RootedTree compares by identity
        assert b == a


@pytest.mark.parametrize("name", NAMES)
def test_copy_round_trip(name):
    cls, fields, _, text = CASES[name]
    a = cls(**fields)
    for b in (copy.copy(a), copy.deepcopy(a) if name != "RunTrace" else a):
        assert type(b) is cls and b == a and repr(b) == text


def test_defaults():
    assert CertificateReport(True) == CertificateReport(ok=True, reason=None)
    assert NormalityReport(True) == NormalityReport(normal=True, witness=None)
    assert repr(CertificateReport(True)) == "CertificateReport(ok=True, reason=None)"
    assert repr(NormalityReport(True)) == "NormalityReport(normal=True, witness=None)"


def test_reports_are_truthy_exactly_when_they_pass():
    assert CertificateReport(True) and not CertificateReport(False, "bad")
    assert NormalityReport(True) and not NormalityReport(False, (1, 2, (1, 2)))


def test_generator_rule_is_left_out_of_equality():
    a = GraphGenerator("line", 0, _rule)
    b = GraphGenerator("line", 0, lambda v: (v + 1,))
    assert a == b and hash(a) == hash(b)
    assert a != GraphGenerator("ray", 0, _rule)


def test_unhashable_fields_make_an_unhashable_record():
    assert hash(DispersednessVerdict(True, 1, ())) == hash((True, 1, ()))
    with pytest.raises(TypeError):
        hash(Path([1, 2]))


def test_path_validation_messages():
    with pytest.raises(ValueError, match="^a path has at least one vertex$"):
        Path(())
    with pytest.raises(ValueError, match=r"^repeated vertex in path \(1, 2, 1\)$"):
        Path((1, 2, 1))


def test_path_family_validation_messages():
    with pytest.raises(ValueError, match=r"^path \(1, 2\) does not run from 1 to 3$"):
        PathFamily(1, 3, (Path((1, 2)),))
    with pytest.raises(ValueError, match=r"^paths share interior vertices \[2\]$"):
        PathFamily(1, 3, (Path((1, 2, 3)), Path((1, 2, 4, 3))))
    assert len(PathFamily(v=1, w=3, paths=())) == 0


def test_methods_and_properties_survive():
    p = Path((3, 1, 2))
    assert p.ends == (3, 2) and p.interior == (1,) and p.edges() == ((1, 3), (1, 2))
    assert len(p) == 3 and list(p) == [3, 1, 2]
    fam = PathFamily(1, 3, (Path((1, 2, 3)), Path((1, 4, 3))))
    assert fam[2] == Path((1, 4, 3)) and list(fam) == list(fam.paths) and len(fam) == 2
    with pytest.raises(IndexError):
        fam[0]
    cover = DispersedCover((frozenset({0}), frozenset({1})))
    assert len(cover) == 2 and list(cover) == list(cover.sets)
    trace = RunTrace((ExtensionStep(**STEP),), TREE, "spanning")
    assert trace.prefix_tree(0).vertices == (0,)
    assert sorted(trace.prefix_tree(1).vertices) == [0, 2, 3]
    verdict = DispersednessVerdict(False, 0, ((CERT, frozenset({4})),))
    assert verdict.witness == (CERT, frozenset({4}))
    assert GraphGenerator("line", 0, _rule).neighbors(5) == (4, 6)


# a subclass of each record that adds no field, made at module level so
# that pickle finds it by name
SUBS = {}
for _name, (_cls, *_) in CASES.items():
    SUBS[_name] = globals()[f"Sub{_name}"] = type(f"Sub{_name}", (_cls,), {"__slots__": ()})


@pytest.mark.parametrize("name", NAMES)
def test_a_subclass_with_no_new_field_keeps_its_parents_fields(name):
    cls, fields, changed, text = CASES[name]
    sub = SUBS[name]
    a = sub(**fields)
    assert repr(a) == f"Sub{text}"
    assert a == sub(*fields.values()) and not a != sub(*fields.values())
    assert a != sub(**changed) and not a == sub(**changed)
    assert a != cls(**fields)
    if name != "DispersednessVerdict":  # its certificate has no hash
        key = tuple(fields.values())[: 2 if name == "GraphGenerator" else None]
        assert hash(a) == hash(sub(**fields)) == hash(key)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is sub and repr(b) == repr(a)
        if name != "RunTrace" or b.tree is a.tree:  # a RootedTree compares by identity
            assert b == a


def test_a_subclass_keeps_its_parents_checks():
    with pytest.raises(ValueError, match="^a path has at least one vertex$"):
        SUBS["Path"](())
    with pytest.raises(ValueError, match=r"^paths share interior vertices \[2\]$"):
        SUBS["PathFamily"](1, 3, (Path((1, 2, 3)), Path((1, 2, 4, 3))))


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_call_raises_pythons_own_type_error(name):
    cls, fields, _, _ = CASES[name]
    values = tuple(fields.values())
    first = next(iter(fields))
    call = rf"^{name}\.__init__\(\) "
    with pytest.raises(TypeError, match=rf"{call}missing 1 required .*'{first}'$"):
        cls(**{f: v for f, v in fields.items() if f != first})
    with pytest.raises(TypeError, match=rf"{call}takes .* but {len(values) + 2} were given$"):
        cls(*values, None)
    with pytest.raises(TypeError, match=rf"{call}got an unexpected keyword argument 'extra'$"):
        cls(**fields, extra=None)
    with pytest.raises(TypeError, match=rf"{call}got multiple values for argument '{first}'$"):
        cls(values[0], **fields)


def test_built_constructors_read_like_written_ones():
    assert str(inspect.signature(CertificateReport)) == "(ok, reason=None)"
    assert str(inspect.signature(NormalityReport)) == "(normal, witness=None)"
    assert str(inspect.signature(Separator)) == "(s, a, b)"
    init = ExtensionStep.__init__
    assert (init.__module__, init.__qualname__) == ("nstree.construct", "ExtensionStep.__init__")
    assert SUBS["Separator"].__init__ is Separator.__init__
