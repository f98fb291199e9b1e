"""The package's result records: frozen, typed by class, and cheap to import.

Every record class is checked against the behaviour a frozen dataclass with
the same fields has: field order, construction, equality, hashing, `repr`,
immutability, `__match_args__` and `__post_init__`.
"""

import dataclasses
import inspect
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import tokengraphs
from tokengraphs import (
    ContractEdge,
    DeleteEdge,
    DeleteVertex,
    KSubset,
    PlanarityVerdict,
    SearchEntry,
    SearchReport,
    TokenGraph,
    build_token_graph,
    canonical_form,
    classify_planarity,
    classify_regularity,
    complete_graph,
    cycle_graph,
    decode_graph6,
    edge_maximal_search,
    is_planar,
    lift_script,
    partition_uv,
    path_graph,
    uniform_substitution_degree,
)
from tokengraphs._record import Record

SRC = Path(__file__).resolve().parent.parent / "src"


def _samples():
    """One instance of every record class, each from the call that makes it."""
    irregular = classify_regularity(decode_graph6("DhC"), 2)
    lifted = lift_script(path_graph(3), 2, [DeleteEdge(0, 1)])
    report = edge_maximal_search(2, range(5, 6))
    return [
        canonical_form(path_graph(3)),
        irregular,
        irregular.witness,
        partition_uv(decode_graph6("DhC"), 0, 1),
        classify_planarity(decode_graph6("DUW"), 2),
        DeleteVertex(0),
        DeleteEdge(0, 1),
        ContractEdge(0, 1),
        lifted,
        lifted.steps[0],
        is_planar(cycle_graph(4)),
        report,
        report.entries[0],
        KSubset((0, 2), 4),
        build_token_graph(cycle_graph(4), 2),
    ]


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__match_args__}


def _record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return {cls for cls in found if not cls.__name__.startswith("_")}


SAMPLES = _samples()


def test_every_record_class_has_a_sample():
    assert {type(r) for r in SAMPLES} == _record_classes()
    assert len(SAMPLES) == 15


def test_import_loads_no_code_generation_or_number_tower():
    code = (
        "import sys; before = set(sys.modules); import tokengraphs; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "tokengraphs" in out
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(out)


def test_uniform_substitution_degree_is_still_a_fraction():
    c = uniform_substitution_degree(complete_graph(6), 2)
    assert type(c) is Fraction and c == 2


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_repr_matches_a_frozen_dataclass(record):
    names = type(record).__match_args__
    twin = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    assert repr(record) == repr(twin(**_fields(record)))


def test_pinned_reprs():
    assert repr(PlanarityVerdict(True, "left-right")) == "PlanarityVerdict(planar=True, method='left-right')"
    assert repr(SearchEntry(5, 4, 1, 1)) == "SearchEntry(n=5, m=4, generated=1, survivors=1)"
    assert repr(KSubset((0, 2), 4)) == "KSubset(members=(0, 2), n=4)"
    assert repr(classify_regularity(decode_graph6("DhC"), 2)) == (
        "RegularityVerdict(regular=False, case=<RegularityCase.NOT_REGULAR: 'not-regular'>, k=2, "
        "witness=RegularityWitness(subset_a=(0, 3), subset_b=(1, 3), degree_a=3, degree_b=4))"
    )
    assert repr(lift_script(path_graph(3), 2, [DeleteEdge(0, 1)])) == (
        "LiftedScript(k=2, steps=(LiftedStep(base_op=DeleteEdge(u=0, v=1), ops=(DeleteEdge(u=1, v=2),)),))"
    )


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_construction_by_position_and_keyword(record):
    cls, fields = type(record), _fields(record)
    values = list(fields.values())
    assert cls(*values) == record
    assert cls(**fields) == record
    assert cls(**dict(reversed(fields.items()))) == record
    if values:
        assert cls(*values[:1], **dict(list(fields.items())[1:])) == record
        with pytest.raises(TypeError):
            cls(*values[:-1])  # a missing field
        with pytest.raises(TypeError):
            cls(values[0], **fields)  # a field given twice
    with pytest.raises(TypeError):
        cls(*values, values[-1] if values else 0)  # one field too many
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_equality_within_one_class_and_hash(record):
    copy = type(record)(**_fields(record))
    assert copy == record and not copy != record
    assert record != tuple(_fields(record).values())
    assert record != _fields(record)
    if isinstance(record, SearchReport):
        with pytest.raises(TypeError):  # `stopped_at` is a dict, as with a dataclass
            hash(record)
    else:
        assert hash(copy) == hash(record)
        assert hash(record) == hash(tuple(_fields(record).values()))


def test_records_of_different_classes_never_compare_equal():
    assert DeleteEdge(0, 1) != ContractEdge(0, 1)
    assert DeleteEdge(0, 1) == DeleteEdge(0, 1)
    assert DeleteEdge(0, 1) != DeleteEdge(1, 0)
    assert DeleteEdge(0, 1) != ("de", 0, 1)
    assert DeleteEdge(0, 1) != (0, 1)
    assert KSubset((0, 2), 4) != ((0, 2), 4)
    assert len({DeleteEdge(0, 1), ContractEdge(0, 1), DeleteEdge(0, 1)}) == 2


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set_or_deleted(record):
    for name, value in _fields(record).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_field_order_is_declaration_order():
    assert PlanarityVerdict.__match_args__ == ("planar", "method")
    assert SearchEntry.__match_args__ == ("n", "m", "generated", "survivors")
    assert SearchReport.__match_args__ == (
        "k", "entries", "maximal", "stopped_at", "elapsed_secs", "mode", "partial",
    )
    assert DeleteVertex.__match_args__ == ("v",)
    assert ContractEdge.__match_args__ == ("u", "v")
    assert TokenGraph.__match_args__ == ("base", "k", "graph", "codec")


def test_ksubset_validation_runs_on_every_construction():
    with pytest.raises(ValueError):
        KSubset((1, 1), 3)
    with pytest.raises(ValueError):
        KSubset(members=(2, 0), n=3)
    with pytest.raises(ValueError):
        KSubset(n=3, members=(0, 3))


def test_match_statement_on_operations():
    def describe(op):
        match op:
            case DeleteVertex(v):
                return f"vertex {v}"
            case DeleteEdge(u, v=w):
                return f"edge {u}-{w}"
            case ContractEdge(u, v):
                return f"contract {u}-{v}"
        return None

    assert describe(DeleteVertex(3)) == "vertex 3"
    assert describe(DeleteEdge(0, 1)) == "edge 0-1"
    assert describe(ContractEdge(1, 2)) == "contract 1-2"
    assert describe(("de", 0, 1)) is None
    assert list(ContractEdge(1, 2)) == ["ce", 1, 2]
    assert list(KSubset((0, 2), 4)) == [0, 2]


def test_to_dict_turns_nested_records_into_dicts():
    verdict = classify_regularity(decode_graph6("DhC"), 2)
    assert verdict.to_dict() == {
        "regular": False,
        "case": "not-regular",
        "k": 2,
        "witness": {"subset_a": (0, 3), "subset_b": (1, 3), "degree_a": 3, "degree_b": 4},
    }
    lifted = lift_script(path_graph(3), 2, [DeleteEdge(0, 1)])
    assert lifted.to_dict() == {
        "k": 2,
        "steps": ({"base_op": {"u": 0, "v": 1}, "ops": ({"u": 1, "v": 2},)},),
    }
    for record in SAMPLES:
        assert record.to_dict() == dataclasses.asdict(_as_dataclass(record))


def _as_dataclass(record):
    """The same fields in a frozen dataclass, nested records converted too."""

    def convert(value):
        if isinstance(value, Record):
            return _as_dataclass(value)
        if isinstance(value, (tuple, list)):
            return type(value)(map(convert, value))
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        return value

    names = type(record).__match_args__
    twin = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    return twin(**{name: convert(value) for name, value in _fields(record).items()})


def _public_callables():
    """Every name in `tokengraphs.__all__` that is a class or callable, and the
    methods and properties the package defines on each public class."""
    for name in tokengraphs.__all__:
        obj = getattr(tokengraphs, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj):
                member = member.fget if isinstance(member, property) else member
                if inspect.isfunction(member) and member.__module__.startswith("tokengraphs"):
                    yield f"{name}.{attr}", member


def test_every_public_annotation_resolves():
    """`typing.get_type_hints` reads every public signature and record field,
    so no annotation names a type its module does not bind."""
    checked = 0
    for name, obj in _public_callables():
        try:
            typing.get_type_hints(obj)
        except Exception as e:
            pytest.fail(f"{name}: {e!r}")
        checked += 1
    assert checked > 100
