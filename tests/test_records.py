"""The value semantics of the package's frozen records.

Every record is built from its fields by keyword, compares and hashes field
by field, prints as ``Name(field=value, ...)``, and refuses assignment and
deletion of its fields.
"""

import pytest

from ordsub.conditions import ClassReport, ConditionId, ConditionWitness, LaneChunk
from ordsub.core import INTEGERS, GroundSet, IntervalSublattice, OrderedCodomain, OrdinalValue, SetFunction
from ordsub.generators import ClassPredicate
from ordsub.hierarchy import LevelChain, LevelValues
from ordsub.minimize import ArgminSet, ConstrainedMinimum, DescentTrace, MinimalityCertificate
from ordsub.verify import SuiteResult


def _v(key):
    return OrdinalValue(codomain=INTEGERS, key=key)


CERTIFICATE = dict(
    point=0, lower_checked=1, upper_checked=4, hypothesis="Q1", is_global=True, verified=True, reason="ok",
)


# one keyword-argument factory per record; each call builds equal, distinct field values
RECORDS = {
    GroundSet: lambda: dict(elements=("a", "b")),
    OrderedCodomain: lambda: dict(kind="labels", label_order=("lo", "hi")),
    OrdinalValue: lambda: dict(codomain=OrderedCodomain("integer"), key=3),
    IntervalSublattice: lambda: dict(lo=1, hi=3),
    SetFunction: lambda: dict(ground=GroundSet(("a", "b")), codomain=INTEGERS, values=(0, 1, 1, 2)),
    LaneChunk: lambda: dict(cols=(0, 1), n=1, full=0x80),
    ConditionWitness: lambda: dict(
        condition=ConditionId.Q1, x=1, y=2, v_x=_v(0), v_y=_v(1), v_union=_v(2), v_inter=_v(3),
    ),
    ClassReport: lambda: dict(flags={ConditionId.Q4: True}, witnesses={}),
    ClassPredicate: lambda: dict(source="Q1", ast=("flag", ConditionId.Q1)),
    LevelValues: lambda: dict(mu=(_v(0), _v(2))),
    LevelChain: lambda: dict(families=((), (0, 1))),
    ArgminSet: lambda: dict(minimizers=(0, 3), min_value=_v(-1)),
    MinimalityCertificate: lambda: dict(CERTIFICATE),
    DescentTrace: lambda: dict(steps=((3, _v(1)), (0, _v(0))), certificate=MinimalityCertificate(**CERTIFICATE)),
    ConstrainedMinimum: lambda: dict(
        argmin=ArgminSet(minimizers=(1,), min_value=_v(0)), feasible_count=2, k=1, threshold=_v(5),
    ),
    SuiteResult: lambda: dict(
        suite="lemma1", n=2, scanned=75, hypothesis_count=40, violations=0, first_violation=None,
    ),
}

# ClassReport holds its flags and witnesses in dicts, so hashing it fails as
# hashing the tuple of its fields does
UNHASHABLE = {ClassReport}

params = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@params
def test_fields_refuse_assignment_and_deletion(cls):
    kwargs = RECORDS[cls]()
    obj = cls(**kwargs)
    for name in kwargs:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


@params
def test_equal_fields_give_equal_objects(cls):
    a, b = cls(**RECORDS[cls]()), cls(**RECORDS[cls]())
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@params
def test_repr_lists_the_fields(cls):
    kwargs = RECORDS[cls]()
    obj = cls(**kwargs)
    shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in kwargs)
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_records_of_different_classes_are_unequal():
    assert LevelValues(mu=()) != LevelChain(families=())
    assert IntervalSublattice(0, 1) != (0, 1)


def test_unequal_fields_give_unequal_objects():
    assert IntervalSublattice(lo=1, hi=3) != IntervalSublattice(lo=1, hi=7)
    assert OrderedCodomain("integer") != OrderedCodomain("rational")


def test_positional_keyword_and_default_arguments():
    assert OrderedCodomain("integer") == OrderedCodomain(kind="integer", label_order=()) == INTEGERS
    assert OrderedCodomain("integer").label_order == ()
    assert SetFunction(GroundSet(("a",)), INTEGERS, (0, 1)) == SetFunction(
        values=(0, 1), codomain=INTEGERS, ground=GroundSet(elements=("a",)),
    )
    with pytest.raises(TypeError):
        IntervalSublattice(0)
    with pytest.raises(TypeError):
        IntervalSublattice(0, 1, 3)
    with pytest.raises(TypeError):
        IntervalSublattice(lo=0, top=1)


def test_init_only_argument_reaches_post_init_and_is_not_stored():
    g = GroundSet(elements=(), allow_empty=True)
    assert "allow_empty" not in vars(g)
    assert repr(g) == "GroundSet(elements=())"
    assert g == GroundSet((), True) == GroundSet((), allow_empty=True)
    with pytest.raises(ValueError):
        GroundSet(elements=())


def test_ordinal_value_keeps_its_own_equality():
    a, b = OrdinalValue(INTEGERS, 1), OrdinalValue(OrderedCodomain("rational"), 1)
    with pytest.raises(ValueError):
        a == b  # noqa: B015
    with pytest.raises(ValueError):
        a != b  # noqa: B015
    assert hash(a) == hash((INTEGERS, 1))
    assert (a == 1) is False
