"""Frozen records behave as the frozen dataclasses they replace."""

import copy
import pickle

import pytest

from kstrata.classifier import (
    ArfLabeled,
    BreakdownRow,
    ComponentReport,
    CubicSporadic,
    Generic,
    GenusOne,
    RelativeArfLabeled,
    primitive_nonhyperelliptic_components,
)
from kstrata.errors import SignatureError
from kstrata.framing import Mod2QuadraticForm, SymplecticFramingValues
from kstrata.genus_one import GenusOneComponent, GenusOneMerge
from kstrata.prong import ProngHomImage
from kstrata.record import Record
from kstrata.signature import StratumSignature, validate

SIG = validate(1, 3, (6, -1, -1))
REPORT = primitive_nonhyperelliptic_components(SIG)

# one instance of each record type, and its repr as the frozen dataclass wrote it
REPRS = [
    (SIG, "StratumSignature(k=1, genus=3, orders=(6, -1, -1))"),
    (Generic(), "Generic()"),
    (ArfLabeled(1), "ArfLabeled(parity=1)"),
    (RelativeArfLabeled(0), "RelativeArfLabeled(parity=0)"),
    (CubicSporadic(1, 0), "CubicSporadic(arf_parity=1, h0_flag=0)"),
    (GenusOne(2, True, False), "GenusOne(rotation=2, primitive=True, hyperelliptic=False)"),
    (
        REPORT,
        "ComponentReport(signature=StratumSignature(k=1, genus=3, orders=(6, -1, -1)), count=2,"
        " components=(RelativeArfLabeled(parity=0), RelativeArfLabeled(parity=1)),"
        " empty_reason=None, note=None)",
    ),
    (
        BreakdownRow(1, SIG, REPORT),
        "BreakdownRow(divisor=1, signature=StratumSignature(k=1, genus=3, orders=(6, -1, -1)),"
        " report=ComponentReport(signature=StratumSignature(k=1, genus=3, orders=(6, -1, -1)),"
        " count=2, components=(RelativeArfLabeled(parity=0), RelativeArfLabeled(parity=1)),"
        " empty_reason=None, note=None))",
    ),
    (
        GenusOneComponent(3, 2, True, True),
        "GenusOneComponent(rotation=3, torsion_order=2, primitive=True, hyperelliptic=True)",
    ),
    (
        GenusOneMerge(True, validate(1, 1, (4, -4)), (2, 4)),
        "GenusOneMerge(feasible=True, result=StratumSignature(k=1, genus=1, orders=(4, -4)),"
        " rotations=(2, 4), reason='')",
    ),
    (Mod2QuadraticForm((0, 1), (1, 1)), "Mod2QuadraticForm(a_values=(0, 1), b_values=(1, 1))"),
    (
        SymplecticFramingValues.from_signature(validate(3, 1, (5, -5)), [(1, 2)]),
        "SymplecticFramingValues(k=3, pairs=((1, 2),), boundary=(8, -2))",
    ),
    (ProngHomImage(delta=2, index=1), "ProngHomImage(delta=2, index=1)"),
]
INSTANCES = [value for value, _ in REPRS]
IDS = [type(value).__name__ for value in INSTANCES]


def test_every_record_type_is_in_the_table():
    assert len(set(IDS)) == 13
    assert all(isinstance(value, Record) for value in INSTANCES)


@pytest.mark.parametrize(("value", "text"), REPRS, ids=IDS)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_methods_are_generated_for_each_class(value):
    cls = type(value)
    assert {"__init__", "__repr__", "__eq__", "__hash__"} <= set(vars(cls))
    assert list(vars(value)) == list(cls._fields)


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_equal_fields_make_equal_records_with_the_tuple_hash(value):
    fields = tuple(vars(value).values())
    twin = type(value)(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields


def test_equality_and_hash_depend_on_the_class():
    assert ArfLabeled(0) != RelativeArfLabeled(0)
    assert ArfLabeled(0) != ArfLabeled(1)
    keys = {ArfLabeled(0): "arf", RelativeArfLabeled(0): "relative"}
    assert len(keys) == 2 and keys[ArfLabeled(0)] == "arf"
    assert Generic() == Generic() and {Generic(), Generic()} == {Generic()}


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = next(iter(vars(value)), "anything")
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, 1)
    with pytest.raises(AttributeError, match="cannot assign"):
        value.new_attribute = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)


def test_keywords_and_defaults():
    report = ComponentReport(SIG, 1, (Generic(),), note="checked")
    assert (report.empty_reason, report.note) == (None, "checked")
    assert report == ComponentReport(signature=SIG, count=1, components=(Generic(),), empty_reason=None, note="checked")
    assert GenusOneMerge(False, None, (), reason="") == GenusOneMerge(False, None, ())
    assert GenusOneMerge(True, SIG, (1,)).reason == ""
    with pytest.raises(TypeError):
        GenusOneMerge(False, None)


def test_class_variables_are_not_fields():
    assert Generic.tag == "generic" and vars(Generic()) == {}
    assert vars(ArfLabeled(1)) == {"parity": 1}


def test_post_init_still_checks_a_quadratic_form():
    with pytest.raises(SignatureError, match="as many"):
        Mod2QuadraticForm((0,), (0, 1))
    with pytest.raises(SignatureError, match="bits"):
        Mod2QuadraticForm((2,), (0,))


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_copy_and_pickle_return_equal_values(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="follows"):

        class Bad(Record):
            first: int = 0
            second: int


def test_a_class_body_keeps_its_own_methods():
    class Signed(Record):
        value: int

        def __repr__(self):
            return f"<{self.value}>"

    assert repr(Signed(3)) == "<3>"
    assert Signed(3) == Signed(3) and hash(Signed(3)) == hash((3,))
    # a signature's own constructor sorts the orders
    assert StratumSignature(1, 3, (-1, -1, 6)).orders == (6, -1, -1)
