"""A record names its fields once, in ``__slots__``: a record class that
writes no ``__init__`` is given one built from them, and one that writes
its own keeps it. Every record class rebuilds through ``pickle`` and
``copy`` by the one ``Record.__reduce__``, which calls the class with its
fields in slot order: so each ``__init__`` takes its slots positionally, in
that order."""

import copy
import inspect
import pickle

import pytest

import classaudit.classify  # noqa: F401  (each module defines record classes)
import classaudit.metrics  # noqa: F401
from classaudit._record import FrozenRecord, Record
from classaudit.javamodel.model import SourceClass
from classaudit.pipeline import Diagnostics

PLAIN = ("ClassMetrics", "ClassRecord", "FilterOutcome", "GroupSummary", "MethodView")


def record_classes():
    found, pending = [], [Record]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__slots__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def test_record_classes_are_found():
    names = {cls.__qualname__ for cls in record_classes()}
    assert {"Diagnostics", "GroupLabel", "SourceClass", *PLAIN} <= names


def test_a_record_of_slots_alone_takes_them_in_order_by_position_or_keyword():
    class Point(Record):
        __slots__ = ("x", "y", "z")

    for point in (Point(1, 2, 3), Point(z=3, y=2, x=1), Point(1, z=3, y=2)):
        assert (point.x, point.y, point.z) == (1, 2, 3)
    for args, kwargs in [((1, 2), {}), ((1, 2), {"x": 1}), ((1, 2, 3, 4), {}),
                         ((1, 2, 3), {"w": 4}), ((1, 2, 3), {"x": 1})]:
        with pytest.raises(TypeError):
            Point(*args, **kwargs)
    assert Point.__init__.__qualname__.endswith("Point.__init__")
    assert Point.__init__.__module__ == __name__


def test_a_record_that_writes_its_own_init_keeps_it():
    diag = Diagnostics()
    assert (diag.files_seen, diag.rows_seen, diag.skipped) == (0, 0, 0)
    assert diag.lines == [] and diag.warnings == [] and diag.lines is not diag.warnings
    cls = SourceClass("A", "p.A", [], [], False, (1, 1), 1, 0)
    assert cls.nested == []


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
def test_record_init_takes_its_slots_in_slot_order(cls):
    params = list(inspect.signature(cls.__init__).parameters)
    assert params == ["self", *cls.__slots__]
    # Only the plain records take the __init__ built from their slots.
    built = cls.__init__.__code__.co_filename == "<string>"
    assert built == (cls.__qualname__ in PLAIN)


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
def test_record_round_trips_through_pickle_and_copy(cls):
    # A distinct value per slot, which every constructor keeps as given.
    assert len(cls.__slots__) > 1  # so that its attrgetter gives a tuple
    values = [(f"{name}-1", f"{name}-2") for name in cls.__slots__]
    record = cls(*values)
    assert [getattr(record, name) for name in cls.__slots__] == values
    assert cls.__reduce__ is Record.__reduce__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is cls and again == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    if isinstance(record, FrozenRecord):
        assert hash(pickle.loads(pickle.dumps(record))) == hash(record)
