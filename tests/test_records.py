"""Every record class rebuilds through ``pickle`` and ``copy`` by the one
``Record.__reduce__``, which calls the class with its fields in slot order:
so each ``__init__`` must take its slots positionally, in that order."""

import copy
import pickle

import pytest

import classaudit.classify  # noqa: F401  (each module defines record classes)
import classaudit.javamodel.model  # noqa: F401
import classaudit.metrics  # noqa: F401
import classaudit.pipeline  # noqa: F401
from classaudit._record import FrozenRecord, Record


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
    assert {"ClassRecord", "Diagnostics", "GroupLabel", "SourceClass"} <= names


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
