"""The base of classaudit's record classes.

A record lists its fields in ``__slots__`` and assigns them in its own
``__init__``. This base gives it field-wise ``==`` (records of the same
class only) and a ``Name(field=value, ...)`` repr, both in slot order. Like
any class that defines ``__eq__`` and not ``__hash__``, a plain record is
unhashable; a frozen one hashes its fields and rejects assignment once its
``__init__`` has set them with ``object.__setattr__``.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle would set the slots one by one; the constructor
        # takes them in slot order instead
        return type(self), self._fields()
