"""The base of classaudit's record classes.

A record lists its fields, two or more, in ``__slots__``, the one place it
names them. A record class that writes no ``__init__`` is given one with a
parameter per slot, in slot order, each with no default and assigned as
given; one that does more than assign writes its own, which takes its slots
positionally in slot order. This base gives each record field-wise ``==``
(records of the same class only), a ``Name(field=value, ...)`` repr, both
in slot order, and one ``__reduce__``: ``copy`` and ``pickle`` rebuild a
record by calling its class with its fields, which is faster than setting
the slots one by one. Like any class that defines ``__eq__`` and not
``__hash__``, a plain record is unhashable; a frozen one hashes its fields
and rejects assignment once its ``__init__`` has set them with
``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # The fields in slot order, as ``self._fields(self)``. A record
            # has two fields or more, so that this gives a tuple.
            cls._fields = attrgetter(*cls.__slots__)
            if "__init__" not in cls.__dict__:
                # Compiled once, as collections.namedtuple compiles its
                # constructors, so that it runs a hand-written one's bytecode.
                namespace = {"__name__": cls.__module__}
                body = "".join(f"\n self.{name} = {name}" for name in cls.__slots__)
                exec(f"def __init__(self, {', '.join(cls.__slots__)}):{body}", namespace)
                cls.__init__ = namespace["__init__"]
                cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
