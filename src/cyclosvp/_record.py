"""Frozen, slotted records for the package's result types.

``Record`` gives a subclass what a frozen dataclass would: construction
in field order, immutability, equality and hash over the field values, a
``Name(field=value, ...)`` repr, and pickling.  It does so without
importing ``dataclasses``, which pulls in ``inspect`` and would be most
of the package's import time, paid by every CLI process.
"""

from operator import attrgetter

# Fills a field of a record under construction, past the frozen __setattr__.
set_field = object.__setattr__


class Record:
    """Base of a frozen record.  ``__slots__`` lists the fields in
    constructor order, and the subclass's ``__init__`` takes them in that
    order and fills them all, with ``set_field`` or ``_fill``.  Fields
    named in ``_uncompared`` stay out of ==, hash and repr."""

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._compared = tuple(f for f in cls.__slots__ if f not in cls._uncompared)
        cls._values = attrgetter(*cls._compared)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
