"""Base classes of chipoly's small record types, without dataclasses.

A record names its fields, in order, in __match_args__ and sets them in its
own __init__.  The base gives equality (same class, equal fields), a repr
that shows each field as name=value, and pickling through the constructor,
so an unpickled record is checked again and recomputes anything it derives
from its fields.  __replace__ makes a copy with some fields changed (what
copy.replace calls on CPython 3.13 and later).  A Record is mutable and
unhashable; a FrozenRecord refuses assignment with AttributeError and
hashes like the tuple of its fields.  This is what @dataclass and
@dataclass(frozen=True) gave these classes, at no import of dataclasses
and inspect.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __match_args__: tuple = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()

    def __replace__(self, **changes):
        return type(self)(**{**dict(zip(self.__match_args__, self._fields())), **changes})


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
