"""Base of the records that must not behave as tuples.

Most of hmvol's records are `typing.NamedTuple`s, the cheapest immutable
record to import and to build.  A record whose tuple behaviour would be
wrong (a number that `2 * x` would repeat, or parse-tree leaves that would
compare equal across types) subclasses `Record` instead: its fields are its
`__slots__`, it equals only a record of its own type with equal fields,
and, like a NamedTuple, setting or deleting an attribute raises
AttributeError.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the fields, in `__slots__` order; only a constructor calls this."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
