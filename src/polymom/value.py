"""The one value-class idiom of the package.

A value class names its fields in `__slots__`, in constructor order, and
its `__init__` stores them with `_fill`.  `Value` reads `__slots__` for the
rest: instances are equal when they are of the same class with equal
fields, hash as their field tuple, print as `Name(field=value, ...)` and
refuse assignment and deletion.  A class with fields that change after
construction sets `__setattr__` and `__delattr__` back to `object`'s; it,
and any class that is not to be hashed, sets `__hash__` to None.

`integer` is the one rule for an integer argument.
"""

from operator import index

from .errors import DimensionError


def integer(x, what, signed=False) -> int:
    """`x` as an int, read through `operator.index`, so a float or a string is a TypeError.  A
    bool, which `index` would read as 0 or 1, is a TypeError too, and a negative value is a
    DimensionError unless `signed`.  `what` names the argument in the messages."""
    if isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, not bool")
    x = index(x)
    if x < 0 and not signed:
        raise DimensionError(f"{what} must be non-negative, got {x}")
    return x


class Value:
    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Copy and pickle by calling the constructor on the fields."""
        return type(self), self._fields()
