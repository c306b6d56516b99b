"""Value semantics for the package's records, read from their __slots__.

A record class lists its fields, the ones nothing else determines, in
order as __slots__ and writes its own __init__, which validates and
normalises the arguments and stores them in slot order with _store.  Record
gives the field-listing repr, equality and hashing between records of the
same class with equal fields, and _replace, a copy with some fields changed
that runs the class's own __init__, so a copy validates as a new record
does.  Assignment and deletion raise AttributeError.  No method is
generated when a class is created, which keeps importing the package cheap.
"""


_SET = object.__setattr__  # a record's own __setattr__ refuses


class Record:
    """An immutable record, equal to and hashable by its fields."""

    __slots__ = ()

    def _store(self, *values):
        for name, value in zip(self.__slots__, values):
            _SET(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def _replace(self, **changes):
        """A new record of this class with the given fields changed."""
        return type(self)(**{name: getattr(self, name) for name in self.__slots__} | changes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {type(value).__name__} to field {name!r} "
                             f"of frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")

    def __setstate__(self, state):
        # pickle and copy restore the slots they saved without __init__
        for name, value in state[1].items():
            _SET(self, name, value)
