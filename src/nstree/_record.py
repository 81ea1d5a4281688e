"""The base class of the library's immutable result records."""

_set = object.__setattr__  # how a record's __init__ sets its fields


class Record:
    """Immutable record with value semantics.

    A subclass lists its fields in __slots__, in constructor order, and
    sets each once in __init__ with _set. Records of one class with equal
    fields are equal and hash alike. A record prints as
    Name(field=value, ...), refuses assignment and deletion, and pickles
    and copies by calling its constructor again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    _key = _values  # the values that equality and hashing compare

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
