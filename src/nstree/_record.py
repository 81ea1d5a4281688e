"""The base class of the library's immutable result records."""

_set = object.__setattr__  # sets a field where Record.__setattr__ refuses to


class Record:
    """Immutable record with value semantics.

    A subclass lists its own fields in __slots__, in constructor order,
    after those of the record it extends; _fields holds them all. A
    class that declares fields and no __init__ is given one that takes
    them by position or keyword, the last few defaulting to the class's
    _defaults. A class that checks its arguments writes its own and
    sets each field once with _set, and so does any record that adds
    fields to it, or the built one would skip the checks. A subclass
    with empty __slots__ keeps its parent's constructor and fields.

    Records of one class with equal fields are equal and hash alike. A
    record prints as Name(field=value, ...), refuses assignment and
    deletion, and pickles and copies by calling its constructor again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        if not own:
            return
        cls._fields = fields = cls._fields + tuple(own)
        if "__init__" not in cls.__dict__:
            # built from source, as collections.namedtuple builds __new__
            sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
            namespace = {"_set": _set}
            exec(f"def __init__(self, {', '.join(fields)}):{sets}", namespace)
            init = cls.__init__ = namespace["__init__"]
            init.__defaults__ = cls.__dict__.get("_defaults")
            init.__module__ = cls.__module__
            init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    _key = _values  # the values that equality and hashing compare

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
