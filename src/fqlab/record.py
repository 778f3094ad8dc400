"""Frozen value records: the one base of fqlab's spec and result types.

Record's methods are compiled once with this module, so defining a
record class generates no code at import, as a @dataclass decoration
does for each class it makes.
"""

from __future__ import annotations

import operator


class Record:
    """A frozen record: subclass it and list the fields as annotations,
    in order; a class value is that field's default.

    An instance takes its fields positionally or by keyword, refuses
    assignment and deletion, and compares and hashes by the tuple of its
    fields (a lone field by itself), or by identity when the class is made
    with eq=False.  A subclass's __post_init__, if any, runs after the
    fields are set and may replace one with object.__setattr__.  Instances
    keep a __dict__, so functools.cached_property works on them.
    """

    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()
    _defaults: dict = {}
    __post_init__ = None

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._key = operator.attrgetter(*cls._fields)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = self.__dict__
        if args:
            values.update(zip(cls._fields, args))
        if kwargs:
            values.update(kwargs)
        # a call that gives every field once and nothing else passes these
        # tests, none a loop in Python; _complete settles any other call
        if (len(values) != len(cls._fields) or len(args) + len(kwargs) != len(values)
                or not kwargs.keys() <= cls._field_set):
            _complete(cls, values, len(args), kwargs)
        if cls.__post_init__ is not None:
            self.__post_init__()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _complete(cls, values: dict, nargs: int, kwargs: dict) -> None:
    """Fill in the defaults of a construction that left fields out, or
    raise the TypeError of one that gave too many, repeated or unknown
    fields or left out one with no default."""
    name, fields = cls.__name__, cls._fields
    if nargs > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments but {nargs} were given")
    for key in kwargs:
        if key not in cls._field_set:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in fields[:nargs]:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    for field in fields:
        if field not in values:
            if field not in cls._defaults:
                raise TypeError(f"{name}() missing required argument {field!r}")
            values[field] = cls._defaults[field]
