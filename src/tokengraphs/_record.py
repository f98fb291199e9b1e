"""Frozen records: the package's result types.

A record's fields are the names its class body annotates, in order, after
those of the record classes it extends. Declaring one builds nothing: the
base only collects the names into `__match_args__`, and every method below
is shared by all records. So a record behaves as a frozen dataclass would,
without the methods a dataclass generates and compiles for each class at
import (they were about half of the package's import time):

- construction by position or keyword, every field required;
- `__post_init__`, when a record defines it, runs once the fields are set;
- `==` holds only between two records of the same class with equal fields,
  and equal records hash equal (the hash of the field tuple);
- `repr` is `Name(field=value, ...)`;
- assigning or deleting any attribute raises `AttributeError`.

`to_dict` gives the fields by name, with nested records turned into dicts.
"""

from __future__ import annotations


class Record:
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # on a class, `__annotations__` holds only the names its own body annotates
        cls.__match_args__ = cls.__match_args__ + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = _bind(type(self).__name__, names, args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self.__match_args__])

    def __eq__(self, other):
        # a record's `__dict__` holds exactly its fields
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join([f"{name}={d[name]!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_dict(self) -> dict:
        """The fields by name, as a dataclass's `asdict` gives them: records in fields, and in tuples, lists and dicts there, become dicts too."""
        return {name: _plain(value) for name, value in zip(self.__match_args__, self._values())}


def _bind(cls_name: str, names: tuple, args: tuple, kwargs: dict) -> tuple:
    """The field values in field order, from positional and keyword arguments."""
    if len(args) > len(names):
        raise TypeError(f"{cls_name}() takes {len(names)} positional arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls_name}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls_name}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values]
    if missing:
        raise TypeError(f"{cls_name}() missing required arguments: {', '.join(map(repr, missing))}")
    return tuple([values[name] for name in names])


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value
