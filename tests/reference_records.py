"""Reference value classes: a frozen dataclass twin of every
`oagkit.errors.Record` subclass, built by `dataclasses.make_dataclass`
from the class's own annotations and class-attribute defaults, which is
what the `@dataclass(frozen=True)` decorator that Record replaced read.

`twin` maps a value, and every Record nested in it through fields and
tuples, onto the twins, so the twin's `repr`, `==` and `hash` are the
dataclass ones all the way down.  Tests compare the library against it.
"""

import dataclasses

from oagkit.errors import Record

_TWINS = {}


def twin_class(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    if cls not in _TWINS:
        own = vars(cls)
        fields = [(f, object, dataclasses.field(default=own[f]))
                  if f in own else (f, object)
                  for f in own.get("__annotations__", {})]
        _TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, fields,
                                                 frozen=True)
    return _TWINS[cls]


def twin(value):
    """value with every Record in it replaced by its dataclass twin."""
    if isinstance(value, Record):
        cls = twin_class(type(value))
        return cls(*(twin(getattr(value, f.name))
                     for f in dataclasses.fields(cls)))
    if isinstance(value, tuple):
        return tuple(twin(v) for v in value)
    return value
