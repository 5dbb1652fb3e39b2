"""Exception types shared across the toolkit, the output size bound, the
intern tables, and the Record base of the package's small immutable values.

Every domain failure raises a subclass of OagError so callers (and the CLI)
can distinguish bad input from genuine bugs.  Every layer imports this
module, so Record gives them frozen value classes without the import and
class-creation cost of `dataclasses`, and its one interning helper,
`_make`, serves both the Records and the scalar layer's nodes: each
interned class keeps a process-global plain dict from key to a weak
reference, `_Ref`, which drops its entry when its object dies.  There is
no lock, so interning is single-threaded.
"""

import weakref


class OagError(Exception):
    """Base class for all domain errors raised by this package."""


class GroupError(OagError):
    """Invalid group spec, element arity, level, modulus or kind."""


class ParseError(OagError):
    """Formula text did not parse; carries line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class FormulaError(OagError):
    """Structurally invalid formula: bad arity, level, modulus or sort."""


class BudgetExceeded(OagError):
    """Quantifier elimination exceeded the configured node budget."""


PRINT_LIMIT = 1 << 24
"""Most characters print_scalar returns (elimination output is a DAG
whose printed tree can be exponentially larger), and most characters the
residue representatives of representatives_mod would print."""


class OutputTooLarge(OagError):
    """A result would exceed PRINT_LIMIT characters."""


class SegmentError(OagError):
    """Normalization request violated a precondition (not an end segment, ...)."""


class CodeError(OagError):
    """Malformed code or coding precondition failure."""


class TypeGenError(OagError):
    """Type generation precondition failure (unsatisfiable input, ...)."""


class OracleError(OagError):
    """Oracle precondition failure (unbounded quantifier, missing assignment)."""


class _Ref(weakref.ref):
    """An intern table's entry: a weak reference to the object stored
    under key in table.  Its callback, `_drop`, removes the entry when the
    object dies, but only while the entry is still this reference, so a
    newer object interned under the same key survives a late callback."""

    __slots__ = ("key", "table")


def _drop(ref):
    if ref.table.get(ref.key) is ref:
        del ref.table[ref.key]


# Each interned class has a `_table` dict from key to `_Ref`, and names in
# `_fields` the attributes `_make` fills.  A constructor looks its key up
# as `cls._table.get(key, _GONE)()`: the live object, or None (`_GONE()` is
# None, as a dead ref's call is).  Interned objects are always true (no
# interned class defines `__bool__` or `__len__`), so `... or _make(...)`
# builds only on a miss.
_GONE = type(None)
_new, _set = object.__new__, object.__setattr__


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _make(cls, key, values):
    """A new cls object with the tuple values for its `_fields`, stored
    under key."""
    obj = _new(cls)
    for name, value in zip(cls._fields, values):
        _set(obj, name, value)
    table = cls._table
    ref = table[key] = _Ref(obj, _drop)
    ref.key = key
    ref.table = table
    return obj


class Record:
    """Base of the small immutable values: group specs, quotient
    elements, code values, segments, formula nodes.

    A subclass's fields are its own annotations, in order, and its class
    attributes are their defaults; calls bind arguments to them as a
    frozen dataclass's would.  Instances are interned like the scalar
    nodes: each class keeps a `_table` keyed on the field tuple, so
    equal field tuples give the same object, and `==` and `hash` are
    identity's, in C.  Field values must be hashable, and a coordinate
    value is an int unless it is not integral (`groups.element`), so
    equal values are one numeral.  `repr` is `Name(field=value, ...)`,
    and no field can be assigned or deleted.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {f: own[f] for f in fields if f in own}
        first = len(fields)  # the first of the trailing defaulted fields
        while first and fields[first - 1] in own:
            first -= 1
        cls._tail = tuple(own[f] for f in fields[first:])
        cls._table = {}

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return cls._table.get(args, _GONE)() or _make(cls, args, args)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call with keywords, defaults or a wrong
        number of arguments.  Leaving out trailing defaulted fields, the
        common case, only appends their defaults."""
        fields, tail = cls._fields, cls._tail
        missing = len(fields) - len(args)
        if not kwargs and 0 < missing <= len(tail):
            return args + tail[len(tail) - missing:]
        given = dict(zip(fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs.keys() \
                or values.keys() != set(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields ({', '.join(fields)});"
                f" got {len(args)} positional and keywords {sorted(kwargs)}")
        return tuple(values[f] for f in fields)

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    __setattr__ = __delattr__ = _immutable
