"""Exception types shared across the toolkit, the output size bound, and
the Record base of the package's small immutable values.

Every domain failure raises a subclass of OagError so callers (and the CLI)
can distinguish bad input from genuine bugs.  Every layer imports this
module, so Record gives them frozen value classes without the import and
class-creation cost of `dataclasses`.
"""

from operator import attrgetter

_setattr = object.__setattr__


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


class Record:
    """Base of the small immutable values: group specs, quotient
    elements, code values, segments, formula nodes.

    A subclass's fields are its own annotations, in order, and its class
    attributes are their defaults.  Instances behave as frozen
    dataclasses: `==` holds between instances of one class with equal
    field tuples, `hash` is the hash of the field tuple, `repr` is
    `Name(field=value, ...)`, and no field can be assigned or deleted.
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
        get = attrgetter(*fields)
        if len(fields) == 1:  # a bare value, but the hash is of a 1-tuple
            one = get

            def get(obj):
                return (one(obj),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the fields in the instance's inline
        # values; reading self.__dict__ would turn them into a dict, which
        # makes every later field read slower and the GC track one more
        # object per instance
        for f, v in zip(fields, args):
            _setattr(self, f, v)

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
        return [values[f] for f in fields]

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
