"""Exception types shared across the toolkit, and the output size bound.

Every domain failure raises a subclass of OagError so callers (and the CLI)
can distinguish bad input from genuine bugs.
"""


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
