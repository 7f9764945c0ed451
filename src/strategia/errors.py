"""Exception types shared across the package."""


class StrategiaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(StrategiaError):
    """A position, board spec, or argument violates a stated invariant."""


class ParseError(StrategiaError):
    """Malformed textual input. Carries the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class IllegalMoveError(StrategiaError):
    """A move was applied to a position where it is not legal."""

    def __init__(self, message: str, move=None):
        super().__init__(message)
        self.move = move


class MaterialMismatchError(StrategiaError):
    """A position does not belong to the material class of the table."""


class UnsupportedCaseError(StrategiaError):
    """The request falls outside the defined domain (e.g. drawn playouts)."""


class BudgetExceededError(StrategiaError):
    """Solving would exceed the configured memory budget."""


class TablebaseFormatError(StrategiaError):
    """A tablebase file is corrupt, truncated, or of an unsupported version."""


class TableValueError(TablebaseFormatError, RuntimeError):
    """A table's values break the rules: a false mate or a broken dtm recurrence."""


class UnknownFeatureError(StrategiaError):
    """An evaluator feature name is not registered."""
