"""Shared exception types."""


class CapExceeded(ValueError):
    """An input is larger than the configured structural cap."""


class BudgetExceeded(ValueError):
    """A computation would exceed its expansion or enumeration budget."""


class FormatError(ValueError):
    """A text record failed to parse.

    Carries an optional 1-based line number so command-line callers can
    point at the offending record.
    """

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")
