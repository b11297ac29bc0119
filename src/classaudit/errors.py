"""Exception types shared across the package."""


class AuditError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AuditError):
    """A file could not be read or analyzed: a source file is skipped as a
    SKIP line, while a CAM CSV that is not valid UTF-8, or whose header the
    csv module rejects, ends the run with an error line."""

    def __init__(self, file: str, line: int, message: str):
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line
        self.message = message


class SpanOutOfBounds(AuditError):
    """A requested line span falls outside the file."""


class MissingColumn(AuditError):
    """A CSV column required by the column map is absent from the header."""


class RowParseError(AuditError):
    """One CSV row could not be turned into a record; tallied, not fatal."""


class EmptyInput(AuditError):
    """An operation that needs at least one value received none."""


class ConfigError(AuditError):
    """Invalid run configuration; fatal with a one-line message."""
