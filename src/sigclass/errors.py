"""Exception types shared across the pipeline stages, and the text reader that raises them."""


class SigclassError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SigclassError):
    """An argument or data value violates a documented precondition."""


class ConfigurationError(SigclassError):
    """A config file, channel roster, or setup reference is inconsistent."""


class ParseError(SigclassError):
    """A data file could not be parsed; the message names the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalError(SigclassError):
    """A computation produced or received non-finite values."""


class SelectionError(SigclassError):
    """Frequency selection produced an empty feature mask."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def text_lines(path):
    """Enumerate a UTF-8 text file's lines from 1; other bytes raise ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
