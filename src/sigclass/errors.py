"""Exception types shared across the pipeline stages, the file readers that
raise them, and the label rule."""

import tokenize
import zipfile

import numpy as np


class SigclassError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SigclassError):
    """An argument or data value violates a documented precondition."""


class ConfigurationError(SigclassError):
    """A config file, channel roster, or setup reference is inconsistent."""


class ParseError(SigclassError):
    """A data file could not be parsed; the message names the file and, for text, the line."""


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


LABEL_RULE = "must be a non-empty UTF-8 token without whitespace, ',', '/' or '\\'"


def is_label(text):
    """Whether text follows LABEL_RULE; labels name files and CSV columns.
    Surrogates are the str characters that UTF-8 cannot encode."""
    return bool(text) and not any(ch.isspace() or ch in ",/\\" or "\ud800" <= ch <= "\udfff" for ch in text)


def read_npz(path, what, keys):
    """The arrays stored under keys in the .npz archive at path, in keys order.

    A file that is not such an archive (cut, a failed CRC, a bare .npy, an
    object array, a forged header), lacks one of keys, or has bytes after the
    archive's end record raises ParseError naming the file and `what` it
    should be.  numpy writes no archive comment, so an archive ends with its
    22-byte end record.
    """
    with open(path, "rb") as fh:
        try:
            store = np.load(fh, allow_pickle=False)
            if not isinstance(store, np.lib.npyio.NpzFile):
                raise ParseError(f"{path}: a bare array, not a {what}")
            arrays = [store[key] for key in keys]
            fh.seek(-22, 2)
            end = fh.read()
        # what a cut, flipped or forged file raises (OSError: a bad seek; MemoryError: a huge shape)
        except (zipfile.BadZipFile, EOFError, ValueError, KeyError, NotImplementedError,
                RuntimeError, OSError, MemoryError, tokenize.TokenError) as exc:
            raise ParseError(f"{path}: not a {what} ({type(exc).__name__}: {exc})") from None
    if end[:4] != b"PK\x05\x06" or end[20:] != b"\0\0":
        raise ParseError(f"{path}: bytes after the archive's end record")
    return arrays
