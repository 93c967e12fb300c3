"""Exception types shared across the pipeline stages, the file readers that
raise them, the label rule, and the one `.npz` writer beside its reader."""

import tokenize
import warnings
import zipfile

import numpy as np
from numpy.lib import format as npy


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
    """(number from 1, text) of each line of a UTF-8 text file, its text cut at '#' and stripped;
    a line left blank is skipped.  Other bytes raise ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                if text := raw.split("#", 1)[0].strip():
                    yield lineno, text
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
    should be, on one line.  `write_npz` writes no archive comment, so an
    archive ends with its 22-byte end record.
    """
    with open(path, "rb") as fh, warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy's warning of a Python 2 header, which no store has
        try:
            store = np.load(fh, allow_pickle=False)
            if not isinstance(store, np.lib.npyio.NpzFile):
                raise ParseError(f"{path}: a bare array, not a {what}")
            arrays = [store[key] for key in keys]
            fh.seek(-22, 2)
            end = fh.read()
        # what a cut, flipped or forged file raises (OSError: a bad seek; MemoryError: a huge shape)
        except (zipfile.BadZipFile, EOFError, ValueError, KeyError, NotImplementedError,
                RuntimeError, OSError, MemoryError, tokenize.TokenError, UserWarning) as exc:
            reason = " ".join(str(exc).split())  # some numpy messages span lines
            raise ParseError(f"{path}: not a {what} ({type(exc).__name__}: {reason})") from None
    if end[:4] != b"PK\x05\x06" or end[20:] != b"\0\0":
        raise ParseError(f"{path}: bytes after the archive's end record")
    return arrays


def write_npz(path, **arrays):
    """Write arrays as the uncompressed .npz that np.savez writes, at path itself (no .npz appended).

    Each is a stored zip64 member `<name>.npy`: numpy's 1.0 header, then the
    data in the array's order, from its own buffer if it is contiguous, where
    np.savez copies the whole array first.
    """
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in arrays.items():
            header = npy.header_data_from_array_1_0(array)
            data = np.ascontiguousarray(array.T if header["fortran_order"] else array)  # no copy if contiguous
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                npy.write_array_header_1_0(fh, header)
                fh.write(data.reshape(-1).view(np.uint8))  # a flat byte view: it has no zero-size axis to refuse
