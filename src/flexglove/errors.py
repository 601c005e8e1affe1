"""Exception types shared across the package, the raw reader behind every
input file, and the reader that turns hand-edited text files into them.

Each error base class carries the CLI's exit code for it as ``exit_code``:
2 for GloveError and the argument and domain errors under it, 3 for
ParseError, 4 for PreconditionViolation.  (An OSError exits 5.)"""
from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence


class GloveError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class ArgumentError(GloveError, ValueError):
    """A caller-supplied argument is unusable (empty list, zero users, ...)."""


class DomainError(GloveError, ValueError):
    """An input falls outside an operation's physical or numeric domain."""


class BendRangeError(DomainError):
    """Bend diameter is tighter than the sensor supports."""


class ParseError(GloveError, ValueError):
    """Base for frame/session parsing failures.

    ``line`` is the 1-based line number within the stream, when known.
    """

    exit_code = 3

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MalformedFrame(ParseError):
    """A frame line does not match the wire grammar."""


class RangeViolation(ParseError):
    """A frame field parsed but its ADC value exceeds the converter range."""


class MalformedHeader(ParseError):
    """A session stream is missing or mangling its header block."""


class OrderViolation(ParseError):
    """Frame timestamps are not strictly increasing."""


class SchemaError(ParseError):
    """A session declares a schema version this build does not understand."""


class PreconditionViolation(GloveError, ValueError):
    """An analysis operation was called outside its stated preconditions."""

    exit_code = 4


class DegenerateRange(PreconditionViolation):
    """Min-max normalization saw a flat input (max == min): dead channel."""


# One os.read takes a whole session file; a longer file takes more.
_READ_CHUNK = 1 << 16
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def read_bytes(path) -> bytes:
    """The whole content of the file at ``path``.

    The bytes open(path, "rb").read() gives, from an os.read loop on an
    unbuffered descriptor: no file object, no buffer, and no fstat or isatty
    call.  An OSError names ``path``, as open()'s do, also when os.read fails
    (EISDIR, where ``path`` is a directory).
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_ascii(path, what: str) -> str:
    """The text of a hand-edited input file; a non-ASCII byte is an ArgumentError."""
    # Bytes, then decode: half the time of Path.read_text.  Its newline
    # translation is not needed, since every caller splits the text through
    # content_lines, whose splitlines() ends a line at \r, \n or \r\n alike
    # (centroids_from_csv's one-pass read takes only text holding no \r).
    data = read_bytes(path)
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{what} is not ASCII: {exc}") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line of ``text`` that holds content, as (1-based number, stripped
    line), with '#' comments and blank lines dropped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def finite_floats(fields: Sequence[str], names: Sequence[str], where: str) -> list[float]:
    """``fields`` (named by ``names``) as finite floats.  A field that is not
    a number, else the first that is not finite, is an ArgumentError
    "<where>: ..."."""
    try:
        numbers = list(map(float, fields))
    except ValueError as exc:
        raise ArgumentError(f"{where}: {exc}") from None
    for x, text, name in zip(numbers, fields, names):
        if not math.isfinite(x):
            raise ArgumentError(f"{where}: {name} must be finite, got {text!r}")
    return numbers
