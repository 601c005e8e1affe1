"""Exception types shared across the package, and the reader that turns
hand-edited text files into them."""
from __future__ import annotations

from pathlib import Path
from typing import Iterator


class GloveError(Exception):
    """Base class for every error raised by this package."""


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


class DegenerateRange(GloveError, ValueError):
    """Min-max normalization saw a flat input (max == min): dead channel."""


def read_ascii(path, what: str) -> str:
    """The text of a hand-edited input file; a non-ASCII byte is an ArgumentError."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{what} is not ASCII: {exc}") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line of ``text`` that holds content, as (1-based number, stripped
    line), with '#' comments and blank lines dropped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line
