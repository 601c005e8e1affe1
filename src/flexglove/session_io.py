"""Session file and wire-format parsing.

Hardware captures and simulator output share one representation so the rest
of the pipeline never cares where a session came from.

Wire format, one frame per line, newline terminated, ASCII decimal:

    <t_ms>,<thumb>,<index>,<middle>,<ring>,<pinky>

In memory a session holds its frames as columns (see GraspSession): the
timestamps as one list of ints and the counts as five lists, one per finger.

Session file: five header lines followed by frame lines, `\n` terminators:

    # schema=1
    # user=<id>
    # shape=<sphere|cylinder>
    # diameter_cm=<number>
    # period_ms=<number>

I/O is deliberately permissive about frame counts (a 37-frame capture is a
valid file); the analysis layer enforces the expected count instead.

read_session_file takes a file's bytes in one raw read (errors.read_bytes:
an os.read loop, no file object) and hands them to read_session.

read_session matches the five header lines with one pattern, `# key=` and a
non-empty value up to the line's `\n` for each key in turn (the fifth line
may end the text instead).  Only a header the pattern misses goes through the
line loop, split and one prefix check per line, whose one job is to raise the
first fault with its line number.  The values then go through one shared
check: schema, shape, diameter, period.

The frame block, everything after the header, is read by one of two paths.
The block pass works on the block's bytes: with its digits deleted, a sound
block is ",,,,,\n" once per line, which one translate and one compare check.
Then one split into fields, and counts through a table of the 1,024 canonical
spellings as bytes, which is also the range check; each finger's column is
then every fifth count.  Timestamps that start 0, period_ms (a positive
period) are joined with commas and compared with the canonical spelling of
0, p, 2p, ... (the last one kept, with its list of stamps, so one file after
another of the same length and period reuses it); a match needs no int()
and no order check.  Any other timestamps go through int() and one order
check.  parse_frame, line by line on the decoded text, for whatever the
block pass rejects (a fault, an empty field, a leading zero count, a
carriage return, a blank line, a field too long to convert, a timestamp that
does not increase): it returns the same columns, transposed from its rows
once, or raises the error, with its line number, of the first fault.
"""
from __future__ import annotations

import functools
import math
import operator
import re
import sys
from typing import NoReturn

from .errors import (
    MalformedFrame,
    MalformedHeader,
    OrderViolation,
    ParseError,
    RangeViolation,
    SchemaError,
    read_bytes,
)
from .types import ADC_MAX, SHAPE_BY_NAME, GraspObject, GraspSession

SCHEMA_VERSION = 1

_HEADER_KEYS = ("schema", "user", "shape", "diameter_cm", "period_ms")

# The five header lines, each value non-empty; the last line ends in \n or
# ends the text.  It matches exactly the headers the line loop accepts.
_HEADER = re.compile(r"\n".join(rf"# {key}=([^\n]+)" for key in _HEADER_KEYS) + r"(?:\n|\Z)")


def _is_decimal(fieldtext: str) -> bool:
    # str.isdigit() alone accepts non-ASCII digits; the wire grammar does not.
    return fieldtext.isascii() and fieldtext.isdigit()


# Each in-range count by its canonical spelling; a miss is a count over
# ADC_MAX or one written with a leading zero.
_COUNT_BY_BYTES = {str(n).encode(): n for n in range(ADC_MAX + 1)}


def _to_int(digits: str, error: type[ParseError], what: str, line_no: int | None) -> int:
    """int() of a decimal field; past int()'s digit limit, ``error`` naming ``what``."""
    try:
        return int(digits)
    except ValueError:
        raise error(
            f"{what} of {len(digits)} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit conversion limit",
            line=line_no,
        ) from None


def parse_frame(line: str, line_no: int | None = None) -> tuple[int, ...]:
    """Parse one wire-format record into its six ints; trailing newlines are ignored.

    Raises MalformedFrame when the line is not six comma-separated decimal
    fields, RangeViolation when a field parses but exceeds the 10-bit ceiling
    (which points at a wiring or converter fault rather than a typo).
    """
    fields = line.rstrip("\n").split(",")
    if len(fields) != 6:
        raise MalformedFrame(f"expected 6 fields, got {len(fields)}", line=line_no)
    bad = next((f for f in fields if not _is_decimal(f)), None)
    if bad is not None:
        raise MalformedFrame(f"field {bad!r} is not a non-negative decimal integer", line=line_no)
    values = [_to_int(f, MalformedFrame, "field", line_no) for f in fields]
    over = next((v for v in values[1:] if v > ADC_MAX), None)
    if over is not None:
        raise RangeViolation(f"ADC value {over} exceeds {ADC_MAX}", line=line_no)
    return tuple(values)


def _raise_header_fault(text: str) -> NoReturn:
    """Raise the first fault, with its line number, of a header that _HEADER
    does not match."""
    n_header = len(_HEADER_KEYS)
    lines = text.split("\n", n_header)
    # Too short: fewer than five lines, or four followed by a final newline.
    if len(lines) < n_header or lines[n_header - 1:] == [""]:
        raise MalformedHeader("stream too short to hold a session header")
    for line_no, (line, key) in enumerate(zip(lines, _HEADER_KEYS), start=1):
        prefix = f"# {key}="
        if not line.startswith(prefix):
            raise MalformedHeader(f"expected {prefix!r}..., got {line!r}", line=line_no)
        if line == prefix:
            raise MalformedHeader(f"empty value for {key!r}", line=line_no)
    raise AssertionError("_HEADER rejected a header the line loop accepts")


def read_session(data: bytes) -> GraspSession:
    """Read and validate one session from its bytes."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"session stream is not ASCII: {exc}") from None
    header = _HEADER.match(text)
    if header is None:
        _raise_header_fault(text)
    schema, user, shape_name, diameter_text, period_text = header.groups()

    if not _is_decimal(schema):
        raise MalformedHeader(f"schema {schema!r} is not an integer", line=1)
    # Compared as text: int() refuses a number over its digit limit.
    if schema.lstrip("0") != str(SCHEMA_VERSION):
        raise SchemaError(f"unsupported schema version {schema}", line=1)
    try:
        shape = SHAPE_BY_NAME[shape_name]
    except KeyError:
        raise MalformedHeader(f"unknown shape {shape_name!r}", line=3) from None
    try:
        diameter = float(diameter_text)
    except ValueError:
        raise MalformedHeader(f"diameter {diameter_text!r} is not a number", line=4) from None
    if not diameter > 0:
        raise MalformedHeader(f"diameter must be positive, got {diameter}", line=4)
    if not math.isfinite(diameter):
        raise MalformedHeader(f"diameter must be finite, got {diameter}", line=4)
    if not _is_decimal(period_text):
        raise MalformedHeader(f"period {period_text!r} is not an integer", line=5)
    period_ms = _to_int(period_text, MalformedHeader, "period", 5)

    stamps, counts = _read_frames(data[header.end():], period_ms)
    return GraspSession(user, GraspObject(shape, diameter), stamps, counts, period_ms)


@functools.lru_cache(maxsize=1)
def _periodic_stamps(period_ms: int, n: int) -> tuple[bytes, list[int]]:
    """The timestamps 0, period_ms, ..., (n - 1) * period_ms as the block
    pass sees them, canonical decimals joined by commas, and as a list.  A
    stamp past int()'s digit limit raises ValueError, which sends the block
    to the line loop."""
    stamps = list(range(0, n * period_ms, period_ms))
    return b",".join(b"%d" % t for t in stamps), stamps


def _block_stamps(fields: list[bytes], period_ms: int) -> list[int] | None:
    """The timestamps of a block's stamp fields, or None when they do not
    increase; int()'s ValueError when a field is past its digit limit."""
    n = len(fields)
    # The first two stamps before the whole spelling, which costs what
    # int() does when it is not the one cached.
    if period_ms > 0 and fields[:2] == [b"0", b"%d" % period_ms][:n]:
        spelling, stamps = _periodic_stamps(period_ms, n)
        if b",".join(fields) == spelling:
            return stamps[:]  # a copy: the cached list serves every such block
    stamps = list(map(int, fields))
    return stamps if all(map(operator.lt, stamps, stamps[1:])) else None


def _read_frames(block: bytes, period_ms: int) -> tuple[list[int], tuple[list[int], ...]]:
    """The stamps and the five count columns of a frame block's ASCII bytes,
    in one pass when the block is canonical.

    Any other block is decoded and goes through parse_frame line by line,
    which raises the error of its first faulty line: a frame that parse_frame
    rejects or a timestamp that does not increase."""
    if block and not block.endswith(b"\n"):
        block += b"\n"
    separators = block.translate(None, b"0123456789")
    if separators == b",,,,,\n" * (len(separators) // 6):
        fields = block.replace(b"\n", b",").split(b",")
        fields.pop()  # the empty field after the final newline
        try:
            stamps = _block_stamps(fields[0::6], period_ms)
            del fields[0::6]
            counts = list(map(_COUNT_BY_BYTES.__getitem__, fields))
        except (KeyError, ValueError):
            stamps = None
        if stamps is not None:
            # Each frame's five counts in turn: finger j's column is every fifth from the j-th.
            return stamps, (counts[0::5], counts[1::5], counts[2::5], counts[3::5], counts[4::5])
    rows = []
    last_t = -1
    # block is not empty and ends in \n, so the split ends in "" after at
    # least one line, and rows is not empty when the loop ends.
    for i, line in enumerate(block.decode("ascii").split("\n")[:-1], start=len(_HEADER_KEYS) + 1):
        frame = parse_frame(line, line_no=i)
        if frame[0] <= last_t:
            raise OrderViolation(
                f"timestamp {frame[0]} ms does not increase past {last_t} ms", line=i
            )
        last_t = frame[0]
        rows.append(frame)
    stamps, *counts = map(list, zip(*rows))
    return stamps, tuple(counts)


def _validate_user_id(user_id: str) -> str:
    if not user_id or user_id != user_id.strip() or any(c in user_id for c in "\n\r"):
        raise MalformedHeader(f"unusable user id {user_id!r}")
    return user_id


def format_session(session: GraspSession) -> bytes:
    """Serialize a session to its canonical byte representation."""
    values = (SCHEMA_VERSION, _validate_user_id(session.user_id), session.obj.shape.value,
              session.obj.diameter_cm, session.sample_period_ms)
    parts = [f"# {key}={value}\n" for key, value in zip(_HEADER_KEYS, values)]
    parts.extend(map("%s,%s,%s,%s,%s,%s\n".__mod__, zip(session.stamps, *session.counts)))
    return "".join(parts).encode("ascii")


def read_session_file(path) -> GraspSession:
    return read_session(read_bytes(path))


def write_session_file(session: GraspSession, path) -> None:
    """Write a session of wire-range ints (counts 0..ADC_MAX, increasing
    timestamps) such that read_session_file reads it back equal."""
    with open(path, "wb") as fh:
        fh.write(format_session(session))
