"""Session file and wire-format parsing.

Hardware captures and simulator output share one representation so the rest
of the pipeline never cares where a session came from.

Wire format, one frame per line, newline terminated, ASCII decimal:

    <t_ms>,<thumb>,<index>,<middle>,<ring>,<pinky>

Session file: five header lines followed by frame lines, `\n` terminators:

    # schema=1
    # user=<id>
    # shape=<sphere|cylinder>
    # diameter_cm=<number>
    # period_ms=<number>

I/O is deliberately permissive about frame counts (a 37-frame capture is a
valid file); the analysis layer enforces the expected count instead.
"""
from __future__ import annotations

import math
import re
from typing import BinaryIO

from .errors import (
    MalformedFrame,
    MalformedHeader,
    OrderViolation,
    ParseError,
    RangeViolation,
    SchemaError,
)
from .types import ADC_MAX, Frame, GraspObject, GraspSession, Shape

SCHEMA_VERSION = 1

_HEADER_KEYS = ("schema", "user", "shape", "diameter_cm", "period_ms")


def _is_decimal(fieldtext: str) -> bool:
    # str.isdigit() accepts non-ASCII digits; the wire grammar does not.
    return bool(fieldtext) and all(c in "0123456789" for c in fieldtext)


# The whole wire grammar in one pattern; re.ASCII keeps \d to 0-9.  Trailing
# newlines are tolerated, as rstrip("\n") in _frame_error tolerates them.
_FRAME_LINE = re.compile(r"(\d+),(\d+),(\d+),(\d+),(\d+),(\d+)\n*", re.ASCII)


def parse_frame(line: str, line_no: int | None = None) -> Frame:
    """Parse one wire-format record into a Frame.

    Raises MalformedFrame when the line is not six comma-separated decimal
    fields, RangeViolation when a field parses but exceeds the 10-bit ceiling
    (which points at a wiring or converter fault rather than a typo).
    """
    match = _FRAME_LINE.fullmatch(line)
    if match is not None:
        t_ms, thumb, index, middle, ring, pinky = map(int, match.groups())
        if max(thumb, index, middle, ring, pinky) <= ADC_MAX:
            return Frame(t_ms, (thumb, index, middle, ring, pinky))
    raise _frame_error(line, line_no)


def _frame_error(line: str, line_no: int | None) -> ParseError:
    """The error for a line that parse_frame rejected, naming the first fault
    in field order."""
    fields = line.rstrip("\n").split(",")
    if len(fields) != 6:
        return MalformedFrame(f"expected 6 fields, got {len(fields)}", line=line_no)
    bad = next((f for f in fields if not _is_decimal(f)), None)
    if bad is not None:
        return MalformedFrame(f"field {bad!r} is not a non-negative decimal integer", line=line_no)
    over = next(v for v in map(int, fields[1:]) if v > ADC_MAX)
    return RangeViolation(f"ADC value {over} exceeds {ADC_MAX}", line=line_no)


def format_frame(frame: Frame) -> str:
    thumb, index, middle, ring, pinky = frame.adc
    return f"{frame.t_ms},{thumb},{index},{middle},{ring},{pinky}\n"


def _parse_header_line(line: str, key: str, line_no: int) -> str:
    prefix = f"# {key}="
    if not line.startswith(prefix):
        raise MalformedHeader(f"expected {prefix!r}..., got {line!r}", line=line_no)
    value = line[len(prefix):]
    if not value:
        raise MalformedHeader(f"empty value for {key!r}", line=line_no)
    return value


def read_session(source: BinaryIO | bytes) -> GraspSession:
    """Read and validate one session from a byte stream or bytes."""
    data = source if isinstance(source, bytes) else source.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"session stream is not ASCII: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < len(_HEADER_KEYS):
        raise MalformedHeader("stream too short to hold a session header")

    values = {
        key: _parse_header_line(lines[i], key, i + 1)
        for i, key in enumerate(_HEADER_KEYS)
    }
    if not _is_decimal(values["schema"]):
        raise MalformedHeader(f"schema {values['schema']!r} is not an integer", line=1)
    if int(values["schema"]) != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {values['schema']}", line=1)
    try:
        shape = Shape(values["shape"])
    except ValueError:
        raise MalformedHeader(f"unknown shape {values['shape']!r}", line=3) from None
    try:
        diameter = float(values["diameter_cm"])
    except ValueError:
        raise MalformedHeader(f"diameter {values['diameter_cm']!r} is not a number", line=4) from None
    if not diameter > 0:
        raise MalformedHeader(f"diameter must be positive, got {diameter}", line=4)
    if not math.isfinite(diameter):
        raise MalformedHeader(f"diameter must be finite, got {diameter}", line=4)
    if not _is_decimal(values["period_ms"]):
        raise MalformedHeader(f"period {values['period_ms']!r} is not an integer", line=5)

    frames: list[Frame] = []
    last_t = -1
    for i, line in enumerate(lines[len(_HEADER_KEYS):], start=len(_HEADER_KEYS) + 1):
        frame = parse_frame(line, line_no=i)
        if frame.t_ms <= last_t:
            raise OrderViolation(
                f"timestamp {frame.t_ms} ms does not increase past {last_t} ms", line=i
            )
        last_t = frame.t_ms
        frames.append(frame)

    return GraspSession(
        user_id=values["user"],
        obj=GraspObject(shape, diameter),
        frames=frames,
        sample_period_ms=int(values["period_ms"]),
        schema_version=int(values["schema"]),
    )


def _validate_user_id(user_id: str) -> str:
    if not user_id or user_id != user_id.strip() or any(c in user_id for c in "\n\r"):
        raise MalformedHeader(f"unusable user id {user_id!r}")
    return user_id


def format_session(session: GraspSession) -> bytes:
    """Serialize a session to its canonical byte representation."""
    parts = [
        f"# schema={session.schema_version}\n",
        f"# user={_validate_user_id(session.user_id)}\n",
        f"# shape={session.obj.shape.value}\n",
        f"# diameter_cm={session.obj.diameter_cm!r}\n",
        f"# period_ms={session.sample_period_ms}\n",
    ]
    parts.extend(format_frame(frame) for frame in session.frames)
    return "".join(parts).encode("ascii")


def write_session(session: GraspSession, sink: BinaryIO) -> None:
    """Write a session such that read_session(write_session(s)) == s."""
    sink.write(format_session(session))


def read_session_file(path) -> GraspSession:
    with open(path, "rb") as fh:
        return read_session(fh)


def write_session_file(session: GraspSession, path) -> None:
    with open(path, "wb") as fh:
        write_session(session, fh)
