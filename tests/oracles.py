"""Reference implementations the tests check against.

The statistics oracles deliberately use nothing from the package and spell
every formula out as plain summation so they stay independent of the code
paths under test.  The session reader oracle is the line-at-a-time reader
that read_session's block pass must agree with: it shares only parse_frame,
whose errors the parser tests pin literally, and the package's types.  The
header oracle is the line loop that read_session's header pattern must agree
with; it reads the frame block through the package's own block reader, which
the line-at-a-time oracle checks.  The cohort oracle is build_cohort as it was
before it gathered each session's normalized values as one row: one dict per
normalized finger sweep and one list per cell, each cell summarized by
statistics.stdev and math.fsum.  It shares session_means, FingerStats and the
error classes with the package.  The noise oracles draw every offset with
its own rng.randint call, as the converter model did before it took a whole
stream in one draw; they share only the clean counts with the package.

The helpers at the end serve the tests only.  No command writes a sensor
config or a profile table, so the writers of those two formats live here, as
do a session built from rows, the field types that parity checks compare,
the default-table hand profile and the verdict lookup by diameter.
"""
import math
import random
import statistics
import sys

from flexglove import (
    ArgumentError,
    DegenerateRange,
    FingerStats,
    GraspObject,
    GraspSession,
    MalformedHeader,
    OrderViolation,
    PreconditionViolation,
    SchemaError,
    Shape,
    parse_frame,
    session_means,
)
from flexglove.sensor import _CONFIG_KEYS, _CURVE_KEYS, clean_adc_at_diameter
from flexglove.session_io import _read_frames
from flexglove.simulate import DEFAULT_PROFILE_TABLE, HandProfile, clean_finger_adc
from flexglove.types import FINGERS, SHAPE_BY_NAME

PROFILE_TABLE_VERSION = "1"


def sem_oracle(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(var) / math.sqrt(n)


def ols_oracle(points):
    """Least-squares slope/intercept/r2 by the textbook summation formulas."""
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    mean_y = sy / n
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in points)
    ss_tot = sum((y - mean_y) ** 2 for _, y in points)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def build_cohort_oracle(sessions, expected_frames=100):
    """(values, summary, raw_scale) of a cohort, as CohortTable holds them:
    build_cohort with five cell appends per session."""
    sweeps = {}
    for session in sessions:
        sweep = sweeps.setdefault((session.user_id, session.obj.shape), {})
        d = session.obj.diameter_cm
        if d in sweep:
            raise ArgumentError(f"duplicate session for {session.user_id}/{session.obj.shape.value}/{d} cm")
        sweep[d] = session_means(session, expected_frames)
    if not sweeps:
        raise ArgumentError("no sessions to analyze")

    cells = {}
    extremes = {}
    for (user, shape), sweep in sorted(sweeps.items(), key=lambda item: item[0][0]):
        columns = list(zip(*sweep.values()))
        for finger, column in zip(FINGERS, columns):
            values = dict(zip(sweep, column))
            if len(values) < 2:
                raise PreconditionViolation(f"user {user}, {shape.value}, {finger}: need at least 2 diameters, got {len(values)}")
            lo, hi = min(values.values()), max(values.values())
            if lo == hi:
                raise DegenerateRange(f"user {user}, {shape.value}, {finger}: all values equal {lo}; channel looks flat")
            for d, v in values.items():
                cells.setdefault((shape, d, finger), []).append((v - lo) / (hi - lo))
        lows, highs = extremes.setdefault(shape, ([], []))
        lows.append(tuple(map(min, columns)))
        highs.append(tuple(map(max, columns)))
    for (shape, d, finger), vals in cells.items():
        if len(vals) < 2:
            raise PreconditionViolation(
                f"cell ({shape.value}, {d:g}, {finger}) has a single contributing user; SEM is undefined"
            )
    values = {k: tuple(v) for k, v in cells.items()}
    summary = {
        key: FingerStats(math.fsum(v) / len(v), statistics.stdev(v) / math.sqrt(len(v)), len(v))
        for key, v in sorted(values.items(), key=lambda item: (item[0][0], item[0][1], FINGERS.index(item[0][2])))
    }
    raw_scale = {
        shape: tuple(tuple(math.fsum(c) / len(c) for c in zip(*rows)) for rows in pair)
        for shape, pair in extremes.items()
    }
    return values, summary, raw_scale


def noisy_by_draw(clean_counts, rng, sensor):
    """One reading per clean count, each the count plus its own
    rng.randint(-amplitude, amplitude), clamped to the converter range;
    amplitude 0 draws nothing."""
    amp, top = sensor.noise_amplitude, sensor.adc_levels - 1
    if amp == 0:
        return list(clean_counts)
    return [max(0, min(c + rng.randint(-amp, amp), top)) for c in clean_counts]


def per_draw_frames(obj, profile, sensor, seed, n_frames, period_ms=50):
    """A simulated session's frames, one draw per finger per frame."""
    clean = [clean_finger_adc(obj, f, profile, sensor) for f in FINGERS]
    rng = random.Random(seed)
    return [(i * period_ms, *noisy_by_draw(clean, rng, sensor)) for i in range(n_frames)]


def characterize_by_draw(sensor, seed):
    """characterize's readings, one draw each: five trials per diameter from
    22 cm down to 5 cm as (diameter, trials) pairs, then 1,000 samples at 12 cm."""
    rng = random.Random(seed)
    sweep = [
        (d, noisy_by_draw([clean_adc_at_diameter(float(d), sensor)] * 5, rng, sensor))
        for d in range(22, 4, -1)
    ]
    stability = noisy_by_draw([clean_adc_at_diameter(12.0, sensor)] * 1000, rng, sensor)
    return sweep, stability


def read_session_by_line(data):
    """Read a session from bytes one line at a time, as read_session did
    before it took the frame block in one pass."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"session stream is not ASCII: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 5:
        raise MalformedHeader("stream too short to hold a session header")

    values = {}
    for i, key in enumerate(("schema", "user", "shape", "diameter_cm", "period_ms")):
        prefix = f"# {key}="
        if not lines[i].startswith(prefix):
            raise MalformedHeader(f"expected {prefix!r}..., got {lines[i]!r}", line=i + 1)
        values[key] = lines[i][len(prefix):]
        if not values[key]:
            raise MalformedHeader(f"empty value for {key!r}", line=i + 1)
    digits = set("0123456789")
    if not (values["schema"] and set(values["schema"]) <= digits):
        raise MalformedHeader(f"schema {values['schema']!r} is not an integer", line=1)
    if int(values["schema"]) != 1:
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
    if not (values["period_ms"] and set(values["period_ms"]) <= digits):
        raise MalformedHeader(f"period {values['period_ms']!r} is not an integer", line=5)

    frames = []
    last_t = -1
    for i, line in enumerate(lines[5:], start=6):
        frame = parse_frame(line, line_no=i)
        if frame[0] <= last_t:
            raise OrderViolation(
                f"timestamp {frame[0]} ms does not increase past {last_t} ms", line=i
            )
        last_t = frame[0]
        frames.append(frame)

    return session_from_rows(values["user"], GraspObject(shape, diameter), frames, int(values["period_ms"]))


def _parse_header_line(line, key, line_no):
    prefix = f"# {key}="
    if not line.startswith(prefix):
        raise MalformedHeader(f"expected {prefix!r}..., got {line!r}", line=line_no)
    value = line[len(prefix):]
    if not value:
        raise MalformedHeader(f"empty value for {key!r}", line=line_no)
    return value


def read_session_by_header_loop(data):
    """Read a session from bytes with the header split into lines and checked
    one line at a time, as read_session did before it matched the header with
    one pattern."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"session stream is not ASCII: {exc}") from None
    keys = ("schema", "user", "shape", "diameter_cm", "period_ms")
    lines = text.split("\n", 5)
    if len(lines) < 5 or lines[4:] == [""]:
        raise MalformedHeader("stream too short to hold a session header")
    block = lines[5] if len(lines) > 5 else ""

    values = {key: _parse_header_line(lines[i], key, i + 1) for i, key in enumerate(keys)}
    if not (values["schema"].isascii() and values["schema"].isdigit()):
        raise MalformedHeader(f"schema {values['schema']!r} is not an integer", line=1)
    if values["schema"].lstrip("0") != "1":
        raise SchemaError(f"unsupported schema version {values['schema']}", line=1)
    try:
        shape = SHAPE_BY_NAME[values["shape"]]
    except KeyError:
        raise MalformedHeader(f"unknown shape {values['shape']!r}", line=3) from None
    try:
        diameter = float(values["diameter_cm"])
    except ValueError:
        raise MalformedHeader(f"diameter {values['diameter_cm']!r} is not a number", line=4) from None
    if not diameter > 0:
        raise MalformedHeader(f"diameter must be positive, got {diameter}", line=4)
    if not math.isfinite(diameter):
        raise MalformedHeader(f"diameter must be finite, got {diameter}", line=4)
    if not (values["period_ms"].isascii() and values["period_ms"].isdigit()):
        raise MalformedHeader(f"period {values['period_ms']!r} is not an integer", line=5)
    try:
        period_ms = int(values["period_ms"])
    except ValueError:
        raise MalformedHeader(
            f"period of {len(values['period_ms'])} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit conversion limit",
            line=5,
        ) from None

    stamps, counts = _read_frames(block.encode("ascii"), period_ms)
    return GraspSession(values["user"], GraspObject(shape, diameter), stamps, counts, period_ms)


def session_from_rows(user_id, obj, rows, sample_period_ms=50):
    """A session from its frames as rows, (t_ms, thumb, ..., pinky): the
    stamps as a list and one list per finger, the types read_session builds."""
    return GraspSession(
        user_id, obj, [row[0] for row in rows],
        tuple([row[j] for row in rows] for j in range(1, 6)), sample_period_ms,
    )


def field_types(session):
    """The type of each field and column of ``session``, and the set of
    value types in its columns: == alone takes 512.0 for 512."""
    values = {type(v) for column in (session.stamps, *session.counts) for v in column}
    return (*map(type, session), tuple(map(type, session.counts)), values)


def format_config(cfg):
    """A sensor config as the key = value text parse_config reads."""
    lines = ["# flex sensor channel configuration"]
    lines += [f"{key} = {getattr(cfg.curve, key)!r}" for key in _CURVE_KEYS]
    lines += [f"{key} = {getattr(cfg, key)!r}" for key in _CONFIG_KEYS]
    return "\n".join(lines) + "\n"


def format_profile_table(table):
    """A profile table as the whitespace-column text parse_profile_table reads."""
    lines = [
        f"# hand profile table v{PROFILE_TABLE_VERSION}",
        "# finger shape gain offset_cm gain_spread offset_spread_cm",
    ]
    for finger in FINGERS:
        for shape in Shape:
            p = table[(finger, shape)]
            lines.append(
                f"{finger} {shape.value} {p.gain!r} {p.offset_cm!r} "
                f"{p.gain_spread!r} {p.offset_spread_cm!r}"
            )
    return "\n".join(lines) + "\n"


def default_hand_profile(user_id="default"):
    """The default table's gains and offsets, with no per-user jitter."""
    return HandProfile(
        user_id=user_id,
        mapping={key: (p.gain, p.offset_cm) for key, p in DEFAULT_PROFILE_TABLE.items()},
    )


def verdict_at(verdicts, diameter_cm):
    """The verdict of ``verdicts`` at one diameter."""
    for v in verdicts:
        if v.diameter_cm == diameter_cm:
            return v
    raise KeyError(diameter_cm)
