"""Synthetic grasp sessions: a stand-in for a human cohort wearing the glove.

A hand profile maps object geometry to the bend diameter each finger's sensor
actually sees (an affine gain/offset per finger and shape).  A grasp is
static, so within one session each finger's clean count is constant and only
converter noise varies frame to frame.  Cohorts draw per-user profiles as
bounded perturbations of the default table below.
"""
from __future__ import annotations

import functools
import random
from typing import Iterable, NamedTuple

from .errors import ArgumentError, DomainError, content_lines, finite_floats, read_ascii
# sample_with_noise is not called here but stays importable from this module:
# bench/layers.py traces it under this name.
from .sensor import SensorConfig, clean_adc_at_diameter, sample_with_noise  # noqa: F401
from .types import DEFAULT_FRAME_COUNT, DEFAULT_PERIOD_MS, FINGERS, SHAPE_BY_NAME, GraspObject, GraspSession, Shape

DEFAULT_SPHERE_USERS = 11
DEFAULT_CYLINDER_USERS = 8


class FingerProfile(NamedTuple):
    """Default affine bend mapping for one (finger, shape) plus jitter bounds.

    effective_diameter = gain * object_diameter + offset_cm, with per-user
    gain drawn uniformly in gain*(1 +- gain_spread) and offset uniformly in
    offset_cm +- offset_spread_cm.
    """

    gain: float
    offset_cm: float
    gain_spread: float
    offset_spread_cm: float


# Tuned default table, version below.  The numbers are calibrated once against
# the acceptance suite so the default cohort reproduces the qualitative
# per-finger patterns (ring most linear, thumb/index saturating above 10 cm,
# pinky crossing over near 10 cm); they are artifacts of this simulator, not
# measurements.
PROFILE_TABLE_VERSION = "1"
DEFAULT_PROFILE_TABLE: dict[tuple[str, Shape], FingerProfile] = {
    ("thumb", Shape.SPHERE): FingerProfile(1.00, 0.75, 0.02, 0.10),
    ("thumb", Shape.CYLINDER): FingerProfile(1.00, 0.25, 0.02, 0.10),
    ("index", Shape.SPHERE): FingerProfile(0.45, 2.40, 0.03, 0.12),
    ("index", Shape.CYLINDER): FingerProfile(1.00, 0.65, 0.02, 0.10),
    ("middle", Shape.SPHERE): FingerProfile(0.36, 2.95, 0.04, 0.12),
    ("middle", Shape.CYLINDER): FingerProfile(0.33, 3.30, 0.04, 0.12),
    ("ring", Shape.SPHERE): FingerProfile(0.50, 2.10, 0.03, 0.12),
    ("ring", Shape.CYLINDER): FingerProfile(0.46, 2.45, 0.03, 0.12),
    ("pinky", Shape.SPHERE): FingerProfile(0.52, 1.95, 0.03, 0.10),
    ("pinky", Shape.CYLINDER): FingerProfile(0.32, 3.95, 0.03, 0.10),
}


class HandProfile(NamedTuple):
    """One user's concrete bend mapping: (finger, shape) -> (gain, offset)."""

    user_id: str
    mapping: dict[tuple[str, Shape], tuple[float, float]]

    def gain_offset(self, finger: str, shape: Shape) -> tuple[float, float]:
        try:
            return self.mapping[(finger, shape)]
        except KeyError:
            raise ArgumentError(f"profile {self.user_id!r} lacks ({finger}, {shape.value})") from None


def default_hand_profile(user_id: str = "default") -> HandProfile:
    return HandProfile(
        user_id=user_id,
        mapping={key: (p.gain, p.offset_cm) for key, p in DEFAULT_PROFILE_TABLE.items()},
    )


def make_hand_profile(
    user_id: str,
    seed: int,
    table: dict[tuple[str, Shape], FingerProfile] | None = None,
) -> HandProfile:
    """Draw one user's profile as a bounded perturbation of the table."""
    table = DEFAULT_PROFILE_TABLE if table is None else table
    rng = random.Random(seed)
    mapping: dict[tuple[str, Shape], tuple[float, float]] = {}
    for finger in FINGERS:
        for shape in Shape:
            base = table[(finger, shape)]
            gain = base.gain * (1.0 + base.gain_spread * rng.uniform(-1.0, 1.0))
            offset = base.offset_cm + base.offset_spread_cm * rng.uniform(-1.0, 1.0)
            mapping[(finger, shape)] = (gain, offset)
    return HandProfile(user_id=user_id, mapping=mapping)


def finger_bend_diameter(
    obj: GraspObject, finger: str, profile: HandProfile, sensor: SensorConfig
) -> float:
    """Bend diameter (cm) this finger's sensor sees while grasping ``obj``,
    pinned to the sensor's d_tightest where the profile asks for a tighter bend.
    """
    gain, offset = profile.gain_offset(finger, obj.shape)
    if not gain > 0:
        raise DomainError(f"profile gain must be positive, got {gain}")
    return max(gain * obj.diameter_cm + offset, sensor.curve.d_tightest)


def clean_finger_adc(
    obj: GraspObject, finger: str, profile: HandProfile, sensor: SensorConfig
) -> int:
    """Noise-free count for one finger holding ``obj`` (static grasp)."""
    return clean_adc_at_diameter(finger_bend_diameter(obj, finger, profile, sensor), sensor)


@functools.cache
def _draw_tables(span: int) -> tuple[bytes, bytes]:
    """The translate table from a top byte to its top k bits, and the rejected values."""
    k = span.bit_length()
    return bytes(b >> (8 - k) for b in range(256)), bytes(range(span, 1 << k))


def _noise_draws(rng: random.Random, span: int, count: int) -> bytes:
    """The next ``count`` values of randrange(span) from ``rng``, for span < 256.

    getrandbits(32 * m) returns m 32-bit MT words least significant first, so
    byte 3 of each little-endian 4-byte group is a word's top byte, which holds
    the k = span.bit_length() bits randrange takes from a word while k <= 8.
    """
    top_bits, rejected = _draw_tables(span)
    k = span.bit_length()
    draws = b""
    while len(draws) < count:
        # An eighth more words than the draws still owed need on average,
        # so a second pass is rare; any surplus is never used.
        words = ((count - len(draws)) << k) // span * 9 // 8 + 1
        top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        # Two calls: translate(table, delete) would delete on the input bytes.
        draws += top_bytes.translate(top_bits).translate(None, rejected)
    return draws


def simulate_session(
    obj: GraspObject,
    profile: HandProfile,
    sensor: SensorConfig,
    seed: int,
    n_frames: int = DEFAULT_FRAME_COUNT,
) -> GraspSession:
    """Simulate one static grasp recording, sampled every DEFAULT_PERIOD_MS,
    deterministic per seed."""
    if n_frames < 0:
        raise ArgumentError("need n_frames >= 0")
    clean = tuple(clean_finger_adc(obj, finger, profile, sensor) for finger in FINGERS)
    top = sensor.adc_levels - 1
    amp = int(sensor.noise_amplitude)
    stamps = range(0, n_frames * DEFAULT_PERIOD_MS, DEFAULT_PERIOD_MS)
    # The noise stream every simulated file rests on: one Random(seed) per
    # session; a run of 32-bit MT words, the top k = span.bit_length() bits of
    # each a draw, values >= span rejected, exactly as randrange and
    # sample_with_noise consume them; frame-major, finger-minor; span 1 draws 0s.
    draws = _noise_draws(random.Random(seed), 2 * amp + 1, n_frames * len(FINGERS))
    columns = []
    for j, c in enumerate(clean):
        # Draw r is the count c + r - amp, clamped to the converter range.
        noisy = [max(0, min(v, top)) for v in range(c - amp, c + amp + 1)]
        columns.append(map(noisy.__getitem__, draws[j::len(FINGERS)]))
    frames = list(zip(stamps, *columns))
    return GraspSession(
        user_id=profile.user_id, obj=obj, frames=frames, sample_period_ms=DEFAULT_PERIOD_MS
    )


def simulate_cohort(
    objects: Iterable[GraspObject],
    n_users: int,
    base_seed: int,
    sensor: SensorConfig | None = None,
    table: dict[tuple[str, Shape], FingerProfile] | None = None,
    user_prefix: str = "u",
) -> list[GraspSession]:
    """One session per (user, object), with per-user profiles drawn from
    ``base_seed``.  Bit-for-bit reproducible for identical arguments."""
    objects = list(objects)
    if not objects:
        raise ArgumentError("object list is empty")
    if n_users < 1:
        raise ArgumentError(f"need at least one user, got {n_users}")
    sensor = SensorConfig() if sensor is None else sensor

    master = random.Random(base_seed)
    profiles = [
        make_hand_profile(f"{user_prefix}{k + 1:02d}", master.getrandbits(32), table)
        for k in range(n_users)
    ]
    sessions = []
    for profile in profiles:
        for obj in objects:
            sessions.append(simulate_session(obj, profile, sensor, master.getrandbits(32)))
    return sessions


# --- profile table file support ----------------------------------------------
#
# Whitespace-separated columns, '#' comments:
#   finger shape gain offset_cm gain_spread offset_spread_cm

def parse_profile_table(text: str) -> dict[tuple[str, Shape], FingerProfile]:
    table: dict[tuple[str, Shape], FingerProfile] = {}
    for lineno, line in content_lines(text):
        where = f"profile table line {lineno}"
        parts = line.split()
        if len(parts) != 6:
            raise ArgumentError(f"{where}: expected 6 columns, got {len(parts)}")
        finger, shape_name = parts[0], parts[1]
        if finger not in FINGERS:
            raise ArgumentError(f"{where}: unknown finger {finger!r}")
        try:
            shape = SHAPE_BY_NAME[shape_name]
        except KeyError:
            raise ArgumentError(f"{where}: {shape_name!r} is not a valid Shape") from None
        profile = FingerProfile(*finite_floats(parts[2:], FingerProfile._fields, where))
        for name, spread in zip(FingerProfile._fields[2:], profile[2:]):
            if spread < 0:
                raise ArgumentError(f"{where}: {name} must be non-negative, got {spread!r}")
        table[(finger, shape)] = profile
    missing = [key for f in FINGERS for s in Shape if (key := (f, s)) not in table]
    if missing:
        raise ArgumentError(f"profile table incomplete, missing {missing[0]}")
    return table


def format_profile_table(table: dict[tuple[str, Shape], FingerProfile]) -> str:
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


def load_profile_table(path) -> dict[tuple[str, Shape], FingerProfile]:
    return parse_profile_table(read_ascii(path, "profile table"))
