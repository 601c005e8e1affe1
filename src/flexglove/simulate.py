"""Synthetic grasp sessions: a stand-in for a human cohort wearing the glove.

A hand profile maps object geometry to the bend diameter each finger's sensor
actually sees (an affine gain/offset per finger and shape).  A grasp is
static, so within one session each finger's clean count is constant and only
converter noise varies frame to frame.  Cohorts draw per-user profiles as
bounded perturbations of the default table below.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ArgumentError, BendRangeError, DomainError
# sample_with_noise is not called here but stays importable from this module:
# bench/layers.py traces it under this name.
from .sensor import SensorConfig, clean_adc_at_diameter, sample_with_noise  # noqa: F401
from .types import FINGERS, Frame, GraspObject, GraspSession, Shape

DEFAULT_FRAME_COUNT = 100
DEFAULT_PERIOD_MS = 50

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


@dataclass(frozen=True)
class HandProfile:
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
    variability: float = 1.0,
) -> HandProfile:
    """Draw one user's profile as a bounded perturbation of the table."""
    table = DEFAULT_PROFILE_TABLE if table is None else table
    rng = random.Random(seed)
    mapping: dict[tuple[str, Shape], tuple[float, float]] = {}
    for finger in FINGERS:
        for shape in Shape:
            base = table[(finger, shape)]
            gain = base.gain * (1.0 + variability * base.gain_spread * rng.uniform(-1.0, 1.0))
            offset = base.offset_cm + variability * base.offset_spread_cm * rng.uniform(-1.0, 1.0)
            mapping[(finger, shape)] = (gain, offset)
    return HandProfile(user_id=user_id, mapping=mapping)


def finger_bend_diameter(
    obj: GraspObject,
    finger: str,
    profile: HandProfile,
    sensor: SensorConfig,
    clamp: bool = True,
) -> float:
    """Bend diameter (cm) this finger's sensor sees while grasping ``obj``.

    With clamping enabled (the default) results tighter than the sensor's
    domain are pinned to d_tightest; with it disabled they raise.
    """
    gain, offset = profile.gain_offset(finger, obj.shape)
    if not gain > 0:
        raise DomainError(f"profile gain must be positive, got {gain}")
    effective = gain * obj.diameter_cm + offset
    floor_cm = sensor.curve.d_tightest
    if effective < floor_cm:
        if not clamp:
            raise BendRangeError(
                f"{finger}/{obj.shape.value} at {obj.diameter_cm} cm needs a "
                f"{effective:.2f} cm bend, below the sensor floor {floor_cm} cm"
            )
        return floor_cm
    return effective


def clean_finger_adc(
    obj: GraspObject, finger: str, profile: HandProfile, sensor: SensorConfig
) -> int:
    """Noise-free count for one finger holding ``obj`` (static grasp)."""
    return clean_adc_at_diameter(finger_bend_diameter(obj, finger, profile, sensor), sensor)


def simulate_session(
    obj: GraspObject,
    profile: HandProfile,
    sensor: SensorConfig,
    seed: int,
    n_frames: int = DEFAULT_FRAME_COUNT,
    period_ms: int = DEFAULT_PERIOD_MS,
) -> GraspSession:
    """Simulate one static grasp recording, deterministic per seed."""
    if n_frames < 0 or period_ms <= 0:
        raise ArgumentError("need n_frames >= 0 and period_ms > 0")
    clean = tuple(clean_finger_adc(obj, finger, profile, sensor) for finger in FINGERS)
    top = sensor.adc_levels - 1
    for count in clean:
        if not 0 <= count <= top:
            raise DomainError(f"count {count} outside 0..{top}")
    amp = int(sensor.noise_amplitude)
    if amp == 0:
        adcs = [clean] * n_frames
    else:
        # randrange(2*amp + 1) - amp consumes the generator exactly as
        # sample_with_noise's randint(-amp, amp) does, so drawing a whole
        # session here, frame by frame in finger order, gives the same stream.
        draw, span = random.Random(seed).randrange, 2 * amp + 1
        noisy = iter(
            [max(0, min(c + draw(span) - amp, top)) for _ in range(n_frames) for c in clean]
        )
        adcs = zip(*[noisy] * len(FINGERS))
    frames = [Frame(i * period_ms, adc) for i, adc in enumerate(adcs)]
    return GraspSession(
        user_id=profile.user_id, obj=obj, frames=frames, sample_period_ms=period_ms
    )


def simulate_cohort(
    objects: Iterable[GraspObject],
    n_users: int,
    base_seed: int,
    sensor: SensorConfig | None = None,
    table: dict[tuple[str, Shape], FingerProfile] | None = None,
    variability: float = 1.0,
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
        make_hand_profile(
            f"{user_prefix}{k + 1:02d}", master.getrandbits(32), table, variability
        )
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
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ArgumentError(f"profile table line {lineno}: expected 6 columns, got {len(parts)}")
        finger, shape_name = parts[0], parts[1]
        if finger not in FINGERS:
            raise ArgumentError(f"profile table line {lineno}: unknown finger {finger!r}")
        try:
            shape = Shape(shape_name)
            numbers = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise ArgumentError(f"profile table line {lineno}: {exc}") from None
        table[(finger, shape)] = FingerProfile(*numbers)
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
    with open(path, "r", encoding="ascii") as fh:
        return parse_profile_table(fh.read())
