"""Synthetic grasp sessions: a stand-in for a human cohort wearing the glove.

A hand profile maps object geometry to the bend diameter each finger's sensor
actually sees (an affine gain/offset per finger and shape).  A grasp is
static, so within one session each finger's clean count is constant and only
converter noise varies frame to frame.  Cohorts draw per-user profiles as
bounded perturbations of the default table below.

A cohort is returned as an iterator that simulates each session as it is
read, as the glove records one grasp at a time, so a caller that writes each
session before reading the next holds one session at a time.  The call
itself draws every profile and raises any error a session could raise, so a
caller fails before it has written anything.
"""
from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import ArgumentError, DomainError, content_lines, finite_floats
from .sensor import SensorConfig, clean_adc_at_diameter, noise_draws, sample_with_noise
from .types import DEFAULT_FRAME_COUNT, DEFAULT_PERIOD_MS, FINGERS, SHAPE_BY_NAME, GraspObject, GraspSession, Shape

DEFAULT_SPHERE_USERS = 11
DEFAULT_CYLINDER_USERS = 8


# Default affine bend mapping for one (finger, shape) plus jitter bounds:
# effective_diameter = gain * object_diameter + offset_cm, with per-user gain
# drawn uniformly in gain*(1 +- gain_spread) and offset uniformly in
# offset_cm +- offset_spread_cm.  A profile table row lists the fields in order.
FingerProfile = namedtuple("FingerProfile", "gain offset_cm gain_spread offset_spread_cm")


# Tuned default table.  The numbers are calibrated once against the acceptance
# suite so the default cohort reproduces the qualitative per-finger patterns
# (ring most linear, thumb/index saturating above 10 cm, pinky crossing over
# near 10 cm); they are artifacts of this simulator, not measurements.
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


# One user's concrete bend mapping: (finger, shape) -> (gain, offset).
HandProfile = namedtuple("HandProfile", "user_id mapping")


def seeded_random(seed: int) -> random.Random:
    """The generator for ``seed``, the one every random stream starts from.
    A negative seed is an error: Random(-n) seeds as Random(n) does."""
    if seed < 0:
        raise ArgumentError(f"seed must not be negative, got {seed}")
    return random.Random(seed)


def make_hand_profile(
    user_id: str,
    seed: int,
    table: dict[tuple[str, Shape], FingerProfile] | None = None,
) -> HandProfile:
    """Draw one user's profile as a bounded perturbation of the table."""
    rng = seeded_random(seed)
    table = DEFAULT_PROFILE_TABLE if table is None else table
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
    gain, offset = profile.mapping[(finger, obj.shape)]
    if not gain > 0:
        raise DomainError(f"profile gain must be positive, got {gain}")
    return max(gain * obj.diameter_cm + offset, sensor.curve.d_tightest)


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
) -> GraspSession:
    """Simulate one static grasp recording, sampled every DEFAULT_PERIOD_MS,
    deterministic per seed."""
    if n_frames < 0:
        raise ArgumentError("need n_frames >= 0")
    rng = seeded_random(seed)
    clean = tuple(clean_finger_adc(obj, finger, profile, sensor) for finger in FINGERS)
    # One draw per session, frame-major and finger-minor; finger j reads
    # every fifth offset from the j-th.
    draws = noise_draws(rng, sensor, n_frames * len(FINGERS))
    counts = tuple([sample_with_noise(c, draws[j::len(FINGERS)], sensor) for j, c in enumerate(clean)])
    stamps = list(range(0, n_frames * DEFAULT_PERIOD_MS, DEFAULT_PERIOD_MS))
    return GraspSession(profile.user_id, obj, stamps, counts, DEFAULT_PERIOD_MS)


def _clean_counts(objects: list[GraspObject], profile: HandProfile, sensor: SensorConfig) -> list[int]:
    """Each object's five clean counts in turn, as its session computes them."""
    return [clean_finger_adc(obj, finger, profile, sensor) for obj in objects for finger in FINGERS]


def simulate_cohort(
    objects: Iterable[GraspObject],
    n_users: int,
    base_seed: int,
    sensor: SensorConfig | None = None,
    table: dict[tuple[str, Shape], FingerProfile] | None = None,
    user_prefix: str = "u",
) -> Iterator[GraspSession]:
    """One session per (user, object), users in turn, with per-user profiles
    drawn from ``base_seed``.  Bit-for-bit reproducible for identical arguments.

    The call checks the arguments, draws every profile from the master stream
    and raises any error a session could raise.  The iterator it returns then
    draws each session's seed from the same stream, and simulates the
    session, only as the session is read.
    """
    objects = list(objects)
    if not objects:
        raise ArgumentError("object list is empty")
    if n_users < 1:
        raise ArgumentError(f"need at least one user, got {n_users}")
    sensor = SensorConfig() if sensor is None else sensor

    master = seeded_random(base_seed)
    profiles = [
        make_hand_profile(f"{user_prefix}{k + 1:02d}", master.getrandbits(32), table)
        for k in range(n_users)
    ]
    # A session can fail only in its clean counts: a gain that is not
    # positive, or a config whose divider or converter arithmetic overflows.
    # Once a gain is positive, the bend, the resistance and both voltages are
    # monotone in the diameter, so each shape's smallest and largest objects
    # (objects of one shape order by diameter) bound all of its sessions.
    ends = []
    for shape in dict.fromkeys(obj.shape for obj in objects):
        sized = [obj for obj in objects if obj.shape is shape]
        ends += [min(sized), max(sized)]
    for profile in profiles:
        try:
            _clean_counts(ends, profile, sensor)
        except DomainError:
            # Raise what this user's first failing session would raise.
            _clean_counts(objects, profile, sensor)
            raise
    return (
        simulate_session(obj, profile, sensor, master.getrandbits(32))
        for profile in profiles
        for obj in objects
    )


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
        if (finger, shape) in table:
            raise ArgumentError(f"{where}: repeats the row for ({finger}, {shape_name})")
        profile = FingerProfile(*finite_floats(parts[2:], FingerProfile._fields, where))
        for name, spread in zip(FingerProfile._fields[2:], profile[2:]):
            if spread < 0:
                raise ArgumentError(f"{where}: {name} must be non-negative, got {spread!r}")
        table[(finger, shape)] = profile
    missing = [key for f in FINGERS for s in Shape if (key := (f, s)) not in table]
    if missing:
        raise ArgumentError(f"profile table incomplete, missing {missing[0]}")
    return table
