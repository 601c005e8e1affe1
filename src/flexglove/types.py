"""Core domain types: fingers, shapes, frames and grasp sessions."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ArgumentError

# Canonical finger order. This is the one and only channel table: the device
# scans its analog pins in the order A4, A0, A1, A2, A3, which is already
# thumb..pinky, so frame fields, simulator output and every 5-vector in the
# package share this order with no reordering anywhere.
FINGERS: tuple[str, ...] = ("thumb", "index", "middle", "ring", "pinky")
ANALOG_PIN_BY_FINGER: dict[str, str] = dict(zip(FINGERS, ("A4", "A0", "A1", "A2", "A3")))

ADC_MAX = 1023  # 10-bit converter ceiling

# Object diameters the default cohorts cover; anything outside is usable but
# counts as extrapolation.
COHORT_DIAMETER_MIN_CM = 6.0
COHORT_DIAMETER_MAX_CM = 16.0


class Shape(str, enum.Enum):
    SPHERE = "sphere"
    CYLINDER = "cylinder"


@dataclass(frozen=True)
class GraspObject:
    """A graspable test object: a sphere or cylinder of known diameter."""

    shape: Shape
    diameter_cm: float

    def __post_init__(self):
        object.__setattr__(self, "diameter_cm", float(self.diameter_cm))
        if not (self.diameter_cm > 0 and math.isfinite(self.diameter_cm)):
            raise ArgumentError(
                f"object diameter must be positive and finite, got {self.diameter_cm}"
            )

    @property
    def in_cohort_range(self) -> bool:
        """False when classifying/simulating this object is extrapolation."""
        return COHORT_DIAMETER_MIN_CM <= self.diameter_cm <= COHORT_DIAMETER_MAX_CM


@dataclass(frozen=True)
class Frame:
    """One sample instant: a timestamp and five ADC counts in finger order."""

    t_ms: int
    adc: tuple[int, int, int, int, int]


@dataclass(frozen=True)
class SessionHeader:
    """Metadata block at the top of a session file."""

    user_id: str
    shape: Shape
    diameter_cm: float
    sample_period_ms: int
    schema_version: int = 1


@dataclass
class GraspSession:
    """A recorded grasp: an object, a user, and an ordered frame sequence."""

    user_id: str
    obj: GraspObject
    frames: list[Frame]
    sample_period_ms: int = 50
    schema_version: int = 1

    def header(self) -> SessionHeader:
        return SessionHeader(
            user_id=self.user_id,
            shape=self.obj.shape,
            diameter_cm=self.obj.diameter_cm,
            sample_period_ms=self.sample_period_ms,
            schema_version=self.schema_version,
        )

    def finger_values(self, finger: str) -> list[int]:
        i = FINGERS.index(finger)
        return [f.adc[i] for f in self.frames]


def default_sphere_diameters() -> list[float]:
    """The full 1 cm sweep; see README for the sphere-count caveat."""
    return [float(d) for d in range(6, 17)]


def default_cylinder_diameters() -> list[float]:
    """Same sweep minus 10 cm (that test object was never available)."""
    return [float(d) for d in range(6, 17) if d != 10]


def default_objects(shape: Shape) -> list[GraspObject]:
    diameters = (
        default_sphere_diameters() if shape is Shape.SPHERE else default_cylinder_diameters()
    )
    return [GraspObject(shape, d) for d in diameters]
