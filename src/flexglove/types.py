"""Core domain types: fingers, shapes, objects and grasp sessions."""
from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import ArgumentError

# Canonical finger order. This is the one and only channel table: the device
# scans its analog pins in the order A4, A0, A1, A2, A3, which is already
# thumb..pinky, so frame fields, simulator output and every 5-vector in the
# package share this order with no reordering anywhere.
FINGERS: tuple[str, ...] = ("thumb", "index", "middle", "ring", "pinky")

ADC_MAX = 1023  # 10-bit converter ceiling

# A session as the device records it: frames per session, ms between frames.
DEFAULT_FRAME_COUNT = 100
DEFAULT_PERIOD_MS = 50


class Shape(str, enum.Enum):
    SPHERE = "sphere"
    CYLINDER = "cylinder"


# Each shape by its name in files: a dict lookup, where Shape(name) goes
# through the Enum machinery at about half a microsecond a call.
SHAPE_BY_NAME: dict[str, Shape] = {shape.value: shape for shape in Shape}


class GraspObject(namedtuple("GraspObject", "shape diameter_cm")):
    """A graspable test object: a sphere or cylinder of known diameter."""

    __slots__ = ()

    def __new__(cls, shape: Shape, diameter_cm: float):
        diameter_cm = float(diameter_cm)
        if not (diameter_cm > 0 and math.isfinite(diameter_cm)):
            raise ArgumentError(f"object diameter must be positive and finite, got {diameter_cm}")
        return tuple.__new__(cls, (shape, diameter_cm))

    # _replace builds through _make, so it runs the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))


class GraspSession(namedtuple("GraspSession", "user_id obj stamps counts sample_period_ms")):
    """A recorded grasp: a user, an object, and its frames held as columns.

    ``stamps`` is the list of frame timestamps in ms.  ``counts`` is a tuple
    of five lists of ADC counts, one per finger in FINGERS order, each as
    long as ``stamps``; construction, and so ``_replace``, checks that.  The
    reader and the simulator build exactly these types, so a session read
    back from its file compares equal to the one written.  Build a changed
    session with ``_replace(stamps=..., counts=...)``.
    """

    __slots__ = ()

    def __new__(cls, user_id: str, obj: GraspObject, stamps: list[int],
                counts: tuple[list[int], ...], sample_period_ms: int = DEFAULT_PERIOD_MS):
        if [*map(len, counts)] != [len(stamps)] * len(FINGERS):
            lengths = [len(stamps), *map(len, counts)]
            raise ArgumentError(f"session columns differ in length: {lengths} (stamps, then counts)")
        return tuple.__new__(cls, (user_id, obj, stamps, counts, sample_period_ms))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def frames(self) -> list[tuple[int, ...]]:
        """The frames as rows, (t_ms, thumb, index, middle, ring, pinky):
        built anew on each access, for tests and tools.  The pipeline reads
        the columns."""
        return list(zip(self.stamps, *self.counts))


def default_objects(shape: Shape) -> list[GraspObject]:
    """The full 1 cm sweep, 6-16 cm; cylinders skip 10 cm (that test object
    was never available).  See README for the sphere-count caveat."""
    return [
        GraspObject(shape, float(d))
        for d in range(6, 17)
        if shape is Shape.SPHERE or d != 10
    ]
