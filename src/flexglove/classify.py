"""Shape discriminability and a nearest-centroid object classifier.

Discriminability applies the interval rule: two equal-diameter objects are
distinguishable when at least one finger's mean+-SEM intervals do not
overlap.  The classifier reduces each (shape, diameter) to the 5-vector of
normalized finger means and assigns new sessions to the nearest centroid.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .errors import ArgumentError, PreconditionViolation
from .stats import CohortTable, intervals_overlap, session_mean
from .types import FINGERS, GraspSession, Shape

# A new session has no diameter sweep of its own, so min-max normalization is
# impossible per-user.  Classification instead reuses the training cohort's
# per-finger raw extremes (per shape hypothesis) as a fixed calibration.
ScaleContext = dict[tuple[Shape, str], tuple[float, float]]


@dataclass(frozen=True)
class Centroid:
    shape: Shape
    diameter_cm: float
    vector: tuple[float, float, float, float, float]


@dataclass(frozen=True)
class DiameterVerdict:
    """Interval-overlap outcome for one common diameter."""

    diameter_cm: float
    overlap_by_finger: dict[str, bool]

    @property
    def discriminable(self) -> bool:
        return any(not ov for ov in self.overlap_by_finger.values())


@dataclass(frozen=True)
class DiscriminabilityReport:
    verdicts: list[DiameterVerdict]
    not_comparable: list[tuple[Shape, float]]

    def verdict_at(self, diameter_cm: float) -> DiameterVerdict:
        for v in self.verdicts:
            if v.diameter_cm == diameter_cm:
                return v
        raise KeyError(diameter_cm)


def discriminability(table: CohortTable) -> DiscriminabilityReport:
    """Compare sphere against cylinder at every diameter present for both."""
    shapes = table.shapes()
    if Shape.SPHERE not in shapes or Shape.CYLINDER not in shapes:
        raise PreconditionViolation("need both shapes in the cohort table")
    sphere_d = set(table.diameters(Shape.SPHERE))
    cylinder_d = set(table.diameters(Shape.CYLINDER))
    common = sorted(sphere_d & cylinder_d)
    if not common:
        raise PreconditionViolation("the two shapes share no diameter")

    verdicts = []
    for d in common:
        overlap = {
            finger: intervals_overlap(
                table.stats((Shape.SPHERE, d, finger)),
                table.stats((Shape.CYLINDER, d, finger)),
            )
            for finger in FINGERS
        }
        verdicts.append(DiameterVerdict(diameter_cm=d, overlap_by_finger=overlap))
    not_comparable = sorted(
        [(Shape.SPHERE, d) for d in sphere_d - cylinder_d]
        + [(Shape.CYLINDER, d) for d in cylinder_d - sphere_d],
        key=lambda t: (t[0].value, t[1]),
    )
    return DiscriminabilityReport(verdicts=verdicts, not_comparable=not_comparable)


def build_centroids(table: CohortTable) -> list[Centroid]:
    """One centroid per (shape, diameter): the five normalized finger means."""
    if not table.values:
        raise PreconditionViolation("empty cohort table")
    centroids = []
    for shape in table.shapes():
        for d in table.diameters(shape):
            vector = tuple(table.stats((shape, d, finger)).mean for finger in FINGERS)
            centroids.append(Centroid(shape=shape, diameter_cm=d, vector=vector))
    return centroids


def scale_context(table: CohortTable) -> ScaleContext:
    if not table.raw_scale:
        raise PreconditionViolation("cohort table carries no raw scale context")
    return dict(table.raw_scale)


def _normalize_query(
    raw_means: dict[str, float], shape: Shape, context: ScaleContext
) -> tuple[float, ...]:
    out = []
    for finger in FINGERS:
        lo, hi = context[(shape, finger)]
        if hi == lo:
            raise PreconditionViolation(f"flat scale context for ({shape.value}, {finger})")
        out.append((raw_means[finger] - lo) / (hi - lo))
    return tuple(out)


def classify_session(
    session: GraspSession,
    centroids: list[Centroid],
    context: ScaleContext,
    expected_frames: int = 100,
) -> tuple[Shape, float, float]:
    """Assign a session to the nearest centroid in normalized finger space.

    Each shape hypothesis normalizes the session under that shape's training
    scale and measures Euclidean distance to that shape's centroids; the
    nearest of all wins.  Ties break toward the smaller diameter, then the
    sphere.  Returns (shape, diameter_cm, distance).
    """
    if not centroids:
        raise PreconditionViolation("no centroids to classify against")
    raw_means = {finger: session_mean(session, finger, expected_frames) for finger in FINGERS}

    by_shape: dict[Shape, tuple[float, ...]] = {}
    best: tuple[float, float, int, Centroid] | None = None
    for centroid in centroids:
        if centroid.shape not in by_shape:
            by_shape[centroid.shape] = _normalize_query(raw_means, centroid.shape, context)
        query = by_shape[centroid.shape]
        distance = math.dist(query, centroid.vector)
        shape_rank = 0 if centroid.shape is Shape.SPHERE else 1
        key = (distance, centroid.diameter_cm, shape_rank, centroid)
        if best is None or key[:3] < best[:3]:
            best = key
    assert best is not None
    distance, _, _, winner = best
    return winner.shape, winner.diameter_cm, distance


# --- centroid file support ----------------------------------------------------
#
# Single CSV carrying both the centroids and the raw scale context:
#   kind,shape,diameter_cm,thumb,index,middle,ring,pinky
# kind=centroid rows hold normalized finger means for one (shape, diameter);
# kind=raw_min / kind=raw_max rows hold the per-finger raw scale for a shape
# (diameter_cm left empty).

_CENTROID_HEADER = ["kind", "shape", "diameter_cm", *FINGERS]


def centroids_to_csv(centroids: list[Centroid], context: ScaleContext) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CENTROID_HEADER)
    for c in sorted(centroids, key=lambda c: (c.shape.value, c.diameter_cm)):
        writer.writerow(
            ["centroid", c.shape.value, f"{c.diameter_cm:g}"] + [f"{v:.6f}" for v in c.vector]
        )
    for shape in sorted({s for s, _ in context}, key=lambda s: s.value):
        lows = [context[(shape, finger)][0] for finger in FINGERS]
        highs = [context[(shape, finger)][1] for finger in FINGERS]
        writer.writerow(["raw_min", shape.value, ""] + [f"{v:.6f}" for v in lows])
        writer.writerow(["raw_max", shape.value, ""] + [f"{v:.6f}" for v in highs])
    return buf.getvalue()


def centroids_from_csv(text: str) -> tuple[list[Centroid], ScaleContext]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _CENTROID_HEADER:
        raise ArgumentError(f"unexpected centroid file header: {header}")
    centroids: list[Centroid] = []
    lows: dict[tuple[Shape, str], float] = {}
    highs: dict[tuple[Shape, str], float] = {}
    for row in reader:
        where = f"centroid file line {reader.line_num}"
        if len(row) != len(_CENTROID_HEADER):
            raise ArgumentError(f"{where}: bad centroid row: {row}")
        kind, shape_name, diameter = row[0], row[1], row[2]
        try:
            shape = Shape(shape_name)
            values = [float(v) for v in row[3:]]
            diameter_cm = float(diameter) if kind == "centroid" else None
        except ValueError as exc:
            raise ArgumentError(f"{where}: {exc}") from None
        if kind == "centroid":
            centroids.append(Centroid(shape=shape, diameter_cm=diameter_cm, vector=tuple(values)))
        elif kind == "raw_min":
            lows.update({(shape, finger): v for finger, v in zip(FINGERS, values)})
        elif kind == "raw_max":
            highs.update({(shape, finger): v for finger, v in zip(FINGERS, values)})
        else:
            raise ArgumentError(f"unknown centroid row kind {kind!r}")
    context: ScaleContext = {
        key: (lows[key], highs[key]) for key in lows if key in highs
    }
    if not centroids:
        raise ArgumentError("centroid file holds no centroids")
    missing = [k for k in {(c.shape, f) for c in centroids for f in FINGERS} if k not in context]
    if missing:
        raise ArgumentError(f"centroid file lacks raw scale for {sorted(missing)[0]}")
    return centroids, context
