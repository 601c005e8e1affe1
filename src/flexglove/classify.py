"""Shape discriminability and a nearest-centroid object classifier.

Discriminability applies the interval rule: two equal-diameter objects are
distinguishable when at least one finger's mean+-SEM intervals do not
overlap.  The classifier reduces each (shape, diameter) to the 5-vector of
normalized finger means and assigns new sessions to the nearest centroid.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import chain, pairwise, repeat

from .errors import ArgumentError, PreconditionViolation, content_lines, finite_floats
from .stats import CohortTable, ScaleContext, intervals_overlap, session_means
from .types import DEFAULT_FRAME_COUNT, FINGERS, SHAPE_BY_NAME, GraspSession, Shape


# One (shape, diameter): vector is its five normalized finger means in
# FINGERS order.
Centroid = namedtuple("Centroid", "shape diameter_cm vector")


class DiameterVerdict(namedtuple("DiameterVerdict", "diameter_cm overlap_by_finger")):
    """Interval-overlap outcome for one common diameter: each finger's name
    mapped to whether its two intervals overlap."""

    __slots__ = ()

    @property
    def discriminable(self) -> bool:
        return any(not ov for ov in self.overlap_by_finger.values())


def discriminability(table: CohortTable) -> list[DiameterVerdict]:
    """Compare sphere against cylinder at every diameter present for both,
    in ascending order; a diameter of one shape only gets no verdict."""
    shapes = table.shapes()
    if Shape.SPHERE not in shapes or Shape.CYLINDER not in shapes:
        raise PreconditionViolation("need both shapes in the cohort table")
    common = sorted(set(table.diameters(Shape.SPHERE)) & set(table.diameters(Shape.CYLINDER)))
    if not common:
        raise PreconditionViolation("the two shapes share no diameter")

    verdicts = []
    for d in common:
        overlap = {
            finger: intervals_overlap(
                table.summary[(Shape.SPHERE, d, finger)],
                table.summary[(Shape.CYLINDER, d, finger)],
            )
            for finger in FINGERS
        }
        verdicts.append(DiameterVerdict(diameter_cm=d, overlap_by_finger=overlap))
    return verdicts


def build_centroids(table: CohortTable) -> list[Centroid]:
    """One centroid per (shape, diameter): the five normalized finger means."""
    if not table.values:
        raise PreconditionViolation("empty cohort table")
    centroids = []
    for shape in table.shapes():
        for d in table.diameters(shape):
            vector = tuple(table.summary[(shape, d, finger)].mean for finger in FINGERS)
            centroids.append(Centroid(shape=shape, diameter_cm=d, vector=vector))
    return centroids


# A new session has no diameter sweep of its own, so min-max normalization is
# impossible per-user.  Classification instead reuses the training cohort's
# per-finger raw extremes (per shape hypothesis) as a fixed calibration.
def _normalize_query(
    raw_means: tuple[float, ...], shape: Shape, context: ScaleContext
) -> tuple[float, ...]:
    out = []
    for finger, mean, lo, hi in zip(FINGERS, raw_means, *context[shape]):
        if hi == lo:
            raise PreconditionViolation(f"flat scale context for ({shape.value}, {finger})")
        out.append((mean - lo) / (hi - lo))
    return tuple(out)


def classify_session(
    session: GraspSession,
    centroids: list[Centroid],
    context: ScaleContext,
    expected_frames: int = DEFAULT_FRAME_COUNT,
) -> tuple[Shape, float, float]:
    """Assign a session to the nearest centroid in normalized finger space.

    Each shape hypothesis normalizes the session under that shape's training
    scale and measures Euclidean distance to that shape's centroids; the
    nearest of all wins.  Ties break toward the smaller diameter, then the
    sphere.  Returns (shape, diameter_cm, distance).
    """
    if not centroids:
        raise PreconditionViolation("no centroids to classify against")
    raw_means = session_means(session, expected_frames)

    shapes, diameters, vectors = zip(*centroids)
    queries = {shape: _normalize_query(raw_means, shape, context) for shape in dict.fromkeys(shapes)}
    # One (distance, diameter, is not sphere, shape) tuple per centroid, built
    # by C-level maps.  Tuples that tie on the first three items are of one
    # shape, so min never compares past them.
    distance, diameter, _, shape = min(
        zip(
            map(math.dist, map(queries.__getitem__, shapes), vectors),
            diameters,
            map(operator.is_not, shapes, repeat(Shape.SPHERE)),
            shapes,
        )
    )
    return shape, diameter, distance


# --- centroid file support ----------------------------------------------------
#
# Single CSV carrying both the centroids and the raw scale context:
#   kind,shape,diameter_cm,thumb,index,middle,ring,pinky
# kind=centroid rows hold normalized finger means for one (shape, diameter);
# kind=raw_min / kind=raw_max rows hold the per-finger raw scale for a shape
# (diameter_cm must be empty).  Fields are never quoted: none of them can hold
# a comma.

_CENTROID_HEADER = ["kind", "shape", "diameter_cm", *FINGERS]


def centroids_to_csv(centroids: list[Centroid], context: ScaleContext) -> str:
    """The centroid file of ``centroids`` and their raw scale ``context``.
    Two diameters of one shape that {:g} spells alike would write two rows
    that centroids_from_csv rejects as repeated, so they raise.  {:g}
    rounding keeps order, so such a pair is adjacent once sorted."""
    ordered = sorted(centroids, key=lambda c: (c.shape, c.diameter_cm))
    for a, b in pairwise(ordered):
        if a.shape is b.shape and f"{a.diameter_cm:g}" == f"{b.diameter_cm:g}":
            raise ArgumentError(
                f"{b.shape.value} sessions at {a.diameter_cm!r} cm and {b.diameter_cm!r} cm "
                f"both write as {b.diameter_cm:g} cm"
            )
    rows = [_CENTROID_HEADER]
    for c in ordered:
        rows.append(
            ["centroid", c.shape.value, f"{c.diameter_cm:g}"] + [f"{v:.6f}" for v in c.vector]
        )
    for shape in sorted(context):
        lows, highs = context[shape]
        rows.append(["raw_min", shape.value, ""] + [f"{v:.6f}" for v in lows])
        rows.append(["raw_max", shape.value, ""] + [f"{v:.6f}" for v in highs])
    return "".join(",".join(row) + "\n" for row in rows)


_ROW_KINDS = {"centroid", "raw_min", "raw_max"}
_HEADER_LINE = ",".join(_CENTROID_HEADER) + "\n"
_ROW_SEPARATORS = b",,,,,,,\n"
# Every byte but the two separators and the bytes content_lines reads as a
# line break or a comment, so that deleting these from a body laid out as
# centroids_to_csv writes it leaves _ROW_SEPARATORS once per row.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n#\r\x0b\x0c\x1c\x1d\x1e")


def centroids_from_csv(text: str) -> tuple[list[Centroid], ScaleContext]:
    """The centroids and raw scale context of a centroid file.

    A file laid out as centroids_to_csv writes it, every row sound, is read
    in one pass by _read_body; any other goes to _centroids_by_row, which
    gives the same result or raises the error, with its line number, of the
    first faulty row."""
    if text.startswith(_HEADER_LINE):
        body = text[len(_HEADER_LINE) :]
        if body.isascii():
            read = _read_body(body if body.endswith("\n") else body + "\n")
            if read is not None:
                return read[0], _checked_context(*read)
    return _centroids_by_row(text)


def _read_body(body: str) -> tuple[list[Centroid], dict, dict] | None:
    """The centroids, raw minima and raw maxima of the ASCII rows after a
    centroid file's header, each ending in \\n, in a few passes over all of
    them; or None when the layout is not the one centroids_to_csv writes or
    any row is faulty."""
    separators = body.encode().translate(None, _NOT_SEPARATOR)
    rows = len(separators) // len(_ROW_SEPARATORS)
    if separators != _ROW_SEPARATORS * rows:
        return None
    fields = body.replace("\n", ",").split(",")
    del fields[-1]  # the empty field after the last row's \n
    kinds, names = fields[0::8], fields[1::8]
    # The n centroid rows come first, then the raw rows, whose diameter_cm is empty.
    n = kinds.count("centroid")
    if "centroid" in kinds[n:] or not (_ROW_KINDS.issuperset(kinds) and SHAPE_BY_NAME.keys() >= {*names}):
        return None
    if any(fields[8 * n + 2 :: 8]):
        return None
    # A centroid row's numbers start at diameter_cm; a raw row's start at the
    # thumb.  So numbers holds the n diameters, then one column per finger.
    try:
        numbers = list(map(float, chain(fields[2 : 8 * n : 8], *(fields[k::8] for k in range(3, 8)))))
    except ValueError:
        return None
    diameters = numbers[:n]
    # A sum of finite numbers that overflows only sends the file to the row loop.
    if not math.isfinite(sum(numbers)) or min(diameters, default=1.0) <= 0:
        return None
    vectors = list(zip(*(numbers[i : i + rows] for i in range(n, len(numbers), rows))))
    shapes = list(map(SHAPE_BY_NAME.__getitem__, names))
    scales: dict[str, dict[Shape, tuple[float, ...]]] = {"raw_min": {}, "raw_max": {}}
    for kind, shape, vector in zip(kinds[n:], shapes[n:], vectors[n:]):
        scales[kind][shape] = vector
    # A repeated row is an error, which the row loop raises with its line.
    # (Each zip of diameters stops after the n centroid rows.)
    if len({*zip(names, diameters)}) + len(scales["raw_min"]) + len(scales["raw_max"]) != rows:
        return None
    centroids = list(map(tuple.__new__, repeat(Centroid), zip(shapes, diameters, vectors)))
    return centroids, scales["raw_min"], scales["raw_max"]


def _centroids_by_row(text: str) -> tuple[list[Centroid], ScaleContext]:
    """centroids_from_csv one row at a time, raising at the first faulty row."""
    lines = content_lines(text)
    _, header = next(lines, (0, ""))
    if header.split(",") != _CENTROID_HEADER:
        raise ArgumentError(f"unexpected centroid file header: {header!r}")
    centroids: list[Centroid] = []
    seen: set[tuple[Shape, float]] = set()
    scales: dict[str, dict[Shape, tuple[float, ...]]] = {"raw_min": {}, "raw_max": {}}
    for lineno, line in lines:
        where = f"centroid file line {lineno}"
        row = line.split(",")
        if len(row) != len(_CENTROID_HEADER):
            raise ArgumentError(f"{where}: bad centroid row: {row}")
        kind, shape_name = row[0], row[1]
        try:
            shape = SHAPE_BY_NAME[shape_name]
        except KeyError:
            raise ArgumentError(f"{where}: {shape_name!r} is not a valid Shape") from None
        if kind == "centroid":
            diameter_cm, *values = finite_floats(row[2:], _CENTROID_HEADER[2:], where)
            if not diameter_cm > 0:
                raise ArgumentError(f"{where}: diameter_cm must be positive, got {row[2]!r}")
            if (shape, diameter_cm) in seen:
                raise ArgumentError(f"{where}: repeats the centroid row for ({shape_name}, {diameter_cm:g} cm)")
            seen.add((shape, diameter_cm))
            centroids.append(Centroid(shape=shape, diameter_cm=diameter_cm, vector=tuple(values)))
        elif kind in scales:
            if row[2]:
                raise ArgumentError(f"{where}: a {kind} row's diameter_cm must be empty, got {row[2]!r}")
            if shape in scales[kind]:
                raise ArgumentError(f"{where}: repeats the {kind} row for {shape_name}")
            scales[kind][shape] = tuple(finite_floats(row[3:], FINGERS, where))
        else:
            raise ArgumentError(f"{where}: unknown centroid row kind {kind!r}")
    return centroids, _checked_context(centroids, scales["raw_min"], scales["raw_max"])


def _checked_context(
    centroids: list[Centroid],
    lows: dict[Shape, tuple[float, ...]],
    highs: dict[Shape, tuple[float, ...]],
) -> ScaleContext:
    """The scale context of a centroid file's rows, once every row is sound."""
    context: ScaleContext = {shape: (lows[shape], highs[shape]) for shape in lows if shape in highs}
    if not centroids:
        raise ArgumentError("centroid file holds no centroids")
    missing = {c.shape for c in centroids} - context.keys()
    if missing:
        raise ArgumentError(f"centroid file lacks raw scale for {min(missing).value}")
    # An inverted, flat or overflowing span would normalize every query to
    # garbage that still classifies.
    for shape, scale in context.items():
        for finger, lo, hi in zip(FINGERS, *scale):
            if not 0 < hi - lo < math.inf:
                raise ArgumentError(
                    f"centroid file raw scale for ({shape.value}, {finger}): raw_max - raw_min "
                    f"must be positive and finite, got raw_min={lo!r} raw_max={hi!r}"
                )
    return context
