"""Session averaging, per-user min-max normalization, per-cell summaries,
standard errors and linear fits.

The pipeline: average each finger's in-session samples to one raw value,
rescale each user's raw values to [0, 1] across that user's diameter sweep
(per finger, per shape), then gather each (shape, diameter, finger) cell's
values, one per user, into a CohortTable, which summarizes every cell once
as a mean, an SEM and a count.
"""
from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ArgumentError, DegenerateRange, PreconditionViolation
from .types import DEFAULT_FRAME_COUNT, FINGERS, GraspSession, Shape

CellKey = tuple[Shape, float, str]  # (shape, diameter_cm, finger)
# Each shape's (lows, highs): the cohort-average raw minimum and maximum
# session means, each a 5-tuple in FINGERS order.  A centroid file holds them
# as the shape's raw_min and raw_max rows.
ScaleContext = dict[Shape, tuple[tuple[float, ...], tuple[float, ...]]]

# cohort_fits' subrange: the diameters above which thumb and index saturate.
SUBRANGE_ABOVE_CM = 10.0


class FingerStats(NamedTuple):
    """Cohort summary of one (shape, diameter, finger) cell."""

    mean: float
    sem: float
    n: int


class RegressionFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


class CohortTable:
    """Per-cell normalized user values, their summaries, and the raw scale
    used to build them.

    ``values`` maps (shape, diameter, finger) to the per-user normalized
    values, in user id order.  ``summary`` maps the same keys, in ``cells()``
    order, to each cell's FingerStats; the constructor computes it, one
    ``stats`` call per cell, so a cell of fewer than two values raises there.
    ``raw_scale`` is the cohort's ScaleContext; classifiers reuse it to
    normalize sessions that arrive without a full diameter sweep.
    """

    def __init__(self, values: dict[CellKey, tuple[float, ...]], raw_scale: ScaleContext | None = None):
        self.values = values
        self.raw_scale = {} if raw_scale is None else raw_scale
        self.summary: dict[CellKey, FingerStats] = {key: self.stats(key) for key in self.cells()}

    def stats(self, key: CellKey) -> FingerStats:
        """Mean, SEM and n of one cell."""
        return summarize(self.values[key])

    def shapes(self) -> list[Shape]:
        return sorted({k[0] for k in self.values})

    def diameters(self, shape: Shape) -> list[float]:
        return sorted({k[1] for k in self.values if k[0] == shape})

    def cells(self) -> list[CellKey]:
        return sorted(self.values, key=lambda k: (k[0], k[1], FINGERS.index(k[2])))


def check_expected_frames(expected_frames: int) -> None:
    """Reject an expected frame count below 1, which no session can meet."""
    if expected_frames < 1:
        raise ArgumentError(f"expected frame count must be at least 1, got {expected_frames}")


def session_means(session: GraspSession, expected_frames: int = DEFAULT_FRAME_COUNT) -> tuple[float, ...]:
    """Mean raw count of each finger, in FINGERS order, over a session of the
    expected length."""
    check_expected_frames(expected_frames)
    n = len(session.stamps)
    if n != expected_frames:
        raise PreconditionViolation(
            f"session {session.user_id}/{session.obj.shape.value}/{session.obj.diameter_cm} "
            f"has {n} frames, expected {expected_frames}"
        )
    lengths = list(map(len, session.counts))
    if lengths != [n] * len(FINGERS):
        raise ArgumentError(
            f"session {session.user_id}/{session.obj.shape.value}/{session.obj.diameter_cm} "
            f"has {n} stamps but count columns of lengths {lengths}"
        )
    # sum/len of an int column is the float math.fsum(c) / len(c) gives, in less time.
    return tuple([sum(c) / n for c in session.counts])


def min_max_normalize(values: Mapping[float, float]) -> dict[float, float]:
    """Rescale one user's diameter sweep so its minimum is exactly 0 and its
    maximum exactly 1.  Flat input means a dead channel and raises."""
    if len(values) < 2:
        raise PreconditionViolation(f"need at least 2 diameters, got {len(values)}")
    lo, hi = min(values.values()), max(values.values())
    if lo == hi:
        raise DegenerateRange(f"all values equal {lo}; channel looks flat")
    span = hi - lo
    return {d: (v - lo) / span for d, v in values.items()}


# _sqrt_of_frac scales num/den to at least 2**108, so the integer root holds
# at least 55 bits: two more than a double's 53, which is what rounding to odd
# needs for the final rounding to a float to give the correctly rounded root.
_SQRT_BITS = 109


def _sqrt_of_frac(num: int, den: int) -> float:
    """The square root of num/den (num >= 0, den > 0), correctly rounded."""
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd: an inexact root is odd
    return float(root << q) if q >= 0 else root / (1 << -q)


def sem(values: Sequence[float]) -> float:
    """Standard error of the mean: the sample (n-1) standard deviation over
    sqrt(n), for n >= 2 finite values.

    The standard deviation is the exact one, correctly rounded: the same
    float as statistics.stdev(values), so the result is the same float as
    statistics.stdev(values) / math.sqrt(n).  Each value is an integer over a
    power of two, so over the largest denominator d the sums of x and x*x
    are exact ints.
    """
    n = len(values)
    if n < 2:
        raise PreconditionViolation(f"SEM needs n >= 2, got {n}")
    ratios = [x.as_integer_ratio() for x in values]
    d = max([b for _, b in ratios])
    xs = [a * d // b for a, b in ratios]
    sx = sum(xs)
    sxx = sum(map(operator.mul, xs, xs))
    return _sqrt_of_frac(n * sxx - sx * sx, n * (n - 1) * d * d) / math.sqrt(n)


def summarize(values: Sequence[float]) -> FingerStats:
    """Mean, SEM and n of a sample.  The SEM comes first: it rejects a sample
    of fewer than two values before the mean can divide by zero."""
    return FingerStats(sem=sem(values), mean=math.fsum(values) / len(values), n=len(values))


def linear_fit(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares fit with coefficient of determination."""
    if len(points) < 2 or len({x for x, _ in points}) < 2:
        raise PreconditionViolation("linear fit needs at least 2 distinct x values")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    # The least-squares line as CPython 3.11's statistics module computes it;
    # 3.13's sums with math.sumprod, which can change the last bit.
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    sxx = math.fsum((d := x - x_bar) * d for x in xs)
    if not sxx:
        raise PreconditionViolation("linear fit x values too close: their spread underflows")
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_bar) ** 2 for y in ys)
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RegressionFit(slope=slope, intercept=intercept, r2=min(max(r2, 0.0), 1.0))


def intervals_overlap(a: FingerStats, b: FingerStats) -> bool:
    """Whether the closed mean+-SEM intervals intersect (touching counts)."""
    return a.mean - a.sem <= b.mean + b.sem and b.mean - b.sem <= a.mean + a.sem


# --- session-level pipeline ---------------------------------------------------

def build_cohort(sessions: Iterable[GraspSession], expected_frames: int = DEFAULT_FRAME_COUNT) -> CohortTable:
    """Average and normalize every session, users in id order, and gather
    each cell's values into a CohortTable.  ``sessions`` is iterated once and
    only each session's means are kept, so a generator of sessions is held
    one session at a time.

    Every cell must collect at least two users: SEM over a single value is
    undefined and a zero-width interval would make discriminability vacuous.
    Also records each shape's cohort-average raw sweep minima and maxima, in
    FINGERS order, which the classifier reuses as its normalization context.
    """
    sweeps: dict[tuple[str, Shape], dict[float, tuple[float, ...]]] = {}
    for session in sessions:
        sweep = sweeps.setdefault((session.user_id, session.obj.shape), {})
        d = session.obj.diameter_cm
        if d in sweep:
            raise ArgumentError(
                f"duplicate session for {session.user_id}/{session.obj.shape.value}/{d} cm"
            )
        sweep[d] = session_means(session, expected_frames)
    if not sweeps:
        raise ArgumentError("no sessions to analyze")

    cells: dict[CellKey, list[float]] = {}
    extremes: dict[Shape, tuple[list, list]] = {}
    # A stable sort: each user's shapes keep their first-seen order.
    for (user, shape), sweep in sorted(sweeps.items(), key=lambda item: item[0][0]):
        columns = list(zip(*sweep.values()))
        for finger, column in zip(FINGERS, columns):
            try:
                normalized = min_max_normalize(dict(zip(sweep, column)))
            except PreconditionViolation as exc:
                exc.args = (f"user {user}, {shape.value}, {finger}: {exc}",)
                raise
            for d, value in normalized.items():
                cells.setdefault((shape, d, finger), []).append(value)
        lows, highs = extremes.setdefault(shape, ([], []))
        lows.append(tuple(map(min, columns)))
        highs.append(tuple(map(max, columns)))
    for (shape, d, finger), vals in cells.items():
        if len(vals) < 2:
            raise PreconditionViolation(
                f"cell ({shape.value}, {d:g}, {finger}) has a single contributing user; SEM is undefined"
            )
    return CohortTable(
        values={k: tuple(v) for k, v in cells.items()},
        raw_scale={
            shape: tuple(tuple([math.fsum(c) / len(c) for c in zip(*rows)]) for rows in pair)
            for shape, pair in extremes.items()
        },
    )


def cohort_fits(table: CohortTable) -> list[tuple[Shape, str, str, RegressionFit, int]]:
    """Full-range and above-SUBRANGE_ABOVE_CM subrange fits per (shape, finger).

    Returns rows of (shape, finger, range_name, fit, n_points); a subrange
    with fewer than two diameters is skipped rather than fabricated.
    """
    rows = []
    for shape in table.shapes():
        diameters = table.diameters(shape)
        for finger in FINGERS:
            spans = [
                ("full", diameters),
                (f"gt{SUBRANGE_ABOVE_CM:g}", [d for d in diameters if d > SUBRANGE_ABOVE_CM]),
            ]
            for name, span in spans:
                if len(span) < 2:
                    continue
                points = [(d, table.summary[(shape, d, finger)].mean) for d in span]
                rows.append((shape, finger, name, linear_fit(points), len(points)))
    return rows
