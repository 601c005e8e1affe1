"""Session averaging, per-user min-max normalization, per-cell summaries,
standard errors and linear fits.

The pipeline: average each finger's in-session samples to one raw value,
rescale each user's raw values to [0, 1] across that user's diameter sweep
(per finger, per shape), then gather each (shape, diameter, finger) cell's
values, one per user, into a CohortTable, which summarizes every cell once
as a mean, an SEM and a count.  A sweep is rescaled one finger column at a
time and gathered as one row of five values per session; each cell's SEM is
taken exactly, from its values scaled by one power of two to ints.
"""
from __future__ import annotations

import math
import operator
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import filterfalse

from .errors import ArgumentError, DegenerateRange, PreconditionViolation
from .types import DEFAULT_FRAME_COUNT, FINGERS, GraspSession, Shape

CellKey = tuple[Shape, float, str]  # (shape, diameter_cm, finger)
# Each shape's (lows, highs): the cohort-average raw minimum and maximum
# session means, each a 5-tuple in FINGERS order.  A centroid file holds them
# as the shape's raw_min and raw_max rows.
ScaleContext = dict[Shape, tuple[tuple[float, ...], tuple[float, ...]]]

_FINGER_RANK = {finger: i for i, finger in enumerate(FINGERS)}

# cohort_fits' subrange: the diameters above which thumb and index saturate.
SUBRANGE_ABOVE_CM = 10.0


# Cohort summary of one (shape, diameter, finger) cell.
FingerStats = namedtuple("FingerStats", "mean sem n")

RegressionFit = namedtuple("RegressionFit", "slope intercept r2")


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
        return sorted(self.values, key=lambda k: (k[0], k[1], _FINGER_RANK[k[2]]))


def check_expected_frames(expected_frames: int) -> None:
    """Reject an expected frame count below 1, which no session can meet."""
    if expected_frames < 1:
        raise ArgumentError(f"expected frame count must be at least 1, got {expected_frames}")


def session_means(session: GraspSession, expected_frames: int = DEFAULT_FRAME_COUNT) -> tuple[float, ...]:
    """Mean raw count of each finger, in FINGERS order, over a session of the
    expected length."""
    n = len(session.stamps)
    if n != expected_frames or expected_frames < 1:
        check_expected_frames(expected_frames)  # raises first for an expected count below 1
        raise PreconditionViolation(
            f"session {session.user_id}/{session.obj.shape.value}/{session.obj.diameter_cm} "
            f"has {n} frames, expected {expected_frames}"
        )
    # sum/len of an int column is the float math.fsum(c) / len(c) gives, in less time.
    return tuple([sum(c) / n for c in session.counts])


def _normalized(column: Sequence[float]) -> tuple[list[float], float, float]:
    """``column`` rescaled so that its minimum is exactly 0 and its maximum
    exactly 1, then that minimum and maximum.  Fewer than two values, a value
    that is not finite, or flat input (a dead channel) raises."""
    if len(column) < 2:
        raise PreconditionViolation(f"need at least 2 diameters, got {len(column)}")
    bad = next(filterfalse(math.isfinite, column), None)
    if bad is not None:
        raise PreconditionViolation(f"need finite values, got {bad!r}")
    lo, hi = min(column), max(column)
    if lo == hi:
        raise DegenerateRange(f"all values equal {lo}; channel looks flat")
    span = hi - lo
    return [(v - lo) / span for v in column], lo, hi


def min_max_normalize(values: Mapping[float, float]) -> dict[float, float]:
    """Rescale one user's diameter sweep so its minimum is exactly 0 and its
    maximum exactly 1.  Flat input means a dead channel and raises."""
    return dict(zip(values, _normalized(values.values())[0]))


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


def _exact_ints(values: Sequence[float]) -> tuple[list[int], int]:
    """Ints xs and a denominator d with xs[i] / d == values[i] exactly.

    A float of exponent e (math.frexp) is a multiple of 2**(e - 53), and the
    smallest non-zero magnitude has the smallest exponent, so scaling by 2**k,
    k = max(0, 53 - e) for that magnitude, makes every value of a sample of
    floats an int; the scaling is exact.  Where 2**k or a scaled value
    overflows, and for any other sample, each value's integer ratio is
    brought to the largest denominator: 1 for a sample of ints.
    """
    if set(map(type, values)) == {float}:
        smallest = min(values)  # the smallest magnitude, if every value is positive
        if not smallest > 0:
            smallest = min(filter(None, map(abs, values)), default=0.0)
        k = max(0, 53 - math.frexp(smallest)[1])
        try:
            scale = 2.0**k
            return [int(v * scale) for v in values], 1 << k
        except (OverflowError, ValueError):
            pass  # an overflow, or a value that is not finite
    try:
        ratios = [x.as_integer_ratio() for x in values]
    except (OverflowError, ValueError):
        bad = next(filterfalse(math.isfinite, values))
        raise PreconditionViolation(f"SEM needs finite values, got {bad!r}") from None
    d = max([b for _, b in ratios])
    return [a * d // b for a, b in ratios], d


def sem(values: Sequence[float]) -> float:
    """Standard error of the mean: the sample (n-1) standard deviation over
    sqrt(n), for n >= 2 finite values.

    The standard deviation is the exact one, correctly rounded: the same
    float as statistics.stdev(values), so the result is the same float as
    statistics.stdev(values) / math.sqrt(n).  Over the common denominator d
    of _exact_ints, the sums of x and x*x are exact ints.
    """
    n = len(values)
    if n < 2:
        raise PreconditionViolation(f"SEM needs n >= 2, got {n}")
    xs, d = _exact_ints(values)
    sx = sum(xs)
    sxx = sum(map(operator.mul, xs, xs))
    return _sqrt_of_frac(n * sxx - sx * sx, n * (n - 1) * d * d) / math.sqrt(n)


def summarize(values: Sequence[float]) -> FingerStats:
    """Mean, SEM and n of a sample.  The SEM comes first: it rejects a sample
    of fewer than two values before the mean can divide by zero."""
    spread = sem(values)
    return FingerStats(math.fsum(values) / len(values), spread, len(values))


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

    # Each session's five normalized values as one row, gathered by (shape, diameter).
    rows: defaultdict[tuple[Shape, float], list[tuple[float, ...]]] = defaultdict(list)
    extremes: dict[Shape, tuple[list, list]] = {}
    # A stable sort: each user's shapes keep their first-seen order.
    for (user, shape), sweep in sorted(sweeps.items(), key=lambda item: item[0][0]):
        scaled = []
        for finger, column in zip(FINGERS, zip(*sweep.values())):
            try:
                scaled.append(_normalized(column))
            except PreconditionViolation as exc:
                exc.args = (f"user {user}, {shape.value}, {finger}: {exc}",)
                raise
        normalized, lows, highs = zip(*scaled)
        for d, row in zip(sweep, zip(*normalized)):
            rows[shape, d].append(row)
        shape_lows, shape_highs = extremes.setdefault(shape, ([], []))
        shape_lows.append(lows)
        shape_highs.append(highs)
    # Each finger of a (shape, diameter) has the same users: the thumb's cell speaks for all.
    for (shape, d), cell_rows in rows.items():
        if len(cell_rows) < 2:
            raise PreconditionViolation(
                f"cell ({shape.value}, {d:g}, {FINGERS[0]}) has a single contributing user; SEM is undefined"
            )
    values: dict[CellKey, tuple[float, ...]] = {}
    for shape, d in sorted(rows):
        values.update(zip([(shape, d, finger) for finger in FINGERS], zip(*rows[shape, d])))
    return CohortTable(
        values=values,
        raw_scale={
            shape: tuple(tuple([math.fsum(c) / len(c) for c in zip(*by_user)]) for by_user in pair)
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
