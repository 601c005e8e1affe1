"""Session averaging, per-user min-max normalization, cohort collation,
standard errors and linear fits.

The pipeline: average each finger's 100 in-session samples to one raw value,
rescale each user's raw values to [0, 1] across that user's diameter sweep
(per finger, per shape), then collate across users so each (shape, diameter,
finger) cell carries a mean, an SEM and the contributing values.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ArgumentError, DegenerateRange, PreconditionViolation
from .types import FINGERS, GraspSession, Shape

CellKey = tuple[Shape, float, str]  # (shape, diameter_cm, finger)


@dataclass(frozen=True)
class FingerStats:
    """Cohort summary of one (shape, diameter, finger) cell."""

    mean: float
    sem: float
    n: int


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r2: float


@dataclass
class CohortTable:
    """Per-cell normalized user values plus the raw scale used to build them.

    ``values`` maps (shape, diameter, finger) to the per-user normalized
    values (user order fixed).  ``raw_scale`` keeps, per (shape, finger), the
    cohort-average raw min and max session means; classifiers reuse it to
    normalize sessions that arrive without a full diameter sweep.
    """

    values: dict[CellKey, tuple[float, ...]]
    raw_scale: dict[tuple[Shape, str], tuple[float, float]] = field(default_factory=dict)
    _stats: dict[CellKey, FingerStats] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def stats(self, key: CellKey) -> FingerStats:
        """Mean, SEM and n of one cell.

        Each cell is summarized once, on first request, and the result is
        reused: fits, discriminability, centroids and the cohort CSV all ask
        for the same cells.  ``values`` must not change after the first call.
        """
        try:
            return self._stats[key]
        except KeyError:
            vals = self.values[key]
            summary = FingerStats(mean=statistics.fmean(vals), sem=sem(vals), n=len(vals))
            self._stats[key] = summary
            return summary

    def shapes(self) -> list[Shape]:
        return sorted({k[0] for k in self.values}, key=lambda s: s.value)

    def diameters(self, shape: Shape) -> list[float]:
        return sorted({k[1] for k in self.values if k[0] == shape})

    def cells(self) -> list[CellKey]:
        return sorted(self.values, key=lambda k: (k[0].value, k[1], FINGERS.index(k[2])))


def session_mean(session: GraspSession, finger: str, expected_frames: int = 100) -> float:
    """Mean raw count of one finger over a session of the expected length."""
    if finger not in FINGERS:
        raise ArgumentError(f"unknown finger {finger!r}")
    if len(session.frames) != expected_frames:
        raise PreconditionViolation(
            f"session {session.user_id}/{session.obj.shape.value}/{session.obj.diameter_cm} "
            f"has {len(session.frames)} frames, expected {expected_frames}"
        )
    return statistics.fmean(session.finger_values(finger))


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


def sem(values: Sequence[float]) -> float:
    """Standard error of the mean, sample (n-1) standard deviation over sqrt(n)."""
    if len(values) < 2:
        raise PreconditionViolation(f"SEM needs n >= 2, got {len(values)}")
    return statistics.stdev(values) / math.sqrt(len(values))


def collate(per_user: Mapping[str, Mapping[CellKey, float]]) -> CohortTable:
    """Stack per-user normalized tables into cohort cells.

    Every cell must collect at least two users; SEM over a single value is
    undefined and a zero-width interval would make discriminability vacuous.
    """
    cells: dict[CellKey, list[float]] = {}
    for user in sorted(per_user):
        for key, value in per_user[user].items():
            cells.setdefault(key, []).append(value)
    for key, vals in cells.items():
        if len(vals) < 2:
            raise PreconditionViolation(
                f"cell {key} has a single contributing user; SEM is undefined"
            )
    return CohortTable(values={k: tuple(v) for k, v in cells.items()})


def linear_fit(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares fit with coefficient of determination."""
    if len(points) < 2 or len({x for x, _ in points}) < 2:
        raise PreconditionViolation("linear fit needs at least 2 distinct x values")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    y_bar = statistics.fmean(ys)
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

def build_cohort(sessions: Iterable[GraspSession], expected_frames: int = 100) -> CohortTable:
    """Run the full averaging/normalization/collation pipeline over sessions.

    Also records, per (shape, finger), the cohort-average raw sweep extremes
    that the classifier later reuses as its normalization context.
    """
    raw: dict[tuple[str, Shape], dict[str, dict[float, float]]] = {}
    for session in sessions:
        group = raw.setdefault((session.user_id, session.obj.shape), {f: {} for f in FINGERS})
        for finger in FINGERS:
            per_diam = group[finger]
            d = session.obj.diameter_cm
            if d in per_diam:
                raise ArgumentError(
                    f"duplicate session for {session.user_id}/{session.obj.shape.value}/{d} cm"
                )
            per_diam[d] = session_mean(session, finger, expected_frames)
    if not raw:
        raise ArgumentError("no sessions to analyze")

    per_user: dict[str, dict[CellKey, float]] = {}
    extremes: dict[tuple[Shape, str], list[tuple[float, float]]] = {}
    for (user, shape), by_finger in raw.items():
        for finger, by_diam in by_finger.items():
            normalized = min_max_normalize(by_diam)
            user_cells = per_user.setdefault(user, {})
            for d, value in normalized.items():
                user_cells[(shape, d, finger)] = value
            extremes.setdefault((shape, finger), []).append(
                (min(by_diam.values()), max(by_diam.values()))
            )

    table = collate(per_user)
    for key in sorted(extremes, key=lambda k: (k[0].value, FINGERS.index(k[1]))):
        pairs = extremes[key]
        table.raw_scale[key] = (
            statistics.fmean(lo for lo, _ in pairs),
            statistics.fmean(hi for _, hi in pairs),
        )
    return table


def cohort_fits(
    table: CohortTable, subrange_above_cm: float = 10.0
) -> list[tuple[Shape, str, str, RegressionFit, int]]:
    """Full-range and above-threshold subrange fits per (shape, finger).

    Returns rows of (shape, finger, range_name, fit, n_points); a subrange
    with fewer than two diameters is skipped rather than fabricated.
    """
    rows = []
    for shape in table.shapes():
        diameters = table.diameters(shape)
        for finger in FINGERS:
            spans = [
                ("full", diameters),
                (f"gt{subrange_above_cm:g}", [d for d in diameters if d > subrange_above_cm]),
            ]
            for name, span in spans:
                if len(span) < 2:
                    continue
                points = [(d, table.stats((shape, d, finger)).mean) for d in span]
                rows.append((shape, finger, name, linear_fit(points), len(points)))
    return rows
