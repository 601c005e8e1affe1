"""Layer tracing for the benchmark's traced run.

The program is measured from outside: while a run is traced, the public
functions of each layer are replaced, in the module namespace their callers
look them up in, by wrappers that time every call.  No file of the program
changes.  A noise draw takes about a microsecond and a `record` job makes
100,500 of them, so spans are not kept one by one: the tracer keeps, per span
name, the number of calls, the total time and the self time (total minus the
time of the traced spans it directly encloses), plus counts of work units.
"""
from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

import flexglove.cli
import flexglove.session_io
import flexglove.simulate
from flexglove.stats import CohortTable


class Tracer:
    """Per-name call counts, total and self time, failures and work units."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.units: Counter[str] = Counter()
        self._open: list[int] = []  # child time of each span now open
        self._paths: dict[str, list[str]] = {"read": [], "write": []}

    def wrap(self, name, fn, count=None):
        """Return ``fn`` timed as span ``name``; ``count(tracer, args, result)``
        then adds the call's work units."""

        def traced(*args, **kwargs):
            self._open.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - children
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def note_path(self, direction: str, path) -> None:
        self._paths[direction].append(path)

    def settle(self) -> None:
        """Add the sizes of the session files read and written since the last
        call.  Called between commands, so no span pays for the stat calls."""
        for direction, paths in self._paths.items():
            self.units[f"session_io.bytes_{direction}"] += sum(os.path.getsize(p) for p in paths)
            paths.clear()

    def snapshot(self) -> dict[str, Counter[str]]:
        """A copy of the counters, to take per-phase differences from."""
        return {"calls": self.calls.copy(), "units": self.units.copy()}


def _count_session(tracer, args, session):
    tracer.units["simulate.sessions"] += 1
    tracer.units["simulate.frames"] += len(session.frames)


def _count_write(tracer, args, result):
    session, path = args
    tracer.units["session_io.frames_written"] += len(session.frames)
    tracer.note_path("write", path)


def _count_read(tracer, args, session):
    tracer.units["session_io.frames_read"] += len(session.frames)
    tracer.note_path("read", args[0])


def _count_cells(tracer, args, table):
    tracer.units["stats.cells"] += len(table.values)


def _count_centroids(tracer, args, result):
    tracer.units["classify.centroids"] += len(args[1])


# (namespace, attribute, span name, unit counter).  Each attribute is patched
# where its caller looks it up: the CLI module for the functions the commands
# call, the simulate module for the calls `simulate_cohort` makes, the
# session_io module for the writes of the `sweep` set-up, and the class for
# cell statistics.  `simulate_cohort` and `simulate_session` share the span
# name `simulate`; frames are counted once, per session.
PATCH_POINTS = [
    (flexglove.cli, "main", "cli", None),
    (flexglove.simulate, "sample_with_noise", "sensor", None),
    (flexglove.cli, "simulate_cohort", "simulate", None),
    (flexglove.simulate, "simulate_session", "simulate", _count_session),
    (flexglove.cli, "write_session_file", "session_io.write", _count_write),
    (flexglove.session_io, "write_session_file", "session_io.write", _count_write),
    (flexglove.cli, "read_session_file", "session_io.read", _count_read),
    (flexglove.cli, "build_cohort", "stats.build_cohort", _count_cells),
    (flexglove.cli, "cohort_fits", "stats.cohort_fits", None),
    (CohortTable, "stats", "stats.cell_stats", None),
    (flexglove.cli, "discriminability", "classify.discriminability", None),
    (flexglove.cli, "build_centroids", "classify.build_centroids", None),
    (flexglove.cli, "centroids_from_csv", "classify.centroids_from_csv", None),
    (flexglove.cli, "classify_session", "classify.classify_session", _count_centroids),
]


@contextmanager
def installed(tracer: Tracer | None):
    """Trace every patch point for the duration of the block (no-op for None)."""
    if tracer is None:
        yield
        return
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCH_POINTS]
    try:
        for (owner, attr, name, count), (_, _, fn) in zip(PATCH_POINTS, originals):
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ms(ns: float) -> float:
    return ns / 1e6


def _us(ns: float) -> float:
    return ns / 1e3


def layer_metrics(tracer: Tracer, before: dict[str, Counter[str]], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Counts are per job of the traced phase (the tracer's state at its start is
    ``before``), so they repeat exactly from run to run.  Times per unit and
    ratios cover every traced span of the run, set-up included, so each layer
    has a measured time on every workload.  `sensor.busy_pct` is the share of
    the simulate layer's time spent in noise draws.
    """
    now = tracer.snapshot()

    def per_job(counter: str, name: str) -> float:
        return (now[counter][name] - before[counter][name]) / jobs

    calls, total, own, units = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.units
    return {
        "cli.commands": (per_job("calls", "cli"), "count"),
        "cli.self_ms_per_command": (_ms(_ratio(own["cli"], calls["cli"])), "ms"),
        "sensor.draws": (per_job("calls", "sensor"), "count"),
        "sensor.busy_pct": (
            100 * _ratio(total["sensor"], total["sensor"] + own["simulate"]), "%"),
        "sensor.us_per_draw": (_us(_ratio(total["sensor"], calls["sensor"])), "us"),
        "simulate.sessions": (per_job("units", "simulate.sessions"), "count"),
        "simulate.frames": (per_job("units", "simulate.frames"), "count"),
        "simulate.self_us_per_frame": (_us(_ratio(own["simulate"], units["simulate.frames"])), "us"),
        "session_io.sessions_written": (per_job("calls", "session_io.write"), "count"),
        "session_io.bytes_written": (per_job("units", "session_io.bytes_write"), "bytes"),
        "session_io.write_us_per_frame": (
            _us(_ratio(total["session_io.write"], units["session_io.frames_written"])), "us"),
        "session_io.sessions_read": (per_job("calls", "session_io.read"), "count"),
        "session_io.bytes_read": (per_job("units", "session_io.bytes_read"), "bytes"),
        "session_io.read_us_per_frame": (
            _us(_ratio(total["session_io.read"], units["session_io.frames_read"])), "us"),
        "session_io.read_us_per_session": (
            _us(_ratio(total["session_io.read"], calls["session_io.read"])), "us"),
        "session_io.read_failed": (tracer.failed["session_io.read"], "count"),
        "stats.build_cohort_ms": (_ms(_ratio(total["stats.build_cohort"], calls["stats.build_cohort"])), "ms"),
        "stats.cohort_fits_ms": (_ms(_ratio(total["stats.cohort_fits"], calls["stats.cohort_fits"])), "ms"),
        "stats.cells": (per_job("units", "stats.cells"), "count"),
        "stats.cell_stats_calls": (per_job("calls", "stats.cell_stats"), "count"),
        "stats.cell_stats_calls_per_cell": (_ratio(calls["stats.cell_stats"], units["stats.cells"]), "ratio"),
        "stats.cell_stats_us": (_us(_ratio(total["stats.cell_stats"], calls["stats.cell_stats"])), "us"),
        "classify.discriminability_ms": (
            _ms(_ratio(total["classify.discriminability"], calls["classify.discriminability"])), "ms"),
        "classify.build_centroids_ms": (
            _ms(_ratio(total["classify.build_centroids"], calls["classify.build_centroids"])), "ms"),
        "classify.centroids_from_csv_us": (
            _us(_ratio(total["classify.centroids_from_csv"], calls["classify.centroids_from_csv"])), "us"),
        "classify.classify_session_us": (
            _us(_ratio(total["classify.classify_session"], calls["classify.classify_session"])), "us"),
        "classify.centroids_per_query": (
            _ratio(units["classify.centroids"], calls["classify.classify_session"]), "count"),
    }


def span_table(tracer: Tracer) -> list[str]:
    """One line per span name: calls, total and self milliseconds."""
    lines = [f"{'span':<30} {'calls':>9} {'total_ms':>11} {'self_ms':>11}"]
    for name in sorted(tracer.calls):
        lines.append(
            f"{name:<30} {tracer.calls[name]:>9} {tracer.total_ns[name] / 1e6:>11.3f} "
            f"{tracer.self_ns[name] / 1e6:>11.3f}"
        )
    return lines
