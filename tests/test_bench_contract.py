"""The benchmark's traced run replaces program functions by name (see
bench/layers.py), so each name it patches must exist in the program.  A
rename or deletion then fails here rather than in a benchmark run."""
import sys
from pathlib import Path

from flexglove.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402


def test_every_patch_point_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.PATCH_POINTS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_frame_counters_count_frames(tmp_path):
    """`simulate.frames`, `session_io.frames_written` and
    `session_io.frames_read` each count one per frame line on disk."""
    sessions = tmp_path / "sessions"
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert main([
            "simulate", "--out", str(sessions), "--users-sphere", "2", "--users-cylinder", "2",
            "--diameters", "6,8,12",
        ]) == 0
        assert main(["analyze", str(sessions), "--out", str(tmp_path / "analysis")]) == 0
    frame_lines = sum(
        not line.startswith(b"#")
        for path in sessions.glob("*.session")
        for line in path.read_bytes().splitlines()
    )
    assert frame_lines == 1200
    counters = ("simulate.frames", "session_io.frames_written", "session_io.frames_read")
    assert {name: tracer.units[name] for name in counters} == dict.fromkeys(counters, frame_lines)


def test_sensor_span_times_every_noise_mapping(tmp_path):
    """`simulate_session` maps each finger's noise through
    `sample_with_noise`, so the traced `sensor` span counts 5 calls per session."""
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert main([
            "simulate", "--out", str(tmp_path), "--users-sphere", "2", "--users-cylinder", "2",
            "--diameters", "6,8,12",
        ]) == 0
    assert tracer.units["simulate.sessions"] == 12
    assert tracer.calls["sensor"] == 60


def test_one_cell_stats_call_per_cell(tmp_path):
    """`stats.cell_stats` times `CohortTable.stats`, which analyze calls once
    per cell, so its call count equals the `stats.cells` unit count."""
    sessions = tmp_path / "sessions"
    assert main([
        "simulate", "--out", str(sessions), "--users-sphere", "2", "--users-cylinder", "3",
        "--diameters", "6,8,12",
    ]) == 0
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert main(["analyze", str(sessions), "--out", str(tmp_path / "analysis")]) == 0
    assert tracer.units["stats.cells"] == 2 * 3 * 5
    assert tracer.calls["stats.cell_stats"] == tracer.units["stats.cells"]
