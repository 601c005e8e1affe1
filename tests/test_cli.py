import contextlib
import csv
import io
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from flexglove import classify, cli, errors
from flexglove.classify import _centroids_by_row, build_centroids, centroids_from_csv, centroids_to_csv
from flexglove.cli import main
from flexglove.sensor import SensorConfig
from flexglove.session_io import format_session, write_session_file
from flexglove.simulate import DEFAULT_PROFILE_TABLE, make_hand_profile, seeded_random, simulate_cohort, simulate_session
from flexglove.stats import CohortTable, sem
from flexglove.types import SHAPE_BY_NAME, GraspObject, Shape
from oracles import characterize_by_draw, format_config, format_profile_table


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def quiet_config(tmp_path):
    path = tmp_path / "quiet.cfg"
    path.write_text("noise_amplitude = 0\n")
    return path


@pytest.fixture()
def small_cohort_dir(tmp_path):
    out = tmp_path / "sessions"
    assert run(
        "simulate", "--out", out, "--seed", "7",
        "--users-sphere", "3", "--users-cylinder", "3",
        "--diameters", "6,8,10",
    ) == 0
    return out


@pytest.fixture(scope="module")
def published(default_table, default_cohort, tmp_path_factory):
    """A seed-2020 session file and the seed-2020 centroid file."""
    work = tmp_path_factory.mktemp("published")
    write_session_file(default_cohort[0], work / "query.session")
    centroids = centroids_to_csv(build_centroids(default_table), default_table.raw_scale)
    (work / "centroids.csv").write_text(centroids)
    return work / "query.session", work / "centroids.csv"


class TestCharacterize:
    def test_outputs(self, tmp_path):
        out = tmp_path / "char"
        assert run("characterize", "--out", out, "--seed", "3") == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["diameter_cm", "adc_mean", "adc_sem", "n_trials"]
        assert len(rows) == 18
        assert [r[0] for r in rows] == [str(d) for d in range(22, 4, -1)]
        header, rows = read_csv(out / "stability.csv")
        assert header == ["sample_index", "adc"]
        assert len(rows) == 1000
        values = [int(r[1]) for r in rows]
        assert max(values) - min(values) <= 2

    def test_clean_sweep_monotone_with_knee(self, tmp_path, quiet_config):
        out = tmp_path / "char0"
        assert run("characterize", "--out", out, "--seed", "3", "--config", quiet_config) == 0
        _, rows = read_csv(out / "sweep.csv")
        by_d = {int(r[0]): float(r[1]) for r in rows}
        steps = {d: by_d[d] - by_d[d + 1] for d in range(5, 22)}
        assert all(step >= 0 for step in steps.values())
        assert max(steps[d] for d in range(12, 22)) < min(steps[d] for d in range(5, 12))

    def test_non_finite_config_is_argument_error(self, tmp_path, capsys):
        config = tmp_path / "inf.cfg"
        config.write_text("vcc = inf\n")
        assert run("characterize", "--out", tmp_path / "c", "--config", config) == 2
        err = capsys.readouterr().err
        assert "ArgumentError: config line 1: vcc must be finite" in err
        assert "Traceback" not in err

    def test_knee_near_tightest_bend_is_argument_error(self, tmp_path):
        config = tmp_path / "knee.cfg"
        config.write_text("d_knee = 5.5\n")
        out = tmp_path / "c"
        message = "ArgumentError: d_knee must sit more than 1.0 cm above d_tightest\n"
        assert run_quietly("characterize", "--out", out, "--config", config) == (2, message)
        assert not out.exists()

    def test_non_ascii_config_is_argument_error(self, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"vcc = 5\xe9\n")
        assert run("characterize", "--out", tmp_path / "c", "--config", config) == 2
        err = capsys.readouterr().err
        assert "ArgumentError: config file is not ASCII" in err
        assert "Traceback" not in err

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("characterize", "--out", a, "--seed", "3") == 0
        assert run("characterize", "--out", b, "--seed", "3") == 0
        for name in ("sweep.csv", "stability.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCharacterizeStream:
    """characterize's outputs against one rng.randint draw per reading.  The
    converter cases are TestNoiseStream's in test_simulate.py: r_fixed far
    below / far above the sensor's resistance pins every clean count to the
    converter's top / bottom, so the clamp is exercised."""

    @staticmethod
    def expected_rows(sensor, seed):
        sweep, stability = characterize_by_draw(sensor, seed)
        sweep_rows = [
            [str(d), f"{sum(t) / len(t):.6f}", f"{sem(t):.6f}", str(len(t))] for d, t in sweep
        ]
        return sweep_rows, [[str(i), str(v)] for i, v in enumerate(stability)]

    @pytest.mark.parametrize("amplitude", [0, 1, 2, 3, 50, 127])
    @pytest.mark.parametrize(
        "r_fixed, adc_levels", [(47_000.0, 1024), (1e-3, 1024), (1e12, 1024), (1e-3, 256)]
    )
    def test_outputs_equal_per_draw_replay(self, tmp_path, amplitude, r_fixed, adc_levels):
        sensor = SensorConfig(r_fixed=r_fixed, adc_levels=adc_levels, noise_amplitude=amplitude)
        config = tmp_path / "sensor.cfg"
        config.write_text(format_config(sensor))
        for seed in (2020, 0, 1, 7):
            out = tmp_path / str(seed)
            assert run("characterize", "--out", out, "--seed", seed, "--config", config) == 0
            sweep_rows, stability_rows = self.expected_rows(sensor, seed)
            assert read_csv(out / "sweep.csv")[1] == sweep_rows
            assert read_csv(out / "stability.csv")[1] == stability_rows

    def test_stability_stream_at_amplitude_3(self, tmp_path):
        config = tmp_path / "loud.cfg"
        config.write_text("noise_amplitude = 3\n")
        out = tmp_path / "char"
        assert run("characterize", "--out", out, "--config", config) == 0
        _, stability = characterize_by_draw(SensorConfig(noise_amplitude=3), 2020)
        _, rows = read_csv(out / "stability.csv")
        assert [int(r[1]) for r in rows] == stability
        assert len(rows) == 1000


def later_user_negative_gain(tmp_path):
    # A thumb gain_spread of 1.5 lets a sphere gain fall below zero.  At seed
    # 2020 the first two sphere users draw 0.098 and 1.2, the third -0.44: a
    # loop that simulated each session as it wrote it had written four files.
    table = dict(DEFAULT_PROFILE_TABLE)
    key = ("thumb", Shape.SPHERE)
    table[key] = table[key]._replace(gain_spread=1.5)
    path = tmp_path / "wide.table"
    path.write_text(format_profile_table(table))
    return ["simulate", "--profile-table", path, "--users-sphere", "3", "--users-cylinder", "2", "--diameters", "6,8"]


def overflowing_config(tmp_path):
    # The converter scaling overflows from the first session on: a loop that
    # created --out and then simulated each session as it wrote it left --out
    # empty.  The diameters are out of order, so the first session, whose
    # voltage the message names, is not the smallest object.
    config = tmp_path / "huge.cfg"
    config.write_text("vcc = 1e307\nr_fixed = 1e-3\n")
    return ["simulate", "--config", config, "--users-sphere", "3", "--users-cylinder", "2", "--diameters", "9.5,6,12"]


class TestSimulate:
    def test_writes_cohort_and_manifest(self, small_cohort_dir):
        files = sorted(p.name for p in small_cohort_dir.glob("*.session"))
        assert len(files) == 3 * 3 + 3 * 3
        manifest = json.loads((small_cohort_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert sorted(manifest["outputs"]) == files

    def test_default_cohort_file_count(self, tmp_path):
        out = tmp_path / "full"
        assert run("simulate", "--out", out, "--seed", "2020") == 0
        assert len(list(out.glob("*.session"))) == 11 * 11 + 8 * 10

    def test_zero_users_is_argument_error(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x", "--users-sphere", "0") == 2

    def test_non_finite_diameter_is_argument_error(self, tmp_path):
        # A file with `# diameter_cm=inf` would be rejected by its own reader.
        assert run("simulate", "--out", tmp_path / "x", "--diameters", "6,inf") == 2

    def test_unparsable_diameter_is_argument_error(self, tmp_path):
        out = tmp_path / "x"
        message = "ArgumentError: bad --diameters value '6,abc'\n"
        assert run_quietly("simulate", "--out", out, "--diameters", "6,abc") == (2, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "diameters, first, second", [("6,6,8", "6", "6"), ("6.0000001,6.0000002,8", "6.0000001", "6.0000002")]
    )
    def test_diameters_naming_one_file_are_argument_error(self, tmp_path, diameters, first, second):
        # Each pair wrote its second file over its first, and simulate exited 0.
        out = tmp_path / "x"
        code, err = run_quietly(
            "simulate", "--out", out, "--users-sphere", "2", "--users-cylinder", "2", "--diameters", diameters
        )
        assert code == 2
        assert err == f"ArgumentError: --diameters {first} and {second} both name 6cm session files\n"
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(
                "simulate", "--out", out, "--seed", "11",
                "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,7",
            ) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("*.session"))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_profile_table_flag(self, tmp_path):
        table_path = tmp_path / "table.txt"
        table_path.write_text(format_profile_table(DEFAULT_PROFILE_TABLE))
        out = tmp_path / "with_table"
        assert run(
            "simulate", "--out", out, "--seed", "11", "--profile-table", table_path,
            "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,7",
        ) == 0
        reference = tmp_path / "no_table"
        assert run(
            "simulate", "--out", reference, "--seed", "11",
            "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,7",
        ) == 0
        for p in sorted(out.glob("*.session")):
            assert p.read_bytes() == (reference / p.name).read_bytes()

    def test_non_ascii_profile_table_is_argument_error(self, tmp_path, capsys):
        table_path = tmp_path / "table.txt"
        table_path.write_bytes(b"thumb sph\xe8re 1.0 0.5 0.1 0.1\n")
        assert run("simulate", "--out", tmp_path / "s", "--profile-table", table_path) == 2
        err = capsys.readouterr().err
        assert "ArgumentError: profile table is not ASCII" in err
        assert "Traceback" not in err

    def test_config_wider_than_wire_format_is_argument_error(self, tmp_path, capsys):
        config = tmp_path / "wide.cfg"
        config.write_text("adc_levels = 4096\n")
        out = tmp_path / "s"
        assert run("simulate", "--out", out, "--config", config, "--diameters", "6,8") == 2
        assert "ArgumentError: adc_levels must be an integer in 2..1024, got 4096" in capsys.readouterr().err
        assert not list(out.glob("*.session"))

    def test_noise_amplitude_over_limit_is_argument_error(self, tmp_path, capsys):
        config = tmp_path / "loud.cfg"
        config.write_text("noise_amplitude = 128\n")
        out = tmp_path / "s"
        assert run("simulate", "--out", out, "--config", config, "--diameters", "6,8") == 2
        err = capsys.readouterr().err
        assert "ArgumentError: noise_amplitude must be an integer in 0..127, got 128" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.session"))

    def test_largest_noise_amplitude_writes_files_analyze_reads(self, tmp_path):
        # A flat resistance far below r_fixed and a tight one far above put
        # the clean counts near both ends of the converter, so noise of
        # +-127 counts is clamped at 0 and at 1023.
        config = tmp_path / "loud.cfg"
        config.write_text(
            "r_flat = 100\nr_min_diam = 10000000\nr_fixed = 10000\nnoise_amplitude = 127\n"
        )
        sessions = tmp_path / "s"
        assert run(
            "simulate", "--out", sessions, "--config", config,
            "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,16",
        ) == 0
        counts = {
            int(field)
            for path in sessions.glob("*.session")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
            for field in line.split(",")[1:]
        }
        assert {0, 1023} <= counts
        assert run("analyze", sessions, "--out", tmp_path / "a") == 0

    @pytest.mark.parametrize(
        "failing, message",
        [
            (later_user_negative_gain, "DomainError: profile gain must be positive, got -0.4405421799583926\n"),
            (overflowing_config, "DomainError: cannot quantize 9.999999855443434e+306 V on a 1e+307 V scale\n"),
        ],
        ids=["negative-gain", "overflow"],
    )
    def test_error_is_the_first_failing_sessions(self, tmp_path, failing, message):
        # Raised by simulate_cohort's own check before --out is created; the
        # sessions themselves are simulated only as they are written.
        assert run_quietly(*failing(tmp_path), "--out", tmp_path / "out") == (2, message)

    def test_sessions_are_drawn_in_stream_order(self, tmp_path):
        # Every profile comes from the master stream first, then one session
        # seed per (user, object), users in turn.  The diameters are out of
        # order, so the smallest object, which simulate_cohort checks before
        # returning, is not the first session.
        out = tmp_path / "out"
        diameters = [9.5, 6.0, 12.0]
        argv = ["--seed", "11", "--users-sphere", "3", "--users-cylinder", "2", "--diameters", "9.5,6,12"]
        assert run_quietly("simulate", "--out", out, *argv)[0] == 0
        expected = {}
        sensor = SensorConfig()
        for shape, users, prefix, seed in ((Shape.SPHERE, 3, "s", 11), (Shape.CYLINDER, 2, "c", 12)):
            objects = [GraspObject(shape, d) for d in diameters]
            sessions = list(simulate_cohort(objects, users, seed, user_prefix=prefix))
            master = seeded_random(seed)
            profiles = [make_hand_profile(f"{prefix}{k:02d}", master.getrandbits(32)) for k in range(1, users + 1)]
            assert sessions == [
                simulate_session(obj, profile, sensor, master.getrandbits(32)) for profile in profiles for obj in objects
            ]
            for session in sessions:
                name = f"{shape.value}_{session.obj.diameter_cm:g}cm_{session.user_id}.session"
                expected[name] = format_session(session)
        assert {p.name: p.read_bytes() for p in out.glob("*.session")} == expected

    @pytest.mark.parametrize("users", [[], ["--users-sphere", "44", "--users-cylinder", "32"]], ids=["default", "76-users"])
    def test_holds_one_session_at_a_time(self, tmp_path, users):
        # Each session is simulated as it is written and dropped before the
        # next.  Traced peak of a warm simulate (Python 3.11), default layout
        # and 44 + 32 users: 1.88 and 7.51 MB with both cohorts built as lists
        # first, 0.08 and 0.25 MB one session at a time.  The bound sits between.
        assert run_quietly("simulate", "--out", tmp_path / "warm", *users)[0] == 0
        tracemalloc.start()
        try:
            assert run_quietly("simulate", "--out", tmp_path / "s", *users)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


class TestAnalyze:
    def test_outputs(self, small_cohort_dir, tmp_path):
        out = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", out) == 0
        header, rows = read_csv(out / "cohort.csv")
        assert header == ["shape", "diameter_cm", "finger", "mean", "sem", "n"]
        assert len(rows) == 2 * 3 * 5  # shapes x diameters x fingers
        header, rows = read_csv(out / "regression.csv")
        assert header == ["shape", "finger", "fit_range", "slope_per_cm", "intercept", "r2", "n_points"]
        header, rows = read_csv(out / "discriminability.csv")
        assert [r[0] for r in rows] == ["6", "8", "10"]
        assert (out / "centroids.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["command"] == "analyze"

    def test_each_cell_is_summarized_once(self, tmp_path, monkeypatch):
        sessions, out = tmp_path / "sessions", tmp_path / "analysis"
        assert run(
            "simulate", "--out", sessions, "--users-sphere", "2", "--users-cylinder", "2",
            "--diameters", "6,8,10",
        ) == 0
        calls = []
        stats = CohortTable.stats

        def counted(table, key):
            calls.append(key)
            return stats(table, key)

        monkeypatch.setattr(CohortTable, "stats", counted)
        assert run("analyze", sessions, "--out", out) == 0
        _, rows = read_csv(out / "cohort.csv")
        assert len(rows) == 2 * 3 * 5
        assert calls == [(SHAPE_BY_NAME[shape], float(d), finger) for shape, d, finger, *_ in rows]

    def test_rerun_is_byte_identical(self, small_cohort_dir, tmp_path):
        a, b = tmp_path / "a1", tmp_path / "a2"
        assert run("analyze", small_cohort_dir, "--out", a) == 0
        assert run("analyze", small_cohort_dir, "--out", b) == 0
        for name in ("cohort.csv", "regression.csv", "discriminability.csv", "centroids.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_dir_is_argument_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("analyze", empty, "--out", tmp_path / "a") == 2

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_path_that_is_not_a_directory_is_argument_error(self, tmp_path, kind):
        path = tmp_path / "sessions"
        if kind == "file":
            path.write_bytes(b"# schema=1\n")
        code, err = run_quietly("analyze", path, "--out", tmp_path / "a")
        assert code == 2
        assert err == f"ArgumentError: no .session files in {path}\n"

    def test_directory_named_like_a_session_is_io_error(self, small_cohort_dir, tmp_path):
        odd = small_cohort_dir / "x.session"
        odd.mkdir()
        code, err = run_quietly("analyze", small_cohort_dir, "--out", tmp_path / "a")
        odd.rmdir()
        assert code == 5
        assert err.startswith("IoError: ")
        assert str(odd) in err

    def test_unlistable_directory_is_io_error(self, tmp_path):
        # A directory that cannot be listed is an I/O fault, not an empty one.
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        code, err = run_quietly("analyze", loop, "--out", tmp_path / "a")
        assert code == 5
        assert err.startswith("IoError: ")
        assert str(loop) in err

    def test_single_user_is_precondition_violation(self, tmp_path):
        out = tmp_path / "solo"
        assert run(
            "simulate", "--out", out, "--seed", "5",
            "--users-sphere", "1", "--users-cylinder", "1", "--diameters", "6,8",
        ) == 0
        code, err = run_quietly("analyze", out, "--out", tmp_path / "a")
        assert code == 4
        assert err == "PreconditionViolation: cell (cylinder, 6, thumb) has a single contributing user; SEM is undefined\n"

    def test_corrupt_session_is_parse_error(self, small_cohort_dir, tmp_path, capsys):
        bad = small_cohort_dir / "bad.session"
        bad.write_bytes(b"# schema=1\n# user=x\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\n1,2\n")
        assert run("analyze", small_cohort_dir, "--out", tmp_path / "a") == 3
        assert "MalformedFrame" in capsys.readouterr().err
        bad.unlink()

    def test_over_long_frame_field_is_parse_error(self, small_cohort_dir, tmp_path, capsys):
        bad = small_cohort_dir / "long.session"
        bad.write_bytes(
            b"# schema=1\n# user=x\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\n"
            + b"1" * 5000 + b",1,2,3,4,5\n"
        )
        assert run("analyze", small_cohort_dir, "--out", tmp_path / "a") == 3
        err = capsys.readouterr().err
        assert "MalformedFrame: long.session: line 6: field of 5000 digits exceeds" in err
        assert "Traceback" not in err
        bad.unlink()

    def test_parse_error_names_the_file(self, small_cohort_dir, tmp_path, capsys):
        # One bad file among the cohort's 18: the error says which one.
        good = sorted(small_cohort_dir.glob("*.session"))[4]
        lines = good.read_text().split("\n")
        lines[7] = ",".join(lines[7].split(",")[:3])
        bad = small_cohort_dir / "sphere_8cm_s99.session"
        bad.write_text("\n".join(lines))
        capsys.readouterr()
        assert run("analyze", small_cohort_dir, "--out", tmp_path / "a") == 3
        err = capsys.readouterr().err
        assert "MalformedFrame: sphere_8cm_s99.session: line 8: expected 6 fields, got 3\n" in err
        assert "Traceback" not in err
        bad.unlink()

    @pytest.mark.parametrize(
        "short, malformed, code, message",
        [
            ("a.session", "b.session", 4, "PreconditionViolation: session x/sphere/8.0 has 3 frames, expected 100\n"),
            ("b.session", "a.session", 3, "MalformedFrame: a.session: line 6: expected 6 fields, got 2\n"),
        ],
        ids=["short-first", "malformed-first"],
    )
    def test_first_fault_in_file_name_order_is_reported(self, tmp_path, short, malformed, code, message):
        # analyze reads each file as build_cohort asks for it, so a fault in
        # a session read whole (here a wrong frame count) and a parse error
        # are reported in file-name order, whichever comes first.
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        header = b"# schema=1\n# user=x\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\n"
        (sessions / short).write_bytes(header + b"0,1,2,3,4,5\n50,1,2,3,4,5\n100,1,2,3,4,5\n")
        (sessions / malformed).write_bytes(header + b"1,2\n")
        assert run_quietly("analyze", sessions, "--out", tmp_path / "a") == (code, message)
        assert not (tmp_path / "a").exists()

    def test_holds_one_session_at_a_time(self, tmp_path):
        # Each session is read as build_cohort asks for it and dropped once
        # averaged.  Traced peak of a warm analyze of the default cohort
        # (Python 3.11): 2.49 MB with all 201 sessions read into a list
        # first, 0.14 MB read one at a time.  The bound sits between.
        sessions = tmp_path / "sessions"
        assert run_quietly("simulate", "--out", sessions, "--seed", "2020")[0] == 0
        assert run("analyze", sessions, "--out", tmp_path / "warm") == 0
        tracemalloc.start()
        try:
            assert run("analyze", sessions, "--out", tmp_path / "a") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    @pytest.mark.parametrize("expected", ["0", "-3"])
    def test_expected_frames_below_one_is_argument_error(self, tmp_path, capsys, expected):
        sessions = tmp_path / "headers"
        sessions.mkdir()
        for user in ("a", "b"):
            for d in ("6", "8"):
                (sessions / f"sphere_{d}cm_{user}.session").write_bytes(
                    f"# schema=1\n# user={user}\n# shape=sphere\n# diameter_cm={d}\n# period_ms=50\n".encode()
                )
        assert run("analyze", sessions, "--out", tmp_path / "a", "--expected-frames", expected) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: expected frame count must be at least 1, got {expected}" in err
        assert "Traceback" not in err

    def test_non_finite_diameter_is_parse_error(self, small_cohort_dir, tmp_path, capsys):
        bad = small_cohort_dir / "inf.session"
        bad.write_bytes(b"# schema=1\n# user=x\n# shape=sphere\n# diameter_cm=inf\n# period_ms=50\n")
        assert run("analyze", small_cohort_dir, "--out", tmp_path / "a") == 3
        assert "MalformedHeader: inf.session: line 4: diameter must be finite" in capsys.readouterr().err
        bad.unlink()

    def test_diameters_of_one_spelling_are_argument_error(self, tmp_path):
        # Both diameters wrote as 12.3457: analyze exited 0 and classify then
        # rejected the repeated centroid row of its centroids.csv.
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        objects = [GraspObject(Shape.SPHERE, d) for d in (6.0, 8.0)]
        objects += [GraspObject(Shape.CYLINDER, d) for d in (6.0, 12.3456781, 12.3456789)]
        profiles = [make_hand_profile(user, seed) for seed, user in enumerate(("a", "b"))]
        for i, obj in enumerate(objects):
            for j, profile in enumerate(profiles):
                session = simulate_session(obj, profile, SensorConfig(), 2 * i + j, n_frames=4)
                write_session_file(session, sessions / f"{obj.shape.value}_{obj.diameter_cm!r}_{profile.user_id}.session")
        out = tmp_path / "a"
        code, err = run_quietly("analyze", sessions, "--out", out, "--expected-frames", "4")
        assert code == 2
        assert err == "ArgumentError: cylinder sessions at 12.3456781 cm and 12.3456789 cm both write as 12.3457 cm\n"
        assert not out.exists()


def swap_sphere_extremes(lines):
    """Centroid file lines with the raw_min,sphere and raw_max,sphere labels swapped."""
    swap = {"raw_min,sphere,": "raw_max,sphere,", "raw_max,sphere,": "raw_min,sphere,"}
    return [swap.get(line[:15], line[:15]) + line[15:] for line in lines]


def flatten_sphere_scale(lines):
    """Centroid file lines with raw_max,sphere set to the raw_min,sphere values."""
    low = next(line for line in lines if line.startswith("raw_min,sphere,"))
    return [low.replace("raw_min", "raw_max") if line.startswith("raw_max,sphere,") else line for line in lines]


class TestClassify:
    def test_verdict_line(self, small_cohort_dir, tmp_path, capsys):
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        session = sorted(small_cohort_dir.glob("sphere_6cm_*.session"))[0]
        assert run("classify", session, analysis / "centroids.csv") == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("shape=") and "diameter_cm=" in line and "distance=" in line

    def test_malformed_session_names_error(self, small_cohort_dir, tmp_path, capsys):
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        bad = tmp_path / "bad.session"
        bad.write_bytes(b"garbage\n")
        assert run("classify", bad, analysis / "centroids.csv") == 3
        assert "MalformedHeader" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("centroid,sphere,6,", "centroid,sphear,6,", "'sphear' is not a valid Shape"),
            ("centroid,sphere,6,", "centroid,sphere,six,", "could not convert string to float: 'six'"),
            ("raw_min,cylinder,,", "raw_min,cylinder,,x", "could not convert string to float: 'x"),
            ("raw_min,cylinder,,", "raw_mid,cylinder,,", "unknown centroid row kind 'raw_mid'"),
            ("centroid,sphere,6,", "centroid,sphere,-6,", "diameter_cm must be positive, got '-6'"),
            ("centroid,sphere,6,", "centroid,sphere,0,", "diameter_cm must be positive, got '0'"),
            ("raw_min,cylinder,,", "raw_min,cylinder,banana,", "a raw_min row's diameter_cm must be empty, got 'banana'"),
        ],
    )
    def test_bad_centroid_file_is_argument_error(self, small_cohort_dir, tmp_path, capsys, old, new, message):
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        text = (analysis / "centroids.csv").read_text()
        assert text.count(old) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace(old, new))
        line_no = text[: text.index(old)].count("\n") + 1
        session = sorted(small_cohort_dir.glob("*.session"))[0]
        capsys.readouterr()
        assert run("classify", session, bad) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: centroid file line {line_no}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("expected", ["0", "-3"])
    def test_expected_frames_below_one_is_argument_error(self, small_cohort_dir, tmp_path, capsys, expected):
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        session = sorted(small_cohort_dir.glob("*.session"))[0]
        capsys.readouterr()
        assert run("classify", session, analysis / "centroids.csv", "--expected-frames", expected) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: expected frame count must be at least 1, got {expected}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_centroid_value_is_argument_error(self, small_cohort_dir, tmp_path, capsys, value):
        # A nan makes every distance to the sphere 6 cm centroid nan: never the nearest.
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        lines = (analysis / "centroids.csv").read_text().split("\n")
        line_no = next(i for i, line in enumerate(lines, 1) if line.startswith("centroid,sphere,6,"))
        row = lines[line_no - 1].split(",")
        row[3] = value
        lines[line_no - 1] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        session = sorted(small_cohort_dir.glob("sphere_6cm_*.session"))[0]
        capsys.readouterr()
        assert run("classify", session, bad) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: centroid file line {line_no}: thumb must be finite, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "prefix, respelled, message",
        [
            ("centroid,sphere,6,", "centroid,sphere,6,", "repeats the centroid row for (sphere, 6 cm)"),
            ("centroid,sphere,6,", "centroid,sphere,6.0,", "repeats the centroid row for (sphere, 6 cm)"),
            ("raw_min,sphere,", "raw_min,sphere,", "repeats the raw_min row for sphere"),
            ("raw_max,cylinder,", "raw_max,cylinder,", "repeats the raw_max row for cylinder"),
        ],
    )
    def test_repeated_row_is_argument_error(self, small_cohort_dir, tmp_path, capsys, prefix, respelled, message):
        # A second raw row used to replace the first without a word, and a
        # second centroid row was kept as one more centroid.
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        text = (analysis / "centroids.csv").read_text()
        row = next(line for line in text.splitlines(True) if line.startswith(prefix))
        bad = tmp_path / "bad.csv"
        bad.write_text(text + row.replace(prefix, respelled))
        line_no = text.count("\n") + 1
        session = sorted(small_cohort_dir.glob("*.session"))[0]
        capsys.readouterr()
        assert run("classify", session, bad) == 2
        assert capsys.readouterr().err == f"ArgumentError: centroid file line {line_no}: {message}\n"

    def test_centroid_file_without_raw_scale_is_argument_error(self, small_cohort_dir, tmp_path, capsys):
        analysis = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", analysis) == 0
        text = (analysis / "centroids.csv").read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line for line in text.splitlines(True) if not line.startswith("raw_max,cylinder,")))
        session = sorted(small_cohort_dir.glob("*.session"))[0]
        capsys.readouterr()
        assert run("classify", session, bad) == 2
        err = capsys.readouterr().err
        assert "ArgumentError: centroid file lacks raw scale for cylinder\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (swap_sphere_extremes, "(sphere, thumb)"),
            (flatten_sphere_scale, "(sphere, thumb)"),
            (lambda lines: apply_edits(lines, OVERFLOWING_SPAN), "(cylinder, thumb)"),
        ],
        ids=["swapped", "flat", "overflowing"],
    )
    def test_unusable_raw_scale_is_argument_error(self, published, tmp_path, edit, key):
        # Swapped, the sphere scale classified sphere_6cm_s01 as 16 cm with exit 0.
        session, centroids = published
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "\n" for line in edit(centroids.read_text().splitlines())))
        code, err = run_quietly("classify", session, bad)
        assert code == 2
        assert err.startswith(
            f"ArgumentError: centroid file raw scale for {key}: raw_max - raw_min must be positive and finite, got "
        )

    def test_non_ascii_centroid_file_is_argument_error(self, small_cohort_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("kind,shape,diameter_cm,thumb,index,middle,ring,pinky\ncentroid,sph\u00e9re\n".encode())
        session = sorted(small_cohort_dir.glob("*.session"))[0]
        assert run("classify", session, bad) == 2
        assert "ArgumentError: centroid file is not ASCII" in capsys.readouterr().err


class TestTextInputs:
    """The config file, the profile table and the centroid file follow one
    rule: ASCII, '#' comments and blank lines ignored, fields unquoted."""

    @pytest.fixture(params=["config file", "profile table", "centroid file"])
    def text_input(self, request, tmp_path):
        """(what, a valid file text, a field of it and that field quoted,
        a function running the command that reads the file at a path)."""
        what = request.param
        if what == "config file":
            text = format_config(SensorConfig())
            return what, text, ("vcc = 5.0", 'vcc = "5.0"'), lambda path: run(
                "characterize", "--out", tmp_path / "c", "--config", path
            )
        if what == "profile table":
            text = format_profile_table(DEFAULT_PROFILE_TABLE)
            return what, text, ("thumb sphere", 'thumb "sphere"'), lambda path: run(
                "simulate", "--out", tmp_path / "s", "--profile-table", path,
                "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,7",
            )
        sessions, analysis = tmp_path / "sessions", tmp_path / "analysis"
        assert run(
            "simulate", "--out", sessions, "--seed", "7",
            "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,8",
        ) == 0
        assert run("analyze", sessions, "--out", analysis) == 0
        text = (analysis / "centroids.csv").read_text()
        session = sorted(sessions.glob("*.session"))[0]
        return what, text, ("centroid,sphere,6,", 'centroid,"sphere",6,'), lambda path: run(
            "classify", session, path
        )

    def test_comments_blank_lines_and_crlf_accepted(self, text_input, tmp_path):
        _, text, _, run_with = text_input
        first, rest = text.split("\n", 1)
        edited = f"# edited by hand\n{first}\n\n   \n{rest}".replace("\n", "\r\n")
        path = tmp_path / "edited.txt"
        path.write_bytes(edited.encode("ascii"))
        assert run_with(path) == 0

    def test_non_ascii_byte_is_argument_error(self, text_input, tmp_path, capsys):
        what, text, _, run_with = text_input
        path = tmp_path / "latin.txt"
        path.write_bytes(text.encode("ascii") + b"# caf\xe9\n")
        capsys.readouterr()
        assert run_with(path) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: {what} is not ASCII" in err
        assert "Traceback" not in err

    # A numeric field of each file spelled as a non-finite number, and the
    # error, whose {} is the line number.
    NON_FINITE = {
        "config file": ("vcc = 5.0", "vcc = inf", "config line {}: vcc must be finite, got 'inf'"),
        "profile table": (
            "thumb sphere 1.0 ", "thumb sphere nan ", "profile table line {}: gain must be finite, got 'nan'"
        ),
        "centroid file": (
            "centroid,sphere,6,", "centroid,sphere,-inf,",
            "centroid file line {}: diameter_cm must be finite, got '-inf'",
        ),
    }

    def test_non_finite_number_is_argument_error(self, text_input, tmp_path, capsys):
        what, text, _, run_with = text_input
        old, new, message = self.NON_FINITE[what]
        assert text.count(old) == 1
        line_no = text[: text.index(old)].count("\n") + 1
        path = tmp_path / "non_finite.txt"
        path.write_text(text.replace(old, new))
        capsys.readouterr()
        assert run_with(path) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: {message.format(line_no)}" in err
        assert "Traceback" not in err

    # A row of each file that repeats a key of the file, and the error, whose
    # {} is the repeat's line number.
    REPEATED = {
        "config file": ("vcc = 3.3", "config line {}: repeats the key 'vcc'"),
        "profile table": ("thumb sphere 1.0 0.5 0.0 0.0", "profile table line {}: repeats the row for (thumb, sphere)"),
        "centroid file": ("raw_min,sphere,,1,2,3,4,5", "centroid file line {}: repeats the raw_min row for sphere"),
    }

    def test_repeated_key_is_argument_error(self, text_input, tmp_path, capsys):
        # In the config and the profile table, the last of two lines for one
        # key once replaced the first without a word.
        what, text, _, run_with = text_input
        row, message = self.REPEATED[what]
        path = tmp_path / "repeated.txt"
        path.write_text(text + row + "\n")
        line_no = text.count("\n") + 1
        capsys.readouterr()
        assert run_with(path) == 2
        assert capsys.readouterr().err == f"ArgumentError: {message.format(line_no)}\n"

    def test_quoted_field_is_argument_error(self, text_input, tmp_path, capsys):
        _, text, (field, quoted), run_with = text_input
        assert text.count(field) == 1
        path = tmp_path / "quoted.txt"
        path.write_text(text.replace(field, quoted))
        capsys.readouterr()
        assert run_with(path) == 2
        err = capsys.readouterr().err
        assert "ArgumentError" in err and "Traceback" not in err


def apply_edits(lines, edits):
    """``lines`` after each edit ``(kind, index, column, text)`` in turn.  A
    "value" edit sets what follows the line's last "=", or else its comma
    field ``column``, or on a line with no comma its space-separated field
    ``column``; "delete" drops the line; "insert", or an index past the last
    line, inserts ``text`` as a line."""
    lines = list(lines)
    for kind, index, column, text in edits:
        i = index % (len(lines) + 1)
        if kind == "value" and i < len(lines):
            key, eq, _ = lines[i].rpartition("=")
            if eq:
                lines[i] = key + eq + text
            else:
                sep = "," if "," in lines[i] else " "
                row = lines[i].split(sep)
                row[column % len(row)] = text
                lines[i] = sep.join(row)
        elif kind == "delete" and i < len(lines):
            del lines[i]
        else:
            lines.insert(i, text)
    return lines


def edit_lists(max_index, tokens):
    """One to four edits of a file's lines, by apply_edits, each replacement
    or inserted line drawn from ``tokens`` or from arbitrary Latin-1 text."""
    return st.lists(
        st.tuples(
            st.sampled_from(["value", "value", "delete", "insert"]),
            st.integers(min_value=0, max_value=max_index),
            st.integers(min_value=0, max_value=7),
            st.one_of(st.sampled_from(tokens), st.text(st.characters(max_codepoint=255), max_size=12)),
        ),
        min_size=1,
        max_size=4,
    )


def run_quietly(*argv):
    """The exit code of a command, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


# Replacement values for the config fuzz: the integer and amplitude limits,
# spellings the finite-number rule rejects, and magnitudes that overflow.
CONFIG_TOKENS = [
    "0", "1", "127", "128", "-1", "2.5", "1e3", "1e307", "1e308", "5e-324",
    "nan", "inf", "-Infinity", "0x10", "x", "", "=",
]


class TestConfigFuzz:
    """characterize --config on mutations of a known-good config file exits
    with a code from the contract and never prints a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(edit_lists(9, CONFIG_TOKENS))
    def test_mutated_config_exits_by_contract(self, tmp_path_factory, edits):
        work = tmp_path_factory.mktemp("fuzz")
        config = work / "mutated.cfg"
        config.write_bytes("\n".join(apply_edits(format_config(SensorConfig()).splitlines(), edits)).encode("latin-1"))
        code, err = run_quietly("characterize", "--out", work / "out", "--config", config)
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err


# Replacement fields for the centroid fuzz: extreme magnitudes of both signs,
# spellings the finite-number rule rejects, the file's own keywords, and
# bytes that move it off the layout the bulk reader takes.
CENTROID_TOKENS = [
    "0", "-0", "1", "-1", "1e308", "-1e308", "1.7976931348623157e308", "5e-324",
    "-5e-324", "1e-300", "nan", "inf", "", "x", "sphere", "cylinder", "centroid",
    "raw_min", "raw_max", ",", "\r", "#", " 0.5", "\x80",
]
# Line 22 is raw_min,cylinder and line 23 raw_max,cylinder: their thumb span
# overflows to inf.
OVERFLOWING_SPAN = [("value", 22, 3, "-1.7976931348623157e308"), ("value", 23, 3, "1.7976931348623157e308")]
# The cylinder thumb's two extremes swapped, and a centroid at both extremes.
SWAPPED_EXTREMES = [
    ("value", 22, 3, "1e308"), ("value", 23, 3, "-1e308"), ("value", 1, 2, "5e-324"), ("value", 1, 3, "1e308"),
]
# A non-ASCII field: the bulk reader's encode() must never see it.
NON_ASCII_FIELD = [("value", 1, 3, "\x80")]


def outcome(read, text):
    """What a centroid reader gives for ``text``: its result, or the type and
    message of the error it raised."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestClassifyFuzz:
    """classify on mutations of the seed-2020 centroid file exits with a code
    from the contract and never prints a traceback, and the bulk centroid
    reader agrees with the row-at-a-time one."""

    @settings(max_examples=40, deadline=None)
    @given(edit_lists(40, CENTROID_TOKENS))
    @example(OVERFLOWING_SPAN)
    @example(SWAPPED_EXTREMES)
    def test_mutated_centroid_file_exits_by_contract(self, published, tmp_path_factory, edits):
        session, centroids = published
        mutated = tmp_path_factory.mktemp("fuzz") / "mutated.csv"
        mutated.write_bytes("\n".join(apply_edits(centroids.read_text().splitlines(), edits)).encode("latin-1"))
        code, err = run_quietly("classify", session, mutated)
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err

    @settings(max_examples=40, deadline=None)
    @given(edit_lists(40, CENTROID_TOKENS))
    @example(OVERFLOWING_SPAN)
    @example(SWAPPED_EXTREMES)
    @example(NON_ASCII_FIELD)
    def test_bulk_reader_matches_row_loop(self, published, edits):
        """Equal centroids and context, or the same error type and message."""
        _, centroids = published
        text = "\n".join(apply_edits(centroids.read_text().splitlines(), edits))
        assert outcome(centroids_from_csv, text) == outcome(_centroids_by_row, text)

    @staticmethod
    def edge_files(text):
        """Variants of a centroid file, each named: line endings, rows split
        unevenly, comments, blank lines, spaces, non-ASCII text, overflow,
        repeated rows, rows out of order, and text in the one field no reader
        converts, a raw row's diameter_cm, which must be empty: a word, a
        space, and characters content_lines reads as a line break or a
        comment."""
        header, first, second, *rest = text.splitlines()
        raw = next(i for i, line in enumerate(rest) if line.startswith("raw_min,"))

        def with_lines(*lines, edit=None):
            body = list(rest)
            if edit is not None:
                body[raw] = body[raw].replace(",,", f",{edit},", 1)
            return "".join(line + "\n" for line in (header, *lines, *body))

        row = first.split(",")
        moved, last = first.rsplit(",", 1)
        files = {
            "crlf": text.replace("\n", "\r\n"),
            "cr only": text.replace("\n", "\r"),
            "no final newline": text[:-1],
            "field moved to the next line": with_lines(moved, f"{last},{second}"),
            "comment row": with_lines("#,,,,,,,", first, second),
            "trailing comment": with_lines(first + " # comment", second),
            "blank line": with_lines(first, "", second),
            "leading space": with_lines(" " + first, second),
            "tab in a shape field": with_lines(first.replace(",", ",\t", 1), second),
            "tab in a number field": with_lines(",".join([*row[:3], "\t" + row[3], *row[4:]]), second),
            "trailing tab": with_lines(first + "\t", second),
            "non-ASCII comment": with_lines("# \u00e9", first, second),
            "non-ASCII field": with_lines(first.replace("centroid", "centro\u00efd"), second),
            "1e999": with_lines(moved + ",1e999", second),
            "finite sum overflows": with_lines(*(line.rsplit(",", 1)[0] + ",1e308" for line in (first, second))),
            "empty file": "",
            "header only": header + "\n",
            "repeated centroid row": with_lines(first, second, first),
            "repeated raw row": with_lines(first, second, rest[raw]),
        }
        for name, diameter in [("raw rows first", ""), ("raw rows first, with diameters", "7")]:
            raw_rows = [line.replace(",,", f",{diameter},", 1) for line in rest[raw:]]
            files[name] = "".join(line + "\n" for line in (header, *raw_rows, first, second, *rest[:raw]))
        breaks = [("comment", "#"), ("cr", "\r"), ("vt", "\x0b"), ("ff", "\x0c"), ("fs", "\x1c"), ("nel", "\x85")]
        for name, char in [*breaks, ("line separator", "\u2028"), ("word", "banana"), ("space", " ")]:
            files[f"{name} in a raw diameter"] = with_lines(first, second, edit=char)
        return files

    def test_edge_files_match_row_loop(self, published):
        """Equal centroids and context, or the same error type and message."""
        _, centroids = published
        for name, text in self.edge_files(centroids.read_text()).items():
            assert outcome(centroids_from_csv, text) == outcome(_centroids_by_row, text), name

    def test_sound_file_is_read_in_bulk(self, published, sweep_analysis, monkeypatch):
        """The seed-2020 centroid file, and the 82-centroid file of the
        benchmark's sweep, never reach the row-at-a-time reader."""
        texts = [published[1].read_text(), (sweep_analysis[1] / "centroids.csv").read_text()]
        expected = [_centroids_by_row(text) for text in texts]
        assert [len(centroids) for centroids, _ in expected] == [21, 82]

        def unreachable(text):
            raise AssertionError("a sound centroid file went to the row-at-a-time reader")

        monkeypatch.setattr(classify, "_centroids_by_row", unreachable)
        assert [centroids_from_csv(text) for text in texts] == expected


# Replacement fields for the session fuzz: counts at and past the 10-bit
# ceiling, leading zeros, negative and non-integer numbers, a field past
# int()'s digit limit, and header keywords.
SESSION_TOKENS = [
    "0", "00", "0007", "1023", "01023", "1024", "-1", "2.5", "1e308", "-1e308", "5e-324",
    "nan", "inf", "", "x", " 5", "9" * 5000, "sphere", "cylinder", "2", "# schema=1",
    "1,2,3,4,5,6",
]


class TestClassifySessionFuzz:
    """classify of mutations of a seed-2020 session file, against the
    seed-2020 centroids, exits with a code from the contract and never prints
    a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(edit_lists(110, SESSION_TOKENS))
    # A schema and a period past int()'s digit limit each raised a bare
    # ValueError, a traceback with exit 1.
    @example([("value", 0, 0, "9" * 5000)])
    @example([("value", 4, 0, "9" * 5000)])
    def test_mutated_session_exits_by_contract(self, published, tmp_path_factory, edits):
        session, centroids = published
        lines = apply_edits(session.read_text().splitlines(), edits)
        mutated = tmp_path_factory.mktemp("fuzz") / "mutated.session"
        mutated.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
        code, err = run_quietly("classify", mutated, centroids)
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err


# The small cohort both fuzzes below simulate.
SMALL_COHORT = ("--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,9,12")
# Replacement fields for the profile-table fuzz: extreme magnitudes of both
# signs, spellings the finite-number rule rejects, and the table's own names.
PROFILE_TOKENS = [
    "0", "-0", "1", "-1", "1e308", "-1e308", "1.7976931348623157e308", "5e-324", "-5e-324",
    "1e-300", "nan", "inf", "", "x", "thumb", "pinky", "sphere", "cylinder",
]
# Line 2 is thumb sphere: its gain and gain spread both at the largest float,
# and its offset and offset spread at opposite extremes.
EXTREME_GAINS = [("value", 2, 2, "1.7976931348623157e308"), ("value", 2, 4, "1.7976931348623157e308")]
EXTREME_OFFSETS = [("value", 2, 3, "-1e308"), ("value", 2, 5, "1e308")]


class TestProfileTableFuzz:
    """simulate --profile-table on mutations of the default table, then
    analyze of whatever it wrote, exit with codes from the contract and never
    print a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(edit_lists(12, PROFILE_TOKENS))
    @example(EXTREME_GAINS)
    @example(EXTREME_OFFSETS)
    def test_mutated_profile_table_exits_by_contract(self, tmp_path_factory, edits):
        work = tmp_path_factory.mktemp("fuzz")
        table = work / "mutated.table"
        lines = apply_edits(format_profile_table(DEFAULT_PROFILE_TABLE).splitlines(), edits)
        table.write_bytes("\n".join(lines).encode("latin-1"))
        code, err = run_quietly("simulate", "--out", work / "sessions", "--profile-table", table, *SMALL_COHORT)
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err
        if code != 0:
            assert not (work / "sessions").exists()
        else:
            code, err = run_quietly("analyze", work / "sessions", "--out", work / "analysis")
            assert code in (0, 2, 3, 4, 5)
            assert "Traceback" not in err


# The session fuzz's fields, plus header values that make one cohort's sessions
# collide or leave a cell with one user.
ANALYZE_TOKENS = SESSION_TOKENS + ["c01", "s02", "6.0", "7"]
# File 0 is cylinder_12cm_c01.session: line 1 holds its user, line 3 its diameter.
DUPLICATE_SESSION = [(0, [("value", 1, 0, "c02")])]
SINGLE_USER_CELL = [(0, [("value", 3, 0, "7")])]


class TestAnalyzeFuzz:
    """analyze of a small cohort with one to three of its session files
    mutated exits with a code from the contract and never prints a traceback."""

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        """Each session file's name and text."""
        out = tmp_path_factory.mktemp("cohort")
        assert run_quietly("simulate", "--out", out, "--seed", "7", *SMALL_COHORT)[0] == 0
        return {path.name: path.read_text() for path in sorted(out.glob("*.session"))}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=11), edit_lists(110, ANALYZE_TOKENS)), min_size=1, max_size=3))
    @example(DUPLICATE_SESSION)
    @example(SINGLE_USER_CELL)
    def test_mutated_sessions_exit_by_contract(self, cohort, tmp_path_factory, mutations):
        work = tmp_path_factory.mktemp("fuzz")
        sessions = work / "sessions"
        sessions.mkdir()
        texts = dict(cohort)
        names = list(texts)
        for index, edits in mutations:
            name = names[index % len(names)]
            texts[name] = "".join(line + "\n" for line in apply_edits(texts[name].splitlines(), edits))
        for name, text in texts.items():
            (sessions / name).write_bytes(text.encode("latin-1"))
        code, err = run_quietly("analyze", sessions, "--out", work / "analysis")
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err


# The README's exit code for every error class in flexglove.errors.
README_EXIT_CODES = {
    "GloveError": 2, "ArgumentError": 2, "DomainError": 2, "BendRangeError": 2,
    "ParseError": 3, "MalformedFrame": 3, "RangeViolation": 3, "MalformedHeader": 3,
    "OrderViolation": 3, "SchemaError": 3,
    "PreconditionViolation": 4, "DegenerateRange": 4,
}


class TestExitCodes:
    def test_every_error_class_has_a_readme_exit_code(self):
        classes = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.GloveError)
        }
        assert classes == set(README_EXIT_CODES)

    @pytest.mark.parametrize("name, code", [*README_EXIT_CODES.items(), ("OSError", 5)])
    def test_main_maps_each_error_to_its_exit_code(self, name, code, tmp_path, monkeypatch):
        exc_type = OSError if name == "OSError" else getattr(errors, name)

        def failing(*args, **kwargs):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "read_session_file", failing)
        code_seen, err = run_quietly("classify", tmp_path / "q.session", tmp_path / "c.csv")
        assert code_seen == code
        assert err == ("IoError: boom\n" if name == "OSError" else f"{name}: boom\n")

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["simulate", "--diameters", ""], 2, "ArgumentError: --diameters lists no diameters\n"),
            (["simulate", "--profile-table", ""], 5, "IoError: [Errno 2] No such file or directory: ''\n"),
            (["characterize", "--config", ""], 5, "IoError: [Errno 2] No such file or directory: ''\n"),
        ],
        ids=["diameters", "profile-table", "config"],
    )
    def test_empty_flag_value_is_an_error_not_the_default(self, argv, code, message, tmp_path):
        # An empty value once meant "use the default": simulate --diameters ""
        # wrote the 201 default files and exited 0.
        out = tmp_path / "out"
        assert run_quietly(*argv, "--out", out) == (code, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["characterize", "simulate"])
    def test_negative_seed_is_an_error(self, command, tmp_path):
        # Random(-n) seeds as Random(n): characterize --seed -7 once wrote
        # --seed 7's stability.csv, and simulate --seed -3 its sphere
        # sessions, while each manifest recorded the negative seed.
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.csv").write_text("kept\n")
        message = "ArgumentError: seed must not be negative, got -7\n"
        assert run_quietly(command, "--seed", "-7", "--out", out) == (2, message)
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("earlier.csv", "kept\n")]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["characterize", "--out", ""], "ArgumentError: --out names no directory\n"),
            (["simulate", "--diameters", "7", "--out", ""], "ArgumentError: --out names no directory\n"),
            (["analyze", "{sessions}", "--out", ""], "ArgumentError: --out names no directory\n"),
            (["analyze", "", "--out", "{out}"], "ArgumentError: the sessions argument names no directory\n"),
        ],
        ids=["characterize-out", "simulate-out", "analyze-out", "analyze-sessions"],
    )
    def test_empty_path_is_an_error_not_the_working_directory(
        self, argv, message, small_cohort_dir, tmp_path, monkeypatch
    ):
        # Path("") is ".": simulate --out "" once wrote its sessions and
        # manifest into the working directory, and analyze "" analyzed it,
        # both exiting 0.  The working directory holds a cohort here, so an
        # empty sessions path has something to read.
        out = tmp_path / "out"
        argv = [a.format(sessions=small_cohort_dir, out=out) for a in argv]
        monkeypatch.chdir(small_cohort_dir)
        before = {p.name: p.read_bytes() for p in small_cohort_dir.iterdir()}
        assert run_quietly(*argv) == (2, message)
        assert {p.name: p.read_bytes() for p in small_cohort_dir.iterdir()} == before
        assert not out.exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run("characterize", "--out", blocker / "sub") == 5

    def test_missing_session_file_is_io_error(self, tmp_path):
        assert run("classify", tmp_path / "nope.session", tmp_path / "c.csv") == 5

    def test_directory_given_as_session_is_io_error(self, published, tmp_path):
        _, centroids = published
        code, err = run_quietly("classify", tmp_path, centroids)
        assert code == 5
        assert err.startswith("IoError: ")
        assert str(tmp_path) in err

    @pytest.mark.parametrize("command", ["analyze", "classify"])
    def test_expected_frames_below_one_is_rejected_before_any_file_is_read(self, command, tmp_path):
        # The session's frame line has two fields, so reading it is a parse
        # error (exit 3), which this argument error must come before.
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        (sessions / "a.session").write_bytes(
            b"# schema=1\n# user=a\n# shape=sphere\n# diameter_cm=6\n# period_ms=50\n0,1\n"
        )
        argv = (
            [sessions, "--out", tmp_path / "out"] if command == "analyze"
            else [sessions / "a.session", tmp_path / "centroids.csv"]
        )
        message = "ArgumentError: expected frame count must be at least 1, got 0\n"
        assert run_quietly(command, *argv, "--expected-frames", "0") == (2, message)
        assert run_quietly(command, *argv)[0] == 3


class TestCommandLine:
    """argparse's handling of a command line: each command's own parser
    takes a line that starts with its name, the top-level parser the rest."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "flexglove: error: the following arguments are required: command"),
            (["frobnicate"], "flexglove: error: argument command: invalid choice: 'frobnicate' "
                             "(choose from 'characterize', 'simulate', 'analyze', 'classify')"),
            (["classify", "only.session"], "flexglove classify: error: the following arguments are required: centroids"),
            (["analyze", "d", "--out", "o", "--expected-frames", "x"],
             "flexglove analyze: error: argument --expected-frames: invalid int value: 'x'"),
            (["classify", "a", "b", "--bogus"], "flexglove classify: error: unrecognized arguments: --bogus"),
            (["--bogus", "classify", "a", "b"], "flexglove: error: unrecognized arguments: --bogus"),
        ],
        ids=["no-command", "unknown-command", "missing-positional", "non-int", "unknown-option", "leading-option"],
    )
    def test_rejected_line_exits_2_with_argparse_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prog = message.partition(": error: ")[0]
        assert captured.err.startswith(f"usage: {prog} [-h]")
        assert captured.err.endswith("\n" + message + "\n")
        assert "Traceback" not in captured.err

    def test_leading_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("-h")
        assert exc.value.code == 0
        assert "{characterize,simulate,analyze,classify}" in capsys.readouterr().out

    def test_analyze_manifest_is_unchanged(self, small_cohort_dir, tmp_path):
        out = tmp_path / "analysis"
        assert run("analyze", small_cohort_dir, "--out", out) == 0
        manifest = {
            "arguments": {
                "command": "analyze", "expected_frames": 100, "out": str(out), "sessions": str(small_cohort_dir),
            },
            "command": "analyze",
            "outputs": ["cohort.csv", "regression.csv", "discriminability.csv", "centroids.csv"],
            "tool": "flexglove",
            "version": "0.1.0",
        }
        assert (out / "manifest.json").read_text() == json.dumps(manifest, indent=2) + "\n"


def zero_sphere_users(tmp_path):
    return ["simulate", "--users-sphere", "0"]


def bend_below_sensor_minimum(tmp_path):
    # The sweep reaches 5 cm, below this sensor's tightest bend.
    config = tmp_path / "tight.cfg"
    config.write_text("d_tightest = 6.0\n")
    return ["characterize", "--config", config]


def single_user_cells(tmp_path):
    sessions = tmp_path / "solo"
    assert run(
        "simulate", "--out", sessions, "--users-sphere", "1", "--users-cylinder", "1", "--diameters", "6,8"
    ) == 0
    return ["analyze", sessions]


def spheres_only(tmp_path):
    # cohort.csv and regression.csv can be computed; discriminability cannot.
    sessions = tmp_path / "spheres"
    assert run(
        "simulate", "--out", sessions, "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,8"
    ) == 0
    for path in sessions.glob("cylinder_*.session"):
        path.unlink()
    return ["analyze", sessions]


def snapshot(directory):
    """Each file in ``directory`` by name with its bytes, or None when there is no directory."""
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else None


@pytest.mark.parametrize("earlier_run", [False, True])
@pytest.mark.parametrize(
    "failing, code",
    [
        (zero_sphere_users, 2), (later_user_negative_gain, 2), (overflowing_config, 2),
        (bend_below_sensor_minimum, 2), (single_user_cells, 4), (spheres_only, 4),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_failed_command_leaves_out_as_it_was(tmp_path, failing, code, earlier_run, small_cohort_dir):
    out = tmp_path / "out"
    if earlier_run:
        assert run("analyze", small_cohort_dir, "--out", out) == 0
    before = snapshot(out)
    assert run_quietly(*failing(tmp_path), "--out", out)[0] == code
    assert snapshot(out) == before


@pytest.mark.parametrize(
    "command",
    [
        lambda tmp_path, out: ["characterize", "--out", out],
        lambda tmp_path, out: ["simulate", "--out", out, "--users-sphere", "2", "--users-cylinder", "2", "--diameters", "6,8"],
        lambda tmp_path, out: ["analyze", tmp_path / "sessions", "--out", out],
    ],
    ids=["characterize", "simulate", "analyze"],
)
def test_manifest_lists_what_was_written(tmp_path, command, small_cohort_dir):
    out = tmp_path / "out"
    assert run_quietly(*command(tmp_path, out))[0] == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(outputs) == len(set(outputs))
    assert set(outputs) == {p.name for p in out.iterdir()} - {"manifest.json"}
