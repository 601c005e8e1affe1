import csv
import json

import pytest

from flexglove.cli import main


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

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("characterize", "--out", a, "--seed", "3") == 0
        assert run("characterize", "--out", b, "--seed", "3") == 0
        for name in ("sweep.csv", "stability.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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
        from flexglove.simulate import DEFAULT_PROFILE_TABLE, format_profile_table

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

    def test_single_user_is_precondition_violation(self, tmp_path):
        out = tmp_path / "solo"
        assert run(
            "simulate", "--out", out, "--seed", "5",
            "--users-sphere", "1", "--users-cylinder", "1", "--diameters", "6,8",
        ) == 0
        assert run("analyze", out, "--out", tmp_path / "a") == 4

    def test_corrupt_session_is_parse_error(self, small_cohort_dir, tmp_path, capsys):
        bad = small_cohort_dir / "bad.session"
        bad.write_bytes(b"# schema=1\n# user=x\n# shape=sphere\n# diameter_cm=8\n# period_ms=50\n1,2\n")
        assert run("analyze", small_cohort_dir, "--out", tmp_path / "a") == 3
        assert "MalformedFrame" in capsys.readouterr().err
        bad.unlink()

    def test_non_finite_diameter_is_parse_error(self, small_cohort_dir, tmp_path, capsys):
        bad = small_cohort_dir / "inf.session"
        bad.write_bytes(b"# schema=1\n# user=x\n# shape=sphere\n# diameter_cm=inf\n# period_ms=50\n")
        assert run("analyze", small_cohort_dir, "--out", tmp_path / "a") == 3
        assert "MalformedHeader: line 4: diameter must be finite" in capsys.readouterr().err
        bad.unlink()


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

    def test_non_ascii_centroid_file_is_argument_error(self, small_cohort_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("kind,shape,diameter_cm,thumb,index,middle,ring,pinky\ncentroid,sph\u00e9re\n".encode())
        session = sorted(small_cohort_dir.glob("*.session"))[0]
        assert run("classify", session, bad) == 2
        assert "ArgumentError: centroid file is not ASCII" in capsys.readouterr().err


class TestExitCodes:
    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run("characterize", "--out", blocker / "sub") == 5

    def test_missing_session_file_is_io_error(self, tmp_path):
        assert run("classify", tmp_path / "nope.session", tmp_path / "c.csv") == 5
