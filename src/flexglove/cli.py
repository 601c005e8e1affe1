"""Command-line front end.

Commands:
    characterize   single-sensor ring sweep + fixed-diameter stability stream
    simulate       write a cohort of session files
    analyze        cohort table, regression, discriminability, centroid CSVs
    classify       assign one session file to the nearest centroid

Every command writes a manifest.json next to its outputs; re-running the
recorded command reproduces the outputs byte for byte.  Exit codes: 0 ok,
2 argument error, 3 parse error, 4 precondition violation, 5 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

from . import __version__
from .classify import build_centroids, centroids_from_csv, centroids_to_csv, classify_session, discriminability, scale_context
from .errors import ArgumentError, DegenerateRange, GloveError, ParseError, PreconditionViolation
from .sensor import SensorConfig, clean_adc_at_diameter, load_config, sample_with_noise
from .session_io import read_session_file, write_session_file
from .simulate import (
    DEFAULT_CYLINDER_USERS,
    DEFAULT_SPHERE_USERS,
    load_profile_table,
    simulate_cohort,
)
from .stats import build_cohort, cohort_fits, sem
from .types import FINGERS, GraspObject, Shape, default_objects

DEFAULT_SEED = 2020

SWEEP_START_CM = 22
SWEEP_END_CM = 5
SWEEP_TRIALS = 5
STABILITY_SAMPLES = 1000
STABILITY_DIAMETER_CM = 12.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace, outputs: list[str]) -> None:
    manifest = {
        "tool": "flexglove",
        "version": __version__,
        "command": command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sensor_from_args(args: argparse.Namespace) -> SensorConfig:
    return load_config(args.config) if args.config else SensorConfig()


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_characterize(args: argparse.Namespace) -> int:
    sensor = _sensor_from_args(args)
    out = _out_dir(args)
    rng = random.Random(args.seed)

    sweep_rows = []
    for d in range(SWEEP_START_CM, SWEEP_END_CM - 1, -1):
        clean = clean_adc_at_diameter(float(d), sensor)
        trials = [sample_with_noise(clean, rng, sensor) for _ in range(SWEEP_TRIALS)]
        sweep_rows.append(
            [str(d), _fmt(sum(trials) / len(trials)), _fmt(sem(trials)), str(len(trials))]
        )
    _write_csv(out / "sweep.csv", ["diameter_cm", "adc_mean", "adc_sem", "n_trials"], sweep_rows)

    clean = clean_adc_at_diameter(STABILITY_DIAMETER_CM, sensor)
    stability_rows = [
        [str(i), str(sample_with_noise(clean, rng, sensor))] for i in range(STABILITY_SAMPLES)
    ]
    _write_csv(out / "stability.csv", ["sample_index", "adc"], stability_rows)

    _write_manifest(out, "characterize", args, ["sweep.csv", "stability.csv"])
    return 0


def _parse_diameters(text: str) -> list[float]:
    try:
        diameters = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ArgumentError(f"bad --diameters value {text!r}") from None
    if not diameters:
        raise ArgumentError("--diameters lists no diameters")
    return diameters


def cmd_simulate(args: argparse.Namespace) -> int:
    sensor = _sensor_from_args(args)
    table = load_profile_table(args.profile_table) if args.profile_table else None
    out = _out_dir(args)

    cohorts = []
    for shape, n_users, prefix, seed in (
        (Shape.SPHERE, args.users_sphere, "s", args.seed),
        (Shape.CYLINDER, args.users_cylinder, "c", args.seed + 1),
    ):
        if args.diameters:
            objects = [GraspObject(shape, d) for d in _parse_diameters(args.diameters)]
        else:
            objects = default_objects(shape)
        cohorts.append(simulate_cohort(objects, n_users, seed, sensor, table, user_prefix=prefix))

    names = []
    for sessions in cohorts:
        for session in sessions:
            name = (
                f"{session.obj.shape.value}_{session.obj.diameter_cm:g}cm_{session.user_id}.session"
            )
            write_session_file(session, out / name)
            names.append(name)
    _write_manifest(out, "simulate", args, sorted(names))
    print(f"wrote {len(names)} session files to {out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    session_dir = Path(args.sessions)
    paths = sorted(session_dir.glob("*.session"))
    if not paths:
        raise ArgumentError(f"no .session files in {session_dir}")
    sessions = [read_session_file(p) for p in paths]
    out = _out_dir(args)

    table = build_cohort(sessions, expected_frames=args.expected_frames)
    cohort_rows = []
    for key in table.cells():
        shape, d, finger = key
        st = table.stats(key)
        cohort_rows.append(
            [shape.value, f"{d:g}", finger, _fmt(st.mean), _fmt(st.sem), str(st.n)]
        )
    _write_csv(
        out / "cohort.csv", ["shape", "diameter_cm", "finger", "mean", "sem", "n"], cohort_rows
    )

    fit_rows = [
        [shape.value, finger, name, _fmt(fit.slope), _fmt(fit.intercept), _fmt(fit.r2), str(n)]
        for shape, finger, name, fit, n in cohort_fits(table)
    ]
    _write_csv(
        out / "regression.csv",
        ["shape", "finger", "fit_range", "slope_per_cm", "intercept", "r2", "n_points"],
        fit_rows,
    )

    report = discriminability(table)
    disc_rows = []
    for verdict in report.verdicts:
        disc_rows.append(
            [f"{verdict.diameter_cm:g}"]
            + [str(verdict.overlap_by_finger[f]).lower() for f in FINGERS]
            + [str(verdict.discriminable).lower()]
        )
    _write_csv(
        out / "discriminability.csv",
        ["diameter_cm"] + [f"{f}_overlap" for f in FINGERS] + ["discriminable"],
        disc_rows,
    )

    with open(out / "centroids.csv", "w", newline="", encoding="ascii") as fh:
        fh.write(centroids_to_csv(build_centroids(table), scale_context(table)))

    _write_manifest(
        out,
        "analyze",
        args,
        ["cohort.csv", "regression.csv", "discriminability.csv", "centroids.csv"],
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    session = read_session_file(args.session)
    try:
        with open(args.centroids, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"centroid file is not ASCII: {exc}") from None
    centroids, context = centroids_from_csv(text)
    shape, diameter, distance = classify_session(
        session, centroids, context, expected_frames=args.expected_frames
    )
    print(f"shape={shape.value} diameter_cm={diameter:g} distance={distance:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexglove", description="flex-sensor glove simulator and analysis pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="single-sensor ring sweep and stability stream")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--config", help="sensor config file (key = value text)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("simulate", help="write a simulated cohort of session files")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--config", help="sensor config file")
    p.add_argument("--out", required=True)
    p.add_argument("--users-sphere", type=int, default=DEFAULT_SPHERE_USERS)
    p.add_argument("--users-cylinder", type=int, default=DEFAULT_CYLINDER_USERS)
    p.add_argument("--diameters", help="comma list overriding both shapes' diameter sweeps")
    p.add_argument("--profile-table", help="hand profile table file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="summarize a directory of session files")
    p.add_argument("sessions", help="directory of .session files")
    p.add_argument("--out", required=True)
    p.add_argument("--expected-frames", type=int, default=100)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="classify one session against saved centroids")
    p.add_argument("session", help="session file")
    p.add_argument("centroids", help="centroid CSV from analyze")
    p.add_argument("--expected-frames", type=int, default=100)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (PreconditionViolation, DegenerateRange) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 5
    except GloveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
