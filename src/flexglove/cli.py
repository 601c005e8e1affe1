"""Command-line front end.

Commands:
    characterize   single-sensor ring sweep + fixed-diameter stability stream
    simulate       write a cohort of session files
    analyze        cohort table, regression, discriminability, centroid CSVs
    classify       assign one session file to the nearest centroid

characterize, simulate and analyze each write a manifest.json next to their
outputs; re-running the recorded command reproduces the outputs byte for byte.
classify writes no files: it prints its verdict.  Exit codes: 0 ok, and each
error class's exit_code (2 argument error, 3 parse error, 4 precondition
violation); 5 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from . import __version__
from .classify import build_centroids, centroids_from_csv, centroids_to_csv, classify_session, discriminability
from .errors import ArgumentError, GloveError, ParseError, read_ascii
from .sensor import SensorConfig, clean_adc_at_diameter, noise_draws, parse_config, sample_with_noise
from .session_io import read_session_file, write_session_file
from .simulate import (
    DEFAULT_CYLINDER_USERS,
    DEFAULT_SPHERE_USERS,
    parse_profile_table,
    seeded_random,
    simulate_cohort,
)
from .stats import build_cohort, check_expected_frames, cohort_fits, summarize
from .types import DEFAULT_FRAME_COUNT, FINGERS, GraspObject, GraspSession, Shape, default_objects

DEFAULT_SEED = 2020

SWEEP_START_CM = 22
SWEEP_END_CM = 5
SWEEP_TRIALS = 5
STABILITY_SAMPLES = 1000
STABILITY_DIAMETER_CM = 12.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    # No field this program writes holds a comma, so none needs quoting.
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _write_manifest(out_dir: Path, args: argparse.Namespace, outputs: list[str]) -> None:
    manifest = {
        "tool": "flexglove",
        "version": __version__,
        "command": args.command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
        "outputs": outputs,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="ascii")


def _sensor_from_args(args: argparse.Namespace) -> SensorConfig:
    return SensorConfig() if args.config is None else parse_config(read_ascii(args.config, "config file"))


def _out_dir(args: argparse.Namespace) -> Path:
    """Create --out.  Each command calls this only once every output is
    computed, so a command that fails leaves --out as it was.  An empty
    --out would be the working directory, so it is an error."""
    if not args.out:
        raise ArgumentError("--out names no directory")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_outputs(args: argparse.Namespace, texts: dict[str, str]) -> None:
    """Create --out, write each text under its file name, then the manifest
    listing those names in order."""
    out = _out_dir(args)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="ascii", newline="")
    _write_manifest(out, args, list(texts))


def cmd_characterize(args: argparse.Namespace) -> None:
    rng = seeded_random(args.seed)
    sensor = _sensor_from_args(args)
    diameters = range(SWEEP_START_CM, SWEEP_END_CM - 1, -1)
    # One draw: SWEEP_TRIALS offsets per diameter from the widest bend down,
    # then the stability stream.
    n_sweep = SWEEP_TRIALS * len(diameters)
    draws = noise_draws(rng, sensor, n_sweep + STABILITY_SAMPLES)

    sweep_rows = []
    for i, d in enumerate(diameters):
        clean = clean_adc_at_diameter(float(d), sensor)
        trials = sample_with_noise(clean, draws[i * SWEEP_TRIALS:(i + 1) * SWEEP_TRIALS], sensor)
        st = summarize(trials)
        sweep_rows.append([str(d), _fmt(st.mean), _fmt(st.sem), str(st.n)])
    clean = clean_adc_at_diameter(STABILITY_DIAMETER_CM, sensor)
    stability_rows = [
        [str(i), str(v)] for i, v in enumerate(sample_with_noise(clean, draws[n_sweep:], sensor))
    ]

    _write_outputs(args, {
        "sweep.csv": _csv(["diameter_cm", "adc_mean", "adc_sem", "n_trials"], sweep_rows),
        "stability.csv": _csv(["sample_index", "adc"], stability_rows),
    })


def _same_spelling(diameters: list[float]) -> tuple[int, int] | None:
    """The indices (j, i), j < i, of the first diameter whose {:g} form, the
    spelling of session file names and output rows, repeats an earlier one."""
    first: dict[str, int] = {}
    for i, d in enumerate(diameters):
        j = first.setdefault(f"{d:g}", i)
        if j != i:
            return j, i
    return None


def _parse_diameters(text: str) -> list[float]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        diameters = list(map(float, parts))
    except ValueError:
        raise ArgumentError(f"bad --diameters value {text!r}") from None
    if not diameters:
        raise ArgumentError("--diameters lists no diameters")
    clash = _same_spelling(diameters)
    if clash is not None:
        j, i = clash
        raise ArgumentError(f"--diameters {parts[j]} and {parts[i]} both name {diameters[i]:g}cm session files")
    return diameters


def cmd_simulate(args: argparse.Namespace) -> None:
    sensor = _sensor_from_args(args)
    table = (
        None if args.profile_table is None else parse_profile_table(read_ascii(args.profile_table, "profile table"))
    )
    diameters = None if args.diameters is None else _parse_diameters(args.diameters)

    # Each call raises any error its sessions could raise, before --out is
    # created; the sessions are then simulated, written and dropped one at a time.
    cohorts = []
    for shape, n_users, prefix, seed in (
        (Shape.SPHERE, args.users_sphere, "s", args.seed),
        (Shape.CYLINDER, args.users_cylinder, "c", args.seed + 1),
    ):
        objects = [GraspObject(shape, d) for d in diameters] if diameters else default_objects(shape)
        cohorts.append(simulate_cohort(objects, n_users, seed, sensor, table, user_prefix=prefix))

    out = _out_dir(args)
    names = []
    for sessions in cohorts:
        for session in sessions:
            name = (
                f"{session.obj.shape.value}_{session.obj.diameter_cm:g}cm_{session.user_id}.session"
            )
            write_session_file(session, out / name)
            names.append(name)
    _write_manifest(out, args, sorted(names))
    print(f"wrote {len(names)} session files to {out}")


def _read_sessions(session_dir: Path, names: list[str]) -> Iterator[GraspSession]:
    """Each named session file of ``session_dir`` in turn, read as it is
    asked for, so that build_cohort holds one session at a time.  A
    ParseError names the file."""
    prefix = os.path.join(session_dir, "")
    for name in names:
        try:
            yield read_session_file(prefix + name)
        except ParseError as exc:
            exc.args = (f"{name}: {exc}",)
            raise


def cmd_analyze(args: argparse.Namespace) -> None:
    check_expected_frames(args.expected_frames)
    if not args.sessions:
        raise ArgumentError("the sessions argument names no directory")
    session_dir = Path(args.sessions)
    # One listing and plain strings: a Path per entry costs more than the
    # listing itself.  A missing path or a non-directory holds no sessions.
    try:
        names = sorted(name for name in os.listdir(session_dir) if name.endswith(".session"))
    except (FileNotFoundError, NotADirectoryError):
        names = []
    if not names:
        raise ArgumentError(f"no .session files in {session_dir}")
    table = build_cohort(_read_sessions(session_dir, names), expected_frames=args.expected_frames)
    centroids = build_centroids(table)
    # Two diameters of one spelling would write centroid rows that classify rejects.
    for shape in sorted(Shape):
        diameters = [c.diameter_cm for c in centroids if c.shape is shape]
        clash = _same_spelling(diameters)
        if clash is not None:
            j, i = clash
            raise ArgumentError(
                f"{shape.value} sessions at {diameters[j]!r} cm and {diameters[i]!r} cm "
                f"both write as {diameters[i]:g} cm"
            )
    cohort_rows = [
        [shape.value, f"{d:g}", finger, _fmt(st.mean), _fmt(st.sem), str(st.n)]
        for (shape, d, finger), st in table.summary.items()
    ]
    fit_rows = [
        [shape.value, finger, name, _fmt(fit.slope), _fmt(fit.intercept), _fmt(fit.r2), str(n)]
        for shape, finger, name, fit, n in cohort_fits(table)
    ]
    disc_rows = [
        [f"{v.diameter_cm:g}", *(str(v.overlap_by_finger[f]).lower() for f in FINGERS), str(v.discriminable).lower()]
        for v in discriminability(table)
    ]

    _write_outputs(args, {
        "cohort.csv": _csv(["shape", "diameter_cm", "finger", "mean", "sem", "n"], cohort_rows),
        "regression.csv": _csv(
            ["shape", "finger", "fit_range", "slope_per_cm", "intercept", "r2", "n_points"], fit_rows
        ),
        "discriminability.csv": _csv(
            ["diameter_cm"] + [f"{f}_overlap" for f in FINGERS] + ["discriminable"], disc_rows
        ),
        "centroids.csv": centroids_to_csv(centroids, table.raw_scale),
    })


def cmd_classify(args: argparse.Namespace) -> None:
    check_expected_frames(args.expected_frames)
    session = read_session_file(args.session)
    centroids, context = centroids_from_csv(read_ascii(args.centroids, "centroid file"))
    shape, diameter, distance = classify_session(
        session, centroids, context, expected_frames=args.expected_frames
    )
    print(f"shape={shape.value} diameter_cm={diameter:g} distance={distance:.6f}")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by name."""
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
    p.add_argument("--expected-frames", type=int, default=DEFAULT_FRAME_COUNT)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="classify one session against saved centroids")
    p.add_argument("session", help="session file")
    p.add_argument("centroids", help="centroid CSV from analyze")
    p.add_argument("--expected-frames", type=int, default=DEFAULT_FRAME_COUNT)
    p.set_defaults(func=cmd_classify)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A line that starts with a command name is parsed once, by that
    # command's parser.  The top-level parser takes the rest: no command, an
    # unknown one, or a leading option such as -h.
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        args.func(args)
    except GloveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
