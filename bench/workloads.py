"""The benchmark's three workloads and the checks on everything they produce.

Each workload makes its inputs from the workload seed in a set-up step, then
runs closed-loop jobs: one caller, one thread, each command finished before
the next is sent.  Every command is `flexglove.cli.main(argv)` called
in-process.  After each job, outside its timing, every output is hashed and
checked, and the job's output directory is removed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import flexglove.cli
import flexglove.session_io
import flexglove.simulate
from flexglove.sensor import SensorConfig
from flexglove.session_io import read_session_file
from flexglove.simulate import DEFAULT_CYLINDER_USERS, DEFAULT_SPHERE_USERS, make_hand_profile, simulate_cohort
from flexglove.types import GraspObject, Shape, default_objects

# `record` and `replay` cycle over the published layout at seeds seed .. seed+2.
COHORTS = 3
# `analyze` also writes manifest.json, which holds absolute paths and is not checked.
ANALYZE_OUTPUTS = ("cohort.csv", "regression.csv", "discriminability.csv", "centroids.csv")
HEADER_LINES = 5


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("ascii") if isinstance(data, str) else data).hexdigest()


def session_name(session) -> str:
    """The file name `flexglove simulate` gives a session."""
    return f"{session.obj.shape.value}_{session.obj.diameter_cm:g}cm_{session.user_id}.session"


def hash_sessions(directory: Path) -> tuple[dict[str, str], int]:
    """Digest of every session file in ``directory``, and their total frame count."""
    digests, frames = {}, 0
    for path in sorted(directory.glob("*.session")):
        data = path.read_bytes()
        digests[path.name] = sha256(data)
        frames += data.count(b"\n") - HEADER_LINES
    return digests, frames


def matches_library(directory: Path, seed: int) -> bool:
    """Whether a `flexglove simulate --seed <seed>` output directory reads back
    as the cohorts `simulate_cohort` returns for that seed."""
    expected = {}
    for shape, users, prefix, shape_seed in (
        (Shape.SPHERE, DEFAULT_SPHERE_USERS, "s", seed),
        (Shape.CYLINDER, DEFAULT_CYLINDER_USERS, "c", seed + 1),
    ):
        for session in simulate_cohort(default_objects(shape), users, shape_seed, user_prefix=prefix):
            expected[session_name(session)] = session
    found = sorted(p.name for p in directory.glob("*.session"))
    return found == sorted(expected) and all(
        read_session_file(directory / name) == expected[name] for name in found
    )


class Checker:
    """Checks output digests, grouped by the input they came from.

    With ``golden`` (the committed seed-2020 digests) every digest must equal
    the committed one.  Without it, the first digest seen for an output is
    kept, after ``validate`` accepted it, and every later one must equal it.
    A group checked with ``complete`` must hold exactly the expected names.
    """

    def __init__(self, golden: dict[str, dict[str, str]] | None = None) -> None:
        self.golden = golden
        self.seen: dict[str, dict[str, str]] = {}
        self.mismatches: list[str] = []

    def check(self, group: str, digests: dict[str, str], complete: bool = False, validate=None) -> bool:
        if self.golden is not None:
            expected = self.golden.get(group, {})
        else:
            expected = self.seen.setdefault(group, {})
            first = not expected
            if complete and first and validate is not None and not validate():
                self.mismatches.append(f"{group}: differs from the library's result")
                return False
            for name, digest in digests.items():
                if first or not complete:
                    expected.setdefault(name, digest)
        names_ok = set(digests) == set(expected) if complete else set(digests) <= set(expected)
        wrong = sorted(name for name, digest in digests.items() if expected.get(name) != digest)
        if names_ok and not wrong:
            return True
        shown = ", ".join(wrong[:3]) + (f" and {len(wrong) - 3} more" if len(wrong) > 3 else "")
        self.mismatches.append(f"{group}: {shown or 'file set differs'}")
        return False


@dataclass
class Command:
    kind: str  # the CLI command: simulate, analyze or classify
    code: int
    seconds: float
    stdout: str
    ok: bool = False  # exit code 0 and every output checked


@dataclass
class Context:
    seed: int
    work: Path
    checker: Checker
    tracer: object = None  # a layers.Tracer while a traced step runs

    def run(self, *argv) -> Command:
        """Run `flexglove <argv>` in-process and time it."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                # Looked up on each call, so a traced step sees the wrapper.
                code = flexglove.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.settle()
        return Command(argv[0], code, seconds, out.getvalue())


def check_analysis(ctx: Context, group: str, command: Command, out: Path) -> None:
    digests = {name: sha256((out / name).read_bytes()) for name in ANALYZE_OUTPUTS if (out / name).is_file()}
    command.ok = command.code == 0 and ctx.checker.check(group, digests, complete=True)


def check_classify(ctx: Context, group: str, names: list[str], commands: list[Command]) -> None:
    for name, command in zip(names, commands):
        command.ok = command.code == 0 and ctx.checker.check(group, {name: sha256(command.stdout)})


class Record:
    """Write side: `simulate` of the published layout (201 sessions, 20,100
    frames) at seed, seed+1, seed+2 in turn, then `classify` of five of the
    written sessions against centroids made in set-up."""

    name = "record"
    cycle = COHORTS
    classified = [
        "cylinder_6cm_c01.session",
        "cylinder_16cm_c08.session",
        "sphere_6cm_s01.session",
        "sphere_9cm_s03.session",
        "sphere_16cm_s11.session",
    ]

    def generate(self, ctx: Context, dest: Path) -> list[Command]:
        return [
            ctx.run("simulate", "--seed", ctx.seed, "--out", dest / "train"),
            ctx.run("analyze", dest / "train", "--out", dest / "model"),
        ]

    def prepare(self, ctx: Context, dest: Path, commands: list[Command]) -> bool:
        """Check the set-up outputs; True when all are correct."""
        simulate, analyze = commands
        digests, _ = hash_sessions(dest / "train")
        simulate.ok = simulate.code == 0 and ctx.checker.check(
            "cohort/0", digests, complete=True, validate=lambda: matches_library(dest / "train", ctx.seed)
        )
        check_analysis(ctx, "replay-analyze/0", analyze, dest / "model")
        self.centroids = dest / "model" / "centroids.csv"
        return simulate.ok and analyze.ok

    def job(self, ctx: Context, i: int) -> list[Command]:
        out = ctx.work / "out"
        commands = [ctx.run("simulate", "--seed", ctx.seed + i % COHORTS, "--out", out)]
        commands += [ctx.run("classify", out / name, self.centroids) for name in self.classified]
        return commands

    def verify(self, ctx: Context, i: int, commands: list[Command]) -> int:
        """Check the job's outputs; return the frames it wrote."""
        k, out = i % COHORTS, ctx.work / "out"
        simulate = commands[0]
        digests, frames = hash_sessions(out)
        simulate.ok = simulate.code == 0 and ctx.checker.check(
            f"cohort/{k}", digests, complete=True, validate=lambda: matches_library(out, ctx.seed + k)
        )
        check_classify(ctx, f"record-classify/{k}", self.classified, commands[1:])
        shutil.rmtree(out, ignore_errors=True)
        return frames


class Replay:
    """Read side: `analyze` of one of three published-layout cohorts written in
    set-up, then `classify` of each of its 201 sessions (21 centroids)."""

    name = "replay"
    cycle = COHORTS

    def generate(self, ctx: Context, dest: Path) -> list[Command]:
        return [
            ctx.run("simulate", "--seed", ctx.seed + k, "--out", dest / f"cohort{k}") for k in range(COHORTS)
        ]

    def prepare(self, ctx: Context, dest: Path, commands: list[Command]) -> bool:
        """Check the set-up outputs; True when all are correct."""
        self.cohorts = []
        for k, command in enumerate(commands):
            directory = dest / f"cohort{k}"
            digests, frames = hash_sessions(directory)
            command.ok = command.code == 0 and ctx.checker.check(
                f"cohort/{k}", digests, complete=True,
                validate=lambda: matches_library(directory, ctx.seed + k),
            )
            self.cohorts.append((directory, sorted(digests), frames))
        return all(command.ok for command in commands)

    def job(self, ctx: Context, i: int) -> list[Command]:
        directory, names, _ = self.cohorts[i % COHORTS]
        out = ctx.work / "analysis"
        commands = [ctx.run("analyze", directory, "--out", out)]
        commands += [ctx.run("classify", directory / name, out / "centroids.csv") for name in names]
        return commands

    def verify(self, ctx: Context, i: int, commands: list[Command]) -> int:
        """Check the job's outputs; return the frames it read."""
        k, out = i % COHORTS, ctx.work / "analysis"
        _, names, frames = self.cohorts[k]
        check_analysis(ctx, f"replay-analyze/{k}", commands[0], out)
        check_classify(ctx, f"replay-classify/{k}", names, commands[1:])
        shutil.rmtree(out, ignore_errors=True)
        return 2 * frames  # analyze reads every session, and so do the classify commands


class Sweep:
    """Many short captures: 20 users per shape x 41 diameters (6-16 cm in
    0.25 cm steps) x 4 frames = 1,640 sessions written in set-up through the
    library.  Each job runs `analyze --expected-frames 4` (410 cells), then
    `classify` of one session per (shape, diameter) against 82 centroids."""

    name = "sweep"
    cycle = 1
    users = 20
    diameters = [6 + 0.25 * k for k in range(41)]
    frames = 4

    def generate(self, ctx: Context, dest: Path) -> list[Command]:
        dest.mkdir(parents=True)
        sensor = SensorConfig()
        master = random.Random(ctx.seed)
        for shape, prefix in ((Shape.SPHERE, "s"), (Shape.CYLINDER, "c")):
            profiles = [make_hand_profile(f"{prefix}{u + 1:02d}", master.getrandbits(32)) for u in range(self.users)]
            for profile in profiles:
                for d in self.diameters:
                    # Module attributes, so that a traced set-up is traced.
                    session = flexglove.simulate.simulate_session(
                        GraspObject(shape, d), profile, sensor, master.getrandbits(32), n_frames=self.frames
                    )
                    flexglove.session_io.write_session_file(session, dest / session_name(session))
        return []

    def prepare(self, ctx: Context, dest: Path, commands: list[Command]) -> bool:
        """Check the set-up outputs; True when all are correct."""
        digests, self.input_frames = hash_sessions(dest)
        self.directory = dest
        self.subset = [
            f"{shape.value}_{d:g}cm_{prefix}{n % self.users + 1:02d}.session"
            for shape, prefix in ((Shape.SPHERE, "s"), (Shape.CYLINDER, "c"))
            for n, d in enumerate(self.diameters)
        ]
        return ctx.checker.check("sweep-inputs", {"all": sha256(json.dumps(digests, sort_keys=True))})

    def job(self, ctx: Context, i: int) -> list[Command]:
        out = ctx.work / "analysis"
        frames_flag = ("--expected-frames", self.frames)
        commands = [ctx.run("analyze", self.directory, "--out", out, *frames_flag)]
        commands += [
            ctx.run("classify", self.directory / name, out / "centroids.csv", *frames_flag) for name in self.subset
        ]
        return commands

    def verify(self, ctx: Context, i: int, commands: list[Command]) -> int:
        """Check the job's outputs; return the frames it read."""
        out = ctx.work / "analysis"
        check_analysis(ctx, "sweep-analyze", commands[0], out)
        check_classify(ctx, "sweep-classify", self.subset, commands[1:])
        shutil.rmtree(out, ignore_errors=True)
        return self.input_frames + self.frames * len(self.subset)


WORKLOADS = {cls.name: cls for cls in (Record, Replay, Sweep)}
