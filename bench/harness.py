"""Benchmark harness: set-up, timed phases, metrics and the result line.

Imported by run.py once the checkout's src/ is on the import path.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import Tracer, installed, layer_metrics, span_table
from workloads import WORKLOADS, Checker, Context

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_SEED = 2020
GOLDEN_FILE = BENCH / "golden_2020.json"
SETUP_REPEATS = 3
PROBE_REPEATS = 5
REFERENCE_REPEATS = 3
# setup_s is given in nominal seconds: seconds on a host where one
# reference_work() takes 1 ms.  The 2-vCPU VM the benchmark was built on
# took 1.1 to 1.6 ms.
NOMINAL_REF_SECONDS = 0.001
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import flexglove.cli; print(time.perf_counter() - start)"
)


def reference_work() -> list[float]:
    """A fixed pure-Python computation of the program's kind (random draws,
    formatting, splitting, integer parsing, means) that no program change
    alters.  Its time tracks the host's speed from moment to moment."""
    rng = random.Random(12345)
    lines = [",".join(str(rng.randint(0, 1023)) for _ in range(6)) for _ in range(150)]
    columns = zip(*([int(field) for field in line.split(",")] for line in lines))
    return [statistics.fmean(column) for column in columns]


def reference_seconds() -> float:
    """Median time of three reference computations.  The cyclic garbage
    collector is off meanwhile, so the program's heap does not change it."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


@dataclass
class Job:
    seconds: float
    frames: int
    commands: list[tuple[str, float]]  # (CLI command, seconds)
    ref: float  # mean reference time measured just before and just after the job


@dataclass
class Phase:
    """The timed loop of one run: jobs until `seconds` of job time and whole cycles."""

    jobs: list[Job] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def busy(self) -> float:
        return sum(job.seconds for job in self.jobs)

    def frames_per_s(self) -> float:
        return sum(job.frames for job in self.jobs) / self.busy()

    def frames_per_ref(self) -> float:
        return sum(job.frames for job in self.jobs) / sum(job.seconds / job.ref for job in self.jobs)

    def _timed(self, kind: str):
        """(job, seconds) of each command of one kind: "batch" (simulate,
        analyze) or "classify"."""
        for job in self.jobs:
            for command, seconds in job.commands:
                if (command == "classify") == (kind == "classify"):
                    yield job, seconds

    def seconds(self, kind: str) -> list[float]:
        return [seconds for _, seconds in self._timed(kind)]

    def refs(self, kind: str) -> list[float]:
        """The same times, each in units of its job's reference time."""
        return [seconds / job.ref for job, seconds in self._timed(kind)]


@contextlib.contextmanager
def tracing(ctx, tracer):
    """Trace the block's calls into the program (no-op for tracer None)."""
    ctx.tracer = tracer
    try:
        with installed(tracer):
            yield
    finally:
        ctx.tracer = None


def run_phase(workload, ctx, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    before = reference_seconds()
    while phase.busy() < seconds or len(phase.jobs) % workload.cycle:
        i = len(phase.jobs)
        with tracing(ctx, tracer):
            start = time.perf_counter()
            commands = workload.job(ctx, i)
            elapsed = time.perf_counter() - start
        after = reference_seconds()
        frames = workload.verify(ctx, i, commands)
        phase.jobs.append(Job(elapsed, frames, [(c.kind, c.seconds) for c in commands], (before + after) / 2))
        phase.attempted += len(commands)
        phase.failed += sum(not c.ok for c in commands)
        before = after
    return phase


def probe_seconds(argv: list[str], report_own_time: bool) -> list[tuple[float, float]]:
    """Run fresh interpreters; for each, the time it reports (or its wall
    time) and the reference time measured around it."""
    samples = []
    before = reference_seconds()
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        after = reference_seconds()
        samples.append((float(done.stdout) if report_own_time else wall, (before + after) / 2))
        before = after
    return samples


def import_seconds() -> list[tuple[float, float]]:
    return probe_seconds([sys.executable, "-c", IMPORT_PROBE, str(SRC)], report_own_time=True)


def interpreter_seconds() -> list[tuple[float, float]]:
    return probe_seconds([sys.executable, "-c", "pass"], report_own_time=False)


def wall_median(samples: list[tuple[float, float]]) -> float:
    return statistics.median(seconds for seconds, _ in samples)


def nominal_median(samples: list[tuple[float, float]]) -> float:
    """Median time in nominal seconds: each time divided by its reference,
    times the nominal reference time."""
    return NOMINAL_REF_SECONDS * statistics.median(seconds / ref for seconds, ref in samples)


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, ctx, base: Path, repeats: int, tracer=None):
    """Generate the inputs ``repeats`` times; keep and check the first copy.

    Returns ((seconds, reference) of each generation, set-up commands,
    set-up correct).
    """
    times, kept = [], None
    before = reference_seconds()
    for r in range(repeats):
        dest = base / f"setup{r}"
        with tracing(ctx, tracer):
            start = time.perf_counter()
            commands = workload.generate(ctx, dest)
            elapsed = time.perf_counter() - start
        after = reference_seconds()
        times.append((elapsed, (before + after) / 2))
        before = after
        if kept is None:
            kept = (dest, commands)
        else:
            shutil.rmtree(dest)
    if tracer is not None:
        tracer.settle()
    dest, commands = kept
    ok = workload.prepare(ctx, dest, commands)
    return times, commands, ok


def tally(setup_commands, phases) -> tuple[int, int]:
    """Commands attempted and commands failed, set-up included."""
    attempted = len(setup_commands) + sum(p.attempted for p in phases)
    failed = sum(not c.ok for c in setup_commands) + sum(p.failed for p in phases)
    return attempted, failed


def wall_clock_metrics(phase: Phase) -> dict[str, tuple[float, str]]:
    """The phase's figures in wall-clock units, not divided by the reference."""
    batch, classify = phase.seconds("batch"), phase.seconds("classify")
    return {
        "frames_per_s": (phase.frames_per_s(), "1/s"),
        "batch_ms_p50": (statistics.median(batch) * 1e3, "ms"),
        "classify_ms_p50": (statistics.median(classify) * 1e3, "ms"),
        "classify_ms_p99": (p99(classify) * 1e3, "ms"),
        "batch_samples": (len(batch), "count"),
        "classify_samples": (len(classify), "count"),
        "ref_ms": (statistics.median(job.ref for job in phase.jobs) * 1e3, "ms"),
    }


def plain_run(workload, ctx, base: Path, seconds: float):
    """End-to-end metrics: set-up several times, then one timed phase."""
    setup_times, setup_commands, setup_ok = set_up(workload, ctx, base, SETUP_REPEATS)
    imports = import_seconds()
    phase = run_phase(workload, ctx, seconds)
    print(
        f"info jobs={len(phase.jobs)} setup_wall_s={wall_median(imports) + wall_median(setup_times):.6f} "
        f"import_s={[round(t, 6) for t, _ in imports]} generate_s={[round(t, 6) for t, _ in setup_times]}"
    )
    for name, (value, unit) in wall_clock_metrics(phase).items():
        print(f"info {name} {value:.6f} {unit}")
    metrics = {
        "setup_s": (nominal_median(imports) + nominal_median(setup_times), "s"),
        "frames_per_ref": (phase.frames_per_ref(), "1/ref"),
        "batch_ref_p50": (statistics.median(phase.refs("batch")), "ref"),
        "classify_ref_p50": (statistics.median(phase.refs("classify")), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, setup_commands, setup_ok, [phase]


def traced_run(workload, ctx, base: Path, seconds: float):
    """Per-layer metrics: a traced set-up, then half the time plain and half traced."""
    tracer = Tracer()
    _, setup_commands, setup_ok = set_up(workload, ctx, base, 1, tracer)
    plain = run_phase(workload, ctx, seconds / 2)
    before = tracer.snapshot()
    traced = run_phase(workload, ctx, seconds / 2, tracer)
    print("\n".join(span_table(tracer)))
    attempted, failed = tally(setup_commands, [plain, traced])
    metrics = {
        "cli.interpreter_ms": (wall_median(interpreter_seconds()) * 1e3, "ms"),
        "cli.import_ms": (wall_median(import_seconds()) * 1e3, "ms"),
        **layer_metrics(tracer, before, len(traced.jobs)),
        **wall_clock_metrics(plain),
        "ops_failed_ratio": (failed / attempted, "ratio"),
        "trace.frames_per_s": (traced.frames_per_s(), "1/s"),
        "trace.overhead_pct": ((plain.frames_per_ref() / traced.frames_per_ref() - 1) * 100, "%"),
    }
    return metrics, setup_commands, setup_ok, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flexglove benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    golden = json.loads(GOLDEN_FILE.read_text())["digests"] if args.seed == GOLDEN_SEED else None
    workload = WORKLOADS[args.workload]()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(seed=args.seed, work=base / "jobs", checker=Checker(golden))
    ctx.work.mkdir()
    print("stamp", json.dumps(stamp(args), sort_keys=True))
    try:
        run = traced_run if args.trace else plain_run
        metrics, setup_commands, setup_ok, phases = run(workload, ctx, base, args.seconds)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    attempted, failed = tally(setup_commands, phases)
    for mismatch in ctx.checker.mismatches:
        print("mismatch", mismatch)
    print(f"ops_failed_ratio {failed / attempted:.6f} ({failed} of {attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
