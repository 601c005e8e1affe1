"""Regenerate bench/golden_2020.json, the seed-2020 sha256 digests of every
output the benchmark checks.

    python3 bench/golden.py

Runs each workload's set-up and one full cycle of its jobs at seed 2020.
Every `simulate` output is first checked to read back as the library's own
`simulate_cohort` result.  Regenerate only when a change of output is
intended, and say so in the change that commits the new file.
"""
import json
import shutil
import tempfile
from pathlib import Path

from run import use_checkout_sources

use_checkout_sources()

from harness import GOLDEN_FILE, GOLDEN_SEED, ROOT, set_up  # noqa: E402
from workloads import WORKLOADS, Checker, Context  # noqa: E402


def main() -> int:
    checker = Checker()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="golden-", dir=ROOT / ".bench_work"))
    try:
        for workload in (cls() for cls in WORKLOADS.values()):
            ctx = Context(seed=GOLDEN_SEED, work=base / workload.name / "jobs", checker=checker)
            ctx.work.mkdir(parents=True)
            _, _, ok = set_up(workload, ctx, base / workload.name, 1)
            for i in range(workload.cycle):
                commands = workload.job(ctx, i)
                workload.verify(ctx, i, commands)
                ok = ok and all(command.ok for command in commands)
            if not ok:
                print(f"{workload.name}: outputs failed their checks: {checker.mismatches}")
                return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    golden = {"seed": GOLDEN_SEED, "digests": checker.seen}
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(g) for g in checker.seen.values())} digests to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
