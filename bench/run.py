"""flexglove benchmark: closed-loop CLI workloads with output checks.

Run from the root of a flexglove checkout:

    python3 bench/run.py --workload record --seed 2020 --seconds 10 --trace 0

Workloads are `record`, `replay` and `sweep` (see bench/README.md).  With
`--trace 0` the run reports end-to-end metrics; with `--trace 1` it runs the
workload once plain and once with every layer traced, and reports per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_sources() -> None:
    """Import flexglove from this checkout's src/, or exit non-zero."""
    if not (SRC / "flexglove" / "cli.py").is_file():
        sys.exit(f"bench: no flexglove sources at {SRC / 'flexglove'}")
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    use_checkout_sources()
    import harness

    raise SystemExit(harness.main())
