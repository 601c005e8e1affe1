import json
import sys
from pathlib import Path

import pytest

import flexglove as fg
from flexglove.cli import main
from flexglove.types import Shape, default_objects

# The seed every published result in this repository is generated from.
PUBLISHED_SEED = 2020
BENCH = Path(__file__).resolve().parent.parent / "bench"
# The committed seed-2020 digests of every output the benchmark checks.  Read,
# never written, here.
GOLDEN_FILE = BENCH / "golden_2020.json"


@pytest.fixture(scope="session")
def sensor():
    return fg.SensorConfig()


def simulate_default_cohort(seed, sensor):
    """The full default cohort: 11 sphere users x 11 diameters, 8 cylinder
    users x 10 diameters (matches `flexglove simulate --seed <seed>`)."""
    sphere = fg.simulate_cohort(default_objects(Shape.SPHERE), 11, seed, sensor, user_prefix="s")
    cylinder = fg.simulate_cohort(
        default_objects(Shape.CYLINDER), 8, seed + 1, sensor, user_prefix="c"
    )
    return [*sphere, *cylinder]


@pytest.fixture(scope="session")
def default_cohort(sensor):
    """The full default cohort at the published seed."""
    return simulate_default_cohort(PUBLISHED_SEED, sensor)


@pytest.fixture(scope="session")
def default_table(default_cohort):
    return fg.build_cohort(default_cohort)


@pytest.fixture(scope="session")
def golden_digests():
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden["seed"] == PUBLISHED_SEED
    return golden["digests"]


@pytest.fixture(scope="session")
def sweep_analysis(golden_digests, tmp_path_factory):
    """The benchmark's seed-2020 `sweep` workload, its 1,640 four-frame input
    sessions written by its own set-up (checked against the committed digest),
    and the directory `analyze --expected-frames 4` of them wrote: 82
    centroids, one per quarter centimetre and shape."""
    sys.path.insert(0, str(BENCH))
    import workloads

    work = tmp_path_factory.mktemp("sweep")
    sweep = workloads.Sweep()
    ctx = workloads.Context(seed=PUBLISHED_SEED, work=work, checker=workloads.Checker(golden_digests))
    sweep.generate(ctx, work / "inputs")
    assert sweep.prepare(ctx, work / "inputs", [])
    analysis = work / "analysis"
    argv = ["analyze", str(sweep.directory), "--out", str(analysis), "--expected-frames", str(sweep.frames)]
    assert main(argv) == 0
    return sweep, analysis
