import pytest

import flexglove as fg
from flexglove.types import Shape, default_objects

# The seed every published result in this repository is generated from.
PUBLISHED_SEED = 2020


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
    return sphere + cylinder


@pytest.fixture(scope="session")
def default_cohort(sensor):
    """The full default cohort at the published seed."""
    return simulate_default_cohort(PUBLISHED_SEED, sensor)


@pytest.fixture(scope="session")
def default_table(default_cohort):
    return fg.build_cohort(default_cohort)
