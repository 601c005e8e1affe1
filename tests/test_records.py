"""Every record is an immutable named tuple: no per-instance __dict__, and
_replace and _make run the constructor's checks."""
import pytest

from flexglove import (
    DEFAULT_PROFILE_TABLE,
    ArgumentError,
    CalibrationCurve,
    SensorConfig,
    build_centroids,
    discriminability,
    linear_fit,
)
from flexglove.types import GraspObject, GraspSession, Shape
from oracles import default_hand_profile

# A sound two-frame session: user, object, stamps, five count columns, period.
SESSION_FIELDS = ("u01", GraspObject(Shape.SPHERE, 8.0), [0, 50], ([7, 8],) * 5, 50)


def test_no_record_has_an_instance_dict(default_table, default_cohort):
    records = [
        GraspObject(Shape.SPHERE, 6.0),
        default_cohort[0],
        CalibrationCurve(),
        SensorConfig(),
        default_table.stats(default_table.cells()[0]),
        linear_fit([(0.0, 0.0), (1.0, 1.0)]),
        discriminability(default_table)[0],
        default_hand_profile(),
        build_centroids(default_table)[0],
        next(iter(DEFAULT_PROFILE_TABLE.values())),
    ]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
    assert all(isinstance(r, tuple) for r in records)


@pytest.mark.parametrize(
    "rebuild, build",
    [
        (lambda: SensorConfig()._replace(vcc=-1), lambda: SensorConfig(vcc=-1)),
        (lambda: CalibrationCurve()._replace(d_knee=1.0), lambda: CalibrationCurve(d_knee=1.0)),
        (lambda: GraspObject._make((Shape.SPHERE, -1.0)), lambda: GraspObject(Shape.SPHERE, -1.0)),
        (
            lambda: GraspSession(*SESSION_FIELDS)._replace(counts=([7, 8],) * 4 + ([9],)),
            lambda: GraspSession(*SESSION_FIELDS[:3], ([7, 8],) * 4 + ([9],)),
        ),
        (
            lambda: GraspSession._make((*SESSION_FIELDS[:3], ([7, 8],) * 4)),
            lambda: GraspSession(*SESSION_FIELDS[:3], ([7, 8],) * 4),
        ),
        (
            lambda: GraspSession._make((*SESSION_FIELDS[:3], ([7, 8],) * 6)),
            lambda: GraspSession(*SESSION_FIELDS[:3], ([7, 8],) * 6),
        ),
    ],
    ids=[
        "SensorConfig._replace", "CalibrationCurve._replace", "GraspObject._make",
        "GraspSession._replace-short-column", "GraspSession._make-4-columns", "GraspSession._make-6-columns",
    ],
)
def test_replace_and_make_run_the_constructor_checks(rebuild, build):
    with pytest.raises(ArgumentError) as direct:
        build()
    with pytest.raises(ArgumentError) as rebuilt:
        rebuild()
    assert str(rebuilt.value) == str(direct.value)


def test_replace_keeps_the_record_type():
    cfg = SensorConfig()._replace(vcc=3.3)
    assert type(cfg) is SensorConfig and cfg.vcc == 3.3 and cfg.curve == CalibrationCurve()
    assert GraspObject._make((Shape.CYLINDER, 7)) == GraspObject(Shape.CYLINDER, 7.0)


def test_records_compare_as_tuples_and_cannot_be_reassigned(default_cohort):
    assert GraspObject(Shape.SPHERE, 6.0) == (Shape.SPHERE, 6.0)
    with pytest.raises(AttributeError):
        default_cohort[0].user_id = "x"
