import random

import pytest

from flexglove import (
    ArgumentError,
    BendRangeError,
    Frame,
    GraspObject,
    HandProfile,
    SensorConfig,
    Shape,
    finger_bend_diameter,
    format_session,
    make_hand_profile,
    sample_with_noise,
    simulate_cohort,
    simulate_session,
)
from flexglove.simulate import (
    DEFAULT_PROFILE_TABLE,
    clean_finger_adc,
    default_hand_profile,
    format_profile_table,
    parse_profile_table,
)
from flexglove.stats import session_mean
from flexglove.types import FINGERS, default_objects

SENSOR = SensorConfig()
QUIET = SensorConfig(noise_amplitude=0)


def flat_profile(gain, offset, user="t"):
    return HandProfile(
        user_id=user,
        mapping={(f, s): (gain, offset) for f in FINGERS for s in Shape},
    )


class TestBendDiameter:
    def test_identity_profile(self):
        obj = GraspObject(Shape.SPHERE, 10.0)
        assert finger_bend_diameter(obj, "index", flat_profile(1.0, 0.0), SENSOR) == 10.0

    def test_scaled_profile(self):
        obj = GraspObject(Shape.SPHERE, 10.0)
        assert finger_bend_diameter(obj, "index", flat_profile(0.8, 0.0), SENSOR) == pytest.approx(8.0)

    def test_default_pinky_sphere_tighter_than_cylinder_at_6(self):
        profile = default_hand_profile()
        sphere = GraspObject(Shape.SPHERE, 6.0)
        cylinder = GraspObject(Shape.CYLINDER, 6.0)
        d_s = finger_bend_diameter(sphere, "pinky", profile, SENSOR)
        d_c = finger_bend_diameter(cylinder, "pinky", profile, SENSOR)
        assert d_s == pytest.approx(0.52 * 6 + 1.95)
        assert d_c == pytest.approx(0.32 * 6 + 3.95)
        assert d_s < d_c
        assert clean_finger_adc(sphere, "pinky", profile, SENSOR) > clean_finger_adc(
            cylinder, "pinky", profile, SENSOR
        )

    def test_clamps_at_sensor_floor(self):
        obj = GraspObject(Shape.SPHERE, 6.0)
        profile = flat_profile(0.5, 0.0)  # 3.0 cm, below the 5 cm floor
        assert finger_bend_diameter(obj, "ring", profile, SENSOR) == SENSOR.curve.d_tightest
        with pytest.raises(BendRangeError):
            finger_bend_diameter(obj, "ring", profile, SENSOR, clamp=False)

    def test_strictly_increasing_in_diameter(self):
        profile = default_hand_profile()
        for shape in Shape:
            for finger in FINGERS:
                effs = [
                    finger_bend_diameter(GraspObject(shape, d), finger, profile, SENSOR)
                    for d in range(6, 17)
                ]
                assert all(a < b for a, b in zip(effs, effs[1:]))


class TestSession:
    def test_frame_count_and_timestamps(self):
        session = simulate_session(
            GraspObject(Shape.SPHERE, 8.0), default_hand_profile(), SENSOR, seed=5
        )
        assert len(session.frames) == 100
        assert [f.t_ms for f in session.frames] == list(range(0, 5000, 50))

    def test_zero_noise_makes_constant_frames(self):
        session = simulate_session(
            GraspObject(Shape.CYLINDER, 9.0), default_hand_profile(), QUIET, seed=5
        )
        assert len({f.adc for f in session.frames}) == 1

    def test_noise_stays_within_amplitude(self):
        profile = default_hand_profile()
        obj = GraspObject(Shape.SPHERE, 8.0)
        clean = [clean_finger_adc(obj, f, profile, SENSOR) for f in FINGERS]
        session = simulate_session(obj, profile, SENSOR, seed=11)
        for frame in session.frames:
            assert all(abs(v - c) <= SENSOR.noise_amplitude for v, c in zip(frame.adc, clean))

    def test_same_seed_same_bytes(self):
        args = (GraspObject(Shape.SPHERE, 8.0), default_hand_profile(), SENSOR)
        assert format_session(simulate_session(*args, seed=42)) == format_session(
            simulate_session(*args, seed=42)
        )
        assert format_session(simulate_session(*args, seed=42)) != format_session(
            simulate_session(*args, seed=43)
        )


def per_draw_frames(obj, profile, sensor, seed, n_frames, period_ms=50):
    """Reference noise stream: one sample_with_noise call per finger per frame."""
    clean = [clean_finger_adc(obj, f, profile, sensor) for f in FINGERS]
    rng = random.Random(seed)
    return [
        Frame(t_ms=i * period_ms, adc=tuple(sample_with_noise(c, rng, sensor) for c in clean))
        for i in range(n_frames)
    ]


class TestNoiseStream:
    # r_fixed far below / far above the sensor's resistance pins every clean
    # count to the converter's top / bottom, so the clamp is exercised.
    @pytest.mark.parametrize("amplitude", [0, 1, 3])
    @pytest.mark.parametrize(
        "r_fixed, adc_levels, clean_count",
        [(47_000.0, 1024, None), (1e-3, 1024, 1023), (1e12, 1024, 0), (1e-3, 256, 255)],
    )
    @pytest.mark.parametrize("n_frames", [0, 4])
    def test_session_equals_per_draw_replay(self, amplitude, r_fixed, adc_levels, clean_count, n_frames):
        sensor = SensorConfig(r_fixed=r_fixed, adc_levels=adc_levels, noise_amplitude=amplitude)
        obj, profile = GraspObject(Shape.CYLINDER, 7.0), default_hand_profile()
        if clean_count is not None:
            assert {clean_finger_adc(obj, f, profile, sensor) for f in FINGERS} == {clean_count}
        for seed in (0, 2020, 987654321):
            session = simulate_session(obj, profile, sensor, seed, n_frames=n_frames)
            assert session.frames == per_draw_frames(obj, profile, sensor, seed, n_frames)


class TestCohort:
    def test_session_count_and_users(self):
        sessions = simulate_cohort(default_objects(Shape.SPHERE), 11, 2020, SENSOR, user_prefix="s")
        assert len(sessions) == 11 * 11
        assert len({s.user_id for s in sessions}) == 11
        assert {s.user_id for s in sessions} == {f"s{k:02d}" for k in range(1, 12)}

    def test_cylinder_skips_10cm(self):
        diameters = {o.diameter_cm for o in default_objects(Shape.CYLINDER)}
        assert 10.0 not in diameters
        assert len(diameters) == 10

    def test_out_of_sweep_objects_flagged_as_extrapolation(self):
        assert GraspObject(Shape.SPHERE, 9.0).in_cohort_range
        assert not GraspObject(Shape.SPHERE, 20.0).in_cohort_range
        assert not GraspObject(Shape.CYLINDER, 5.5).in_cohort_range

    def test_zero_users_rejected(self):
        with pytest.raises(ArgumentError):
            simulate_cohort(default_objects(Shape.SPHERE), 0, 2020, SENSOR)

    def test_empty_objects_rejected(self):
        with pytest.raises(ArgumentError):
            simulate_cohort([], 3, 2020, SENSOR)

    def test_reproducible(self):
        objs = default_objects(Shape.CYLINDER)
        a = simulate_cohort(objs, 3, 77, SENSOR)
        b = simulate_cohort(objs, 3, 77, SENSOR)
        assert [format_session(s) for s in a] == [format_session(s) for s in b]

    def test_zero_variability_reproduces_default_profile(self):
        profile = make_hand_profile("x", seed=123, variability=0.0)
        for key, base in DEFAULT_PROFILE_TABLE.items():
            assert profile.mapping[key] == (base.gain, base.offset_cm)


class TestModelInvariants:
    def test_monotone_session_means(self):
        # noise-free so the static-grasp means are the clean counts
        profile = default_hand_profile()
        for shape in Shape:
            for finger in FINGERS:
                means = [
                    session_mean(
                        simulate_session(GraspObject(shape, float(d)), profile, QUIET, seed=d),
                        finger,
                    )
                    for d in range(6, 17)
                ]
                assert all(a >= b for a, b in zip(means, means[1:]))

    def test_pinky_inversion_around_10cm(self):
        profile = default_hand_profile()
        for d in (6.0, 7.0, 8.0, 9.0):
            s = clean_finger_adc(GraspObject(Shape.SPHERE, d), "pinky", profile, SENSOR)
            c = clean_finger_adc(GraspObject(Shape.CYLINDER, d), "pinky", profile, SENSOR)
            assert s > c
        for d in (11.0, 12.0, 14.0, 16.0):
            s = clean_finger_adc(GraspObject(Shape.SPHERE, d), "pinky", profile, SENSOR)
            c = clean_finger_adc(GraspObject(Shape.CYLINDER, d), "pinky", profile, SENSOR)
            assert c > s

    def test_shape_separation_clears_noise_band(self):
        profile = default_hand_profile()
        common = [d for d in range(6, 17) if d != 10]
        for d in common:
            deltas = [
                abs(
                    clean_finger_adc(GraspObject(Shape.SPHERE, float(d)), f, profile, SENSOR)
                    - clean_finger_adc(GraspObject(Shape.CYLINDER, float(d)), f, profile, SENSOR)
                )
                for f in FINGERS
            ]
            assert max(deltas) > 2 * SENSOR.noise_amplitude


class TestProfileTableFile:
    def test_roundtrip(self):
        text = format_profile_table(DEFAULT_PROFILE_TABLE)
        assert parse_profile_table(text) == DEFAULT_PROFILE_TABLE

    def test_incomplete_table_rejected(self):
        text = "thumb sphere 1.0 0.5 0.02 0.1\n"
        with pytest.raises(ArgumentError):
            parse_profile_table(text)

    def test_bad_row_rejected(self):
        with pytest.raises(ArgumentError):
            parse_profile_table("thumb sphere 1.0 0.5\n")
