import pytest

from flexglove import (
    ArgumentError,
    GraspObject,
    HandProfile,
    SensorConfig,
    Shape,
    finger_bend_diameter,
    format_session,
    make_hand_profile,
    read_session,
    simulate_cohort,
    simulate_session,
)
from flexglove.simulate import (
    DEFAULT_PROFILE_TABLE,
    clean_finger_adc,
    parse_profile_table,
)
from flexglove.stats import session_means
from flexglove.types import FINGERS, default_objects
from oracles import default_hand_profile, format_profile_table, per_draw_frames

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
        assert [f[0] for f in session.frames] == list(range(0, 5000, 50))

    def test_negative_frame_count_rejected(self):
        with pytest.raises(ArgumentError) as exc:
            simulate_session(GraspObject(Shape.SPHERE, 8.0), default_hand_profile(), SENSOR, seed=5, n_frames=-1)
        assert str(exc.value) == "need n_frames >= 0"

    def test_zero_noise_makes_constant_frames(self):
        session = simulate_session(
            GraspObject(Shape.CYLINDER, 9.0), default_hand_profile(), QUIET, seed=5
        )
        assert len({f[1:] for f in session.frames}) == 1

    def test_noise_stays_within_amplitude(self):
        profile = default_hand_profile()
        obj = GraspObject(Shape.SPHERE, 8.0)
        clean = [clean_finger_adc(obj, f, profile, SENSOR) for f in FINGERS]
        session = simulate_session(obj, profile, SENSOR, seed=11)
        for frame in session.frames:
            assert all(abs(v - c) <= SENSOR.noise_amplitude for v, c in zip(frame[1:], clean))

    def test_same_seed_same_bytes(self):
        args = (GraspObject(Shape.SPHERE, 8.0), default_hand_profile(), SENSOR)
        assert format_session(simulate_session(*args, seed=42)) == format_session(
            simulate_session(*args, seed=42)
        )
        assert format_session(simulate_session(*args, seed=42)) != format_session(
            simulate_session(*args, seed=43)
        )

    def test_float_spelled_config_writes_sessions_that_read_back(self):
        # SensorConfig kept adc_levels=1024.0 as a float, so a count clamped
        # to the converter's top was written as "1023.0", which read_session
        # rejects.  r_fixed=1.0 drives every finger to that top.
        sensor = SensorConfig(r_fixed=1.0, adc_levels=1024.0, noise_amplitude=1.0)
        for session in simulate_cohort(default_objects(Shape.SPHERE), 2, 2020, sensor):
            assert read_session(format_session(session)) == session
            assert {type(field) for frame in session.frames for field in frame} == {int}


class TestNoiseStream:
    # Amplitudes 1, 2, 3 and 127 give spans 3, 5, 7 and 255, drawn from the
    # top 2, 3, 3 and 8 bits of a word; 0 draws nothing.  r_fixed far below /
    # far above the sensor's resistance pins every clean count to the
    # converter's top / bottom, so the clamp is exercised.
    @pytest.mark.parametrize("amplitude", [0, 1, 2, 3, 127])
    @pytest.mark.parametrize(
        "r_fixed, adc_levels, clean_count",
        [(47_000.0, 1024, None), (1e-3, 1024, 1023), (1e12, 1024, 0), (1e-3, 256, 255)],
    )
    @pytest.mark.parametrize("n_frames", [0, 1, 4, 100])
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
        sessions = list(simulate_cohort(default_objects(Shape.SPHERE), 11, 2020, SENSOR, user_prefix="s"))
        assert len(sessions) == 11 * 11
        assert len({s.user_id for s in sessions}) == 11
        assert {s.user_id for s in sessions} == {f"s{k:02d}" for k in range(1, 12)}

    def test_cylinder_skips_10cm(self):
        diameters = {o.diameter_cm for o in default_objects(Shape.CYLINDER)}
        assert 10.0 not in diameters
        assert len(diameters) == 10

    def test_zero_users_rejected(self):
        with pytest.raises(ArgumentError):
            simulate_cohort(default_objects(Shape.SPHERE), 0, 2020, SENSOR)

    def test_empty_objects_rejected(self):
        with pytest.raises(ArgumentError):
            simulate_cohort([], 3, 2020, SENSOR)

    # Random(-n) seeds as Random(n), so each of these once returned what the
    # positive seed gives.
    @pytest.mark.parametrize(
        "call, seed",
        [
            (lambda: simulate_cohort(default_objects(Shape.SPHERE)[:2], 2, -3, SENSOR), -3),
            (lambda: simulate_session(GraspObject(Shape.SPHERE, 8.0), default_hand_profile(), SENSOR, seed=-9), -9),
            (lambda: make_hand_profile("u", -4), -4),
        ],
        ids=["simulate_cohort", "simulate_session", "make_hand_profile"],
    )
    def test_negative_seed_rejected(self, call, seed):
        with pytest.raises(ArgumentError) as exc:
            call()
        assert str(exc.value) == f"seed must not be negative, got {seed}"

    def test_reproducible(self):
        objs = default_objects(Shape.CYLINDER)
        a = simulate_cohort(objs, 3, 77, SENSOR)
        b = simulate_cohort(objs, 3, 77, SENSOR)
        assert [format_session(s) for s in a] == [format_session(s) for s in b]

    def test_zero_spread_table_reproduces_its_centre(self):
        table = {
            key: p._replace(gain_spread=0.0, offset_spread_cm=0.0)
            for key, p in DEFAULT_PROFILE_TABLE.items()
        }
        profile = make_hand_profile("x", seed=123, table=table)
        for key, base in table.items():
            assert profile.mapping[key] == (base.gain, base.offset_cm)


class TestModelInvariants:
    def test_monotone_session_means(self):
        # noise-free so the static-grasp means are the clean counts
        profile = default_hand_profile()
        for shape in Shape:
            for finger in FINGERS:
                means = [
                    session_means(
                        simulate_session(GraspObject(shape, float(d)), profile, QUIET, seed=d)
                    )[FINGERS.index(finger)]
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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("thumb sphere inf 0.75 -0.02 0.1", "line 3: gain must be finite, got 'inf'"),
            ("thumb sphere 1.0 nan 0.02 0.1", "line 3: offset_cm must be finite, got 'nan'"),
            ("thumb sphere 1.0 0.75 0.02 -Infinity", "line 3: offset_spread_cm must be finite, got '-Infinity'"),
            ("thumb sphere 1.0 0.75 -0.02 0.1", "line 3: gain_spread must be non-negative, got -0.02"),
            ("thumb sphere 1.0 0.75 0.02 -0.1", "line 3: offset_spread_cm must be non-negative, got -0.1"),
        ],
    )
    def test_non_finite_number_or_negative_spread_rejected(self, row, message):
        text = format_profile_table(DEFAULT_PROFILE_TABLE).replace("thumb sphere 1.0 0.75 0.02 0.1", row)
        with pytest.raises(ArgumentError) as exc:
            parse_profile_table(text)
        assert str(exc.value) == f"profile table {message}"
