"""Acceptance suite: one test per criterion, at the stated tolerance.

Criteria 8 and 9 run against the published default seed (2020); they gate the
shipped default profile table and sensor constants, which were tuned once
against exactly these checks.
"""
import csv
import random

import pytest

import flexglove as fg
from flexglove.classify import build_centroids, classify_session, discriminability
from flexglove.cli import main
from flexglove.errors import ParseError
from flexglove.session_io import format_session, parse_frame, read_session
from flexglove.simulate import make_hand_profile
from flexglove.stats import cohort_fits, linear_fit, min_max_normalize, sem
from flexglove.types import FINGERS, GraspObject, Shape, default_objects
from conftest import PUBLISHED_SEED, simulate_default_cohort
from oracles import ols_oracle, sem_oracle, session_from_rows


def note(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


class TestCriterion1Sampling:
    def test_every_default_session_has_the_sampling_contract(self, default_cohort):
        expected_ts = list(range(0, 5000, 50))
        for session in default_cohort:
            assert len(session.frames) == 100
            assert [f[0] for f in session.frames] == expected_ts
        ingested = read_session(format_session(default_cohort[0]))
        assert [f[0] for f in ingested.frames] == expected_ts
        note(1, f"{len(default_cohort)} sessions x 100 frames at 0..4950 ms step 50")


class TestCriterion2NoiseBound:
    def test_thousand_sample_stream_spans_at_most_two_counts(self, sensor):
        clean = fg.clean_adc_at_diameter(12.0, sensor)
        draws = fg.noise_draws(random.Random(PUBLISHED_SEED), sensor, 1000)
        stream = fg.sample_with_noise(clean, draws, sensor)
        span = max(stream) - min(stream)
        assert span <= 2
        note(2, f"1000 samples at 12 cm span {span} counts")


class TestCriterion3RingSweep:
    def test_clean_sweep_monotone_with_strict_knee_contrast(self, tmp_path):
        config = tmp_path / "quiet.cfg"
        config.write_text("noise_amplitude = 0\n")
        out = tmp_path / "char"
        assert main(["characterize", "--out", str(out), "--config", str(config)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        by_d = {int(r["diameter_cm"]): float(r["adc_mean"]) for r in rows}
        steps = {d: by_d[d] - by_d[d + 1] for d in range(5, 22)}
        assert all(step >= 0 for step in steps.values())
        head = [steps[d] for d in range(5, 12)]
        tail = [steps[d] for d in range(12, 22)]
        assert max(tail) < min(head)
        note(3, f"clean sweep non-increasing; max step past knee {max(tail):g} < min head step {min(head):g}")


class TestCriterion4AdcArithmetic:
    def test_one_count_is_five_over_1024_volts(self, sensor):
        value = fg.adc_to_voltage(1, sensor)
        assert abs(value - 0.0048828125) < 1e-12
        note(4, f"adc_to_voltage(1) = {value!r} V")


class TestCriterion5Normalization:
    def test_endpoints_and_affine_invariance_over_1000_cases(self):
        rng = random.Random(501)
        cases = 0
        while cases < 1000:
            n = rng.randint(2, 12)
            raw = rng.sample(range(0, 1024), n)
            values = {float(i): float(v) for i, v in enumerate(raw)}
            normalized = min_max_normalize(values)
            assert min(normalized.values()) == 0.0
            assert max(normalized.values()) == 1.0
            # power-of-two gain and integer offset are exact in binary floats,
            # so invariance must hold bit for bit
            a = 2.0 ** rng.randint(-6, 6)
            b = float(rng.randint(-4096, 4096))
            transformed = {d: a * v + b for d, v in values.items()}
            assert min_max_normalize(transformed) == normalized
            cases += 1
        note(5, f"{cases} cases: endpoints exact, affine invariance bitwise")


class TestCriterion6StatOracles:
    def test_sem_and_ols_match_bruteforce_to_1e9(self):
        rng = random.Random(601)
        for _ in range(1000):
            values = [rng.uniform(-100, 100) for _ in range(rng.randint(2, 10))]
            assert abs(sem(values) - sem_oracle(values)) < 1e-9
        for _ in range(1000):
            n = rng.randint(2, 12)
            xs = rng.sample(range(-50, 50), n)
            points = [(float(x), rng.uniform(-10, 10)) for x in xs]
            fit = linear_fit(points)
            slope, intercept, r2 = ols_oracle(points)
            assert abs(fit.slope - slope) < 1e-9
            assert abs(fit.intercept - intercept) < 1e-9
            assert abs(fit.r2 - r2) < 1e-9
        note(6, "1000 SEM + 1000 OLS instances within 1e-9 of summation oracles")


class TestCriterion7Parser:
    def test_roundtrip_identity_for_1000_sessions(self):
        rng = random.Random(701)
        for i in range(1000):
            n = rng.randint(0, 8)
            period = rng.randint(1, 200)
            frames = [
                (i_ * period, *(rng.randint(0, 1023) for _ in range(5)))
                for i_ in range(n)
            ]
            session = session_from_rows(
                f"u{i}", GraspObject(rng.choice(list(Shape)), rng.randint(1, 40) / 2), frames, period
            )
            assert read_session(format_session(session)) == session
        note(7, "1000 generated sessions round-trip field for field")

    def test_fuzzed_lines_yield_frame_or_named_error(self):
        rng = random.Random(702)
        alphabet = "0123456789,.-+ abc\t\x00"
        outcomes = {"frame": 0, "error": 0}
        for i in range(2000):
            if i % 4 == 0:
                # near-grammar lines: comma-joined digit groups, so some are valid
                line = ",".join(
                    "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 4)))
                    for _ in range(rng.randint(4, 8))
                )
            else:
                line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            try:
                frame = parse_frame(line)
                assert type(frame) is tuple and len(frame) == 6
                assert all(type(v) is int for v in frame)
                outcomes["frame"] += 1
            except ParseError:
                outcomes["error"] += 1
        assert sum(outcomes.values()) == 2000
        note(7, f"2000 fuzzed lines -> {outcomes['frame']} frames, {outcomes['error']} named errors, 0 crashes")


def fits_by_key(table):
    return {(s, f, name): fit for s, f, name, fit, _ in cohort_fits(table)}


@pytest.fixture(scope="module")
def fits(default_table):
    return fits_by_key(default_table)


class TestCriterion8DefaultCohortPatterns:
    def test_8a_ring_full_range_fit(self, fits):
        for shape in Shape:
            r2 = fits[(shape, "ring", "full")].r2
            assert r2 > 0.95, f"ring/{shape.value} r2={r2}"
        note("8a", "ring full-range r2 > 0.95 for both shapes: "
             + ", ".join(f"{s.value}={fits[(s, 'ring', 'full')].r2:.4f}" for s in Shape))

    def test_8b_saturating_subrange_fits(self, fits):
        cases = [(Shape.SPHERE, "thumb"), (Shape.CYLINDER, "thumb"), (Shape.CYLINDER, "index")]
        for shape, finger in cases:
            r2 = fits[(shape, finger, "gt10")].r2
            assert r2 < 0.50, f"{finger}/{shape.value} gt10 r2={r2}"
        note("8b", "subrange (>10 cm) r2 < 0.50: "
             + ", ".join(f"{f}/{s.value}={fits[(s, f, 'gt10')].r2:.4f}" for s, f in cases))

    def test_8c_all_full_range_fits(self, fits):
        worst = min(
            (fits[(shape, finger, "full")].r2, finger, shape.value)
            for shape in Shape
            for finger in FINGERS
        )
        assert worst[0] > 0.83, f"weakest full fit {worst}"
        note("8c", f"all 10 full-range fits r2 > 0.83 (weakest {worst[1]}/{worst[2]} = {worst[0]:.4f})")

    def test_8d_pinky_exact_one_at_smallest_diameter(self, default_table):
        for shape in Shape:
            d0 = min(default_table.diameters(shape))
            mean = default_table.stats((shape, d0, "pinky")).mean
            assert mean == 1.0, f"pinky/{shape.value}@{d0} mean={mean!r}"
        note("8d", "pinky normalized mean exactly 1.0 at 6 cm for both shapes")

    def test_8e_discriminability_with_at_most_one_exception(self, default_table):
        verdicts = discriminability(default_table)
        misses = [v.diameter_cm for v in verdicts if not v.discriminable]
        assert len(verdicts) == 10  # 6..16 minus the missing 10 cm cylinder
        assert len(misses) <= 1, f"non-discriminable at {misses}"
        note("8e", f"separable at {len(verdicts) - len(misses)}/10 common diameters"
             f" (exceptions: {misses or 'none'})")


# The default profile table was tuned once at the published seed; criteria
# 8a-8c and 8e holding at these seeds too shows that it was not seed-picked.
SWEEP_SEEDS = [2001, 2007, 2013, 2019, 2023, 2029, 2033, 2039]


@pytest.fixture(scope="module", params=SWEEP_SEEDS)
def sweep_table(request, sensor):
    return fg.build_cohort(simulate_default_cohort(request.param, sensor))


class TestCriterion8AtOtherSeeds:
    """The published seed's criterion 8 checks, run on the default cohort at
    each of SWEEP_SEEDS."""

    checks = TestCriterion8DefaultCohortPatterns()

    def test_8a_ring_full_range_fit(self, sweep_table):
        self.checks.test_8a_ring_full_range_fit(fits_by_key(sweep_table))

    def test_8b_saturating_subrange_fits(self, sweep_table):
        self.checks.test_8b_saturating_subrange_fits(fits_by_key(sweep_table))

    def test_8c_all_full_range_fits(self, sweep_table):
        self.checks.test_8c_all_full_range_fits(fits_by_key(sweep_table))

    def test_8e_discriminability_with_at_most_one_exception(self, sweep_table):
        self.checks.test_8e_discriminability_with_at_most_one_exception(sweep_table)


class TestCriterion9Classifier:
    def test_heldout_accuracy(self, sensor, default_table):
        centroids = build_centroids(default_table)
        context = default_table.raw_scale
        rng = random.Random(PUBLISHED_SEED + 99991)  # disjoint from the training seed stream
        objects = {shape: default_objects(shape) for shape in Shape}
        total = shape_hits = diameter_hits = 0
        while total < 500:
            for shape in Shape:
                for obj in objects[shape]:
                    profile = make_hand_profile(f"h{total}", rng.getrandbits(32))
                    session = fg.simulate_session(obj, profile, sensor, rng.getrandbits(32))
                    got_shape, got_diameter, _ = classify_session(session, centroids, context)
                    total += 1
                    shape_hits += got_shape is shape
                    diameter_hits += abs(got_diameter - obj.diameter_cm) <= 1.0
        shape_acc = shape_hits / total
        diameter_acc = diameter_hits / total
        assert shape_acc >= 0.90
        assert diameter_acc >= 0.80
        note(9, f"{total} held-out sessions: shape accuracy {shape_acc:.3f}, diameter ±1 cm {diameter_acc:.3f}")


class TestHeldOutUser:
    def test_leave_one_user_out_at_published_seed(self, default_cohort):
        """Each user's sessions classified against centroids built from the
        other 18 users: the README's new-user caveat, measured."""
        users = sorted({session.user_id for session in default_cohort})
        assert len(users) == 19
        exact = shape_hits = 0
        for user in users:
            table = fg.build_cohort(s for s in default_cohort if s.user_id != user)
            centroids, context = build_centroids(table), table.raw_scale
            for session in (s for s in default_cohort if s.user_id == user):
                shape, diameter, _ = classify_session(session, centroids, context)
                shape_hits += shape is session.obj.shape
                exact += shape is session.obj.shape and diameter == session.obj.diameter_cm
        assert (exact, shape_hits) == (200, 201)
        note("held-out user", f"{exact}/201 exact, {shape_hits}/201 shape, each user left out once")
