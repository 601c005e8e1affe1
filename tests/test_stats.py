import hashlib
import math
import operator
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexglove import (
    FINGERS,
    ArgumentError,
    DegenerateRange,
    FingerStats,
    GloveError,
    GraspObject,
    GraspSession,
    PreconditionViolation,
    Shape,
    CohortTable,
    build_cohort,
    cohort_fits,
    intervals_overlap,
    linear_fit,
    min_max_normalize,
    sem,
    session_means,
)
from oracles import build_cohort_oracle, ols_oracle, sem_oracle, session_from_rows


def constant_session(value, n=100, user="u01", shape=Shape.SPHERE, diameter=8.0):
    frames = [(i * 50, *(value,) * 5) for i in range(n)]
    return session_from_rows(user, GraspObject(shape, diameter), frames)


class TestSessionMean:
    def test_constant(self):
        assert session_means(constant_session(512)) == (512.0,) * 5

    def test_alternating(self):
        frames = [(i * 50, *(500 if i % 2 else 502,) * 5) for i in range(100)]
        session = session_from_rows("u01", GraspObject(Shape.SPHERE, 8.0), frames)
        assert session_means(session) == (501.0,) * 5

    def test_wrong_frame_count(self):
        with pytest.raises(PreconditionViolation):
            session_means(constant_session(512, n=99))

    def test_all_fingers_in_one_pass_match_per_finger(self):
        rng = random.Random(5)
        frames = [(i * 50, *(rng.randrange(1024) for _ in range(5))) for i in range(100)]
        session = session_from_rows("u01", GraspObject(Shape.SPHERE, 8.0), frames)
        means = session_means(session)
        assert len(means) == 5
        for i in range(5):
            assert means[i] == math.fsum(f[1 + i] for f in frames) / 100

    @given(st.lists(st.tuples(*[st.integers(0, 1023)] * 5), min_size=1, max_size=300))
    def test_equals_fmean_bit_for_bit(self, counts):
        frames = [(i, *row) for i, row in enumerate(counts)]
        session = session_from_rows("u01", GraspObject(Shape.SPHERE, 8.0), frames)
        expected = tuple(statistics.fmean(column) for column in list(zip(*counts)))
        assert session_means(session, expected_frames=len(frames)) == expected

    @pytest.mark.parametrize("expected", [0, -3])
    def test_expected_frames_below_one_rejected(self, expected):
        with pytest.raises(ArgumentError, match="at least 1"):
            session_means(constant_session(512, n=0), expected_frames=expected)

    @pytest.mark.parametrize("finger", range(5))
    def test_short_column_rejected(self, finger):
        session = constant_session(512)
        counts = list(session.counts)
        counts[finger] = counts[finger][:-1]
        lengths = [100] * 5
        lengths[finger] = 99
        with pytest.raises(ArgumentError) as exc:
            session_means(session._replace(counts=tuple(counts)))
        assert str(exc.value) == f"session u01/sphere/8.0 has 100 stamps but count columns of lengths {lengths}"


class TestMinMaxNormalize:
    def test_three_point_example(self):
        assert min_max_normalize({6: 600.0, 11: 450.0, 16: 300.0}) == {6: 1.0, 11: 0.5, 16: 0.0}

    def test_flat_input_is_degenerate(self):
        with pytest.raises(DegenerateRange):
            min_max_normalize({6: 700.0, 16: 700.0})

    def test_single_point_rejected(self):
        with pytest.raises(PreconditionViolation):
            min_max_normalize({6: 700.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # nan gave nan for its diameter, and inf nan for every other one.
        with pytest.raises(PreconditionViolation) as exc:
            min_max_normalize({6: 1.0, 7: bad, 8: 2.0})
        assert str(exc.value) == f"need finite values, got {bad!r}"

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1023), min_size=2, max_size=12, unique=True
        )
    )
    def test_endpoints_exact_and_order_preserved(self, raw):
        values = {float(i): float(v) for i, v in enumerate(raw)}
        normalized = min_max_normalize(values)
        assert min(normalized.values()) == 0.0
        assert max(normalized.values()) == 1.0
        keys = sorted(values)
        for a in keys:
            for b in keys:
                if values[a] < values[b]:
                    assert normalized[a] < normalized[b]

    @given(
        st.lists(st.integers(min_value=0, max_value=1023), min_size=2, max_size=12, unique=True),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-4096, max_value=4096),
    )
    def test_power_of_two_affine_invariance_is_bitwise(self, raw, k, b):
        # 2**k scaling and integer shifts are exact in binary floats, so the
        # normalized outputs must agree bit for bit, not just approximately.
        a = 2.0**k
        values = {float(i): float(v) for i, v in enumerate(raw)}
        transformed = {d: a * v + b for d, v in values.items()}
        assert min_max_normalize(values) == min_max_normalize(transformed)


# Finite floats scaled by 2**k, k in -300..300, one k per value.
_SCALED_FLOATS = st.builds(
    math.ldexp,
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=-300, max_value=300),
)

# SEM inputs, n = 2..50: scaled floats, the ints characterize passes,
# one value repeated, and a few values drawn again and again.
SEM_SAMPLES = st.one_of(
    st.lists(_SCALED_FLOATS, min_size=2, max_size=50),
    st.lists(st.integers(min_value=0, max_value=1023), min_size=2, max_size=50),
    st.builds(operator.mul, st.lists(_SCALED_FLOATS, min_size=1, max_size=1), st.integers(2, 50)),
    st.lists(st.sampled_from([0.1, 0.2, 0.7, 1e-300, 3.0, 1023]), min_size=2, max_size=50),
)


class TestSem:
    def test_zero_variance(self):
        assert sem([0.5, 0.5, 0.5]) == 0.0

    def test_2_4_6(self):
        assert sem([2.0, 4.0, 6.0]) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_translation_invariance(self):
        values = [0.13, 0.55, 0.72, 0.48]
        shifted = [v + 17.5 for v in values]
        assert sem(values) == pytest.approx(sem(shifted), abs=1e-12)

    def test_single_value_rejected(self):
        with pytest.raises(PreconditionViolation):
            sem([0.4])

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(8)
        for _ in range(300):
            values = [rng.uniform(-50, 50) for _ in range(rng.randint(2, 12))]
            assert sem(values) == pytest.approx(sem_oracle(values), abs=1e-9)

    def test_exact_where_a_float_two_pass_is_not(self):
        # fsum of the squared deviations from an fsum mean is off by one bit
        # here, as on about one in seven uniform samples of 2 to 50 values:
        # only exact sums match.
        values = [0.1, 0.2, 0.7]
        mean = math.fsum(values) / 3
        two_pass = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / 2) / math.sqrt(3)
        assert sem(values) == statistics.stdev(values) / math.sqrt(3) == 0.1855921454276674
        assert two_pass != sem(values)

    @pytest.mark.parametrize(
        "values",
        [
            [5e-324, 1.0],  # a subnormal next to 1.0: 2**k overflows
            [1e-300, 1023.0],
            [1e-10, 1e300],  # 2**k fits, but a scaled value overflows
            [2.0**53, 2.0**53 + 2, 2.0**60, -(2.0**70)],  # floats >= 2**53: k = 0
            [2**53 + 1, 2**60 + 3, 7],  # ints beyond a float's 53 bits
            [1e-300, 1023],  # a float and an int
            [-1.5, 2.25, -1e-3, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, -0.0, 0.5, -0.25],
        ],
    )
    def test_bit_identical_where_scaling_falls_back_or_is_trivial(self, values):
        assert sem(values) == statistics.stdev(values) / math.sqrt(len(values))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # nan raised a bare ValueError, and inf a bare OverflowError.
        for values in ([1.0, bad], [1, bad], [1e-300, 1.0, bad]):
            with pytest.raises(PreconditionViolation) as exc:
                sem(values)
            assert str(exc.value) == f"SEM needs finite values, got {bad!r}"

    @settings(max_examples=300)
    @given(SEM_SAMPLES)
    def test_bit_identical_to_statistics_stdev(self, values):
        assert sem(values) == statistics.stdev(values) / math.sqrt(len(values))

    def test_matches_oracle_tightly_on_unit_scale(self):
        # normalized values live in [0, 1], where the two computations must
        # agree to 1e-12; this also covers the 1/sqrt(n) shrink exactly
        rng = random.Random(9)
        for _ in range(300):
            values = [rng.random() for _ in range(rng.randint(2, 12))]
            assert sem(values) == pytest.approx(sem_oracle(values), abs=1e-12)


# Diameters and cell means lie far inside this range, and no product of two
# values in it overflows.
FIT_FLOATS = st.floats(min_value=-1e6, max_value=1e6)


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([(1, 1), (2, 2), (3, 3)])
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_zero_slope_zero_r2(self):
        fit = linear_fit([(0, 0), (1, 1), (2, 0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0 / 3.0)
        assert fit.r2 == pytest.approx(0.0, abs=1e-12)

    def test_constant_y_defines_r2_as_one(self):
        fit = linear_fit([(0, 2.0), (1, 2.0), (2, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_y_negation_flips_slope_only(self):
        points = [(0, 0.2), (1, 0.9), (2, 1.3), (3, 2.9)]
        fit = linear_fit(points)
        neg = linear_fit([(x, -y) for x, y in points])
        assert neg.slope == pytest.approx(-fit.slope)
        assert neg.r2 == pytest.approx(fit.r2, abs=1e-12)

    def test_vertical_data_rejected(self):
        with pytest.raises(PreconditionViolation):
            linear_fit([(1, 0), (1, 5), (1, 9)])

    def test_matches_summation_oracle(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(2, 15)
            xs = random.sample(range(-100, 100), n)
            points = [(float(x), rng.uniform(-20, 20)) for x in xs]
            fit = linear_fit(points)
            slope, intercept, r2 = ols_oracle(points)
            assert fit.slope == pytest.approx(slope, abs=1e-9)
            assert fit.intercept == pytest.approx(intercept, abs=1e-9)
            assert fit.r2 == pytest.approx(r2, abs=1e-9)

    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13's statistics sums with math.sumprod")
    @settings(max_examples=300)
    @given(st.lists(st.tuples(FIT_FLOATS, FIT_FLOATS), min_size=2, max_size=20, unique_by=lambda p: p[0]))
    def test_bit_identical_to_statistics_linear_regression(self, points):
        xs, ys = zip(*points)
        try:
            expected = statistics.linear_regression(xs, ys)
        except statistics.StatisticsError:  # x values whose spread underflows
            with pytest.raises(PreconditionViolation):
                linear_fit(points)
        else:
            fit = linear_fit(points)
            assert (fit.slope, fit.intercept) == tuple(expected)

    def test_underflowing_x_spread_rejected(self):
        with pytest.raises(PreconditionViolation, match="spread underflows"):
            linear_fit([(0.0, 1.0), (5e-324, 2.0)])

    def test_matches_numpy(self):
        rng = random.Random(21)
        for _ in range(50):
            xs = random.sample(range(0, 60), 8)
            points = [(float(x), rng.uniform(0, 1)) for x in xs]
            fit = linear_fit(points)
            slope, intercept = np.polyfit([p[0] for p in points], [p[1] for p in points], 1)
            assert fit.slope == pytest.approx(slope, abs=1e-9)
            assert fit.intercept == pytest.approx(intercept, abs=1e-9)


def sweep_sessions(user, counts, shape=Shape.CYLINDER):
    """One constant session per (diameter, count) of ``counts``."""
    return [constant_session(v, user=user, shape=shape, diameter=d) for d, v in counts.items()]


class TestCollate:
    def test_two_user_cell(self):
        # b's sessions come first; each cell's values still run in user order.
        sessions = sweep_sessions("b", {6.0: 700, 8.0: 460, 10.0: 300})
        sessions += sweep_sessions("a", {6.0: 700, 8.0: 540, 10.0: 300})
        key = (Shape.CYLINDER, 8.0, "pinky")
        table = build_cohort(sessions)
        assert table.values[key] == (0.6, 0.4)
        st_ = table.stats(key)
        assert st_.mean == pytest.approx(0.5)
        assert st_.n == 2

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=30))
    def test_mean_equals_fmean_bit_for_bit(self, values):
        key = (Shape.SPHERE, 8.0, "thumb")
        assert CohortTable({key: tuple(values)}).stats(key).mean == statistics.fmean(values)

    def test_summary_is_stats_of_every_cell_in_cells_order(self):
        table = CohortTable({
            (Shape.SPHERE, 8.0, "thumb"): (0.1, 0.3, 0.8),
            (Shape.CYLINDER, 8.0, "pinky"): (0.2, 0.4),
            (Shape.SPHERE, 6.0, "index"): (1.0, 0.5),
            (Shape.SPHERE, 6.0, "thumb"): (0.0, 0.25),
        })
        assert list(table.summary) == table.cells() != list(table.values)
        assert list(table.summary.values()) == [table.stats(k) for k in table.cells()]

    @pytest.mark.parametrize("values", [(0.5,), ()], ids=["one value", "no value"])
    def test_short_cell_raises_at_construction(self, values):
        with pytest.raises(PreconditionViolation, match=rf"^SEM needs n >= 2, got {len(values)}$"):
            CohortTable({(Shape.SPHERE, 8.0, "thumb"): values})

    def test_single_user_cell_rejected(self):
        sessions = sweep_sessions("a", {6.0: 700, 8.0: 500}, Shape.SPHERE)
        sessions += sweep_sessions("b", {6.0: 700, 10.0: 500}, Shape.SPHERE)
        message = r"^cell \(sphere, 8, thumb\) has a single contributing user; SEM is undefined$"
        with pytest.raises(PreconditionViolation, match=message):
            build_cohort(sessions)

    def test_single_diameter_names_user_shape_and_finger(self):
        sessions = sweep_sessions("a", {6.0: 700, 8.0: 500}, Shape.SPHERE)
        sessions += sweep_sessions("s03", {6.0: 700}, Shape.SPHERE)
        message = r"^user s03, sphere, thumb: need at least 2 diameters, got 1$"
        with pytest.raises(PreconditionViolation, match=message):
            build_cohort(sessions)

    def test_flat_channel_names_user_shape_and_finger(self):
        sessions = sweep_sessions("a", {6.0: 700, 8.0: 500}, Shape.SPHERE)
        sessions += sweep_sessions("s03", {6.0: 500, 8.0: 500}, Shape.SPHERE)
        message = r"^user s03, sphere, thumb: all values equal 500\.0; channel looks flat$"
        with pytest.raises(DegenerateRange, match=message):
            build_cohort(sessions)

    def test_default_sphere_cells_have_eleven_users(self, default_table):
        for d in default_table.diameters(Shape.SPHERE):
            assert default_table.stats((Shape.SPHERE, d, "ring")).n == 11

    def test_default_cylinder_has_no_10cm_cell(self, default_table):
        assert 10.0 not in default_table.diameters(Shape.CYLINDER)
        for d in default_table.diameters(Shape.CYLINDER):
            assert default_table.stats((Shape.CYLINDER, d, "index")).n == 8


class TestIntervalsOverlap:
    def test_disjoint(self):
        assert not intervals_overlap(FingerStats(0.4, 0.05, 3), FingerStats(0.6, 0.05, 3))

    def test_touching_counts_as_overlap(self):
        assert intervals_overlap(FingerStats(0.4, 0.1, 3), FingerStats(0.6, 0.1, 3))

    def test_reflexive(self):
        a = FingerStats(0.37, 0.02, 5)
        assert intervals_overlap(a, a)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=0.3),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=0.3),
    )
    def test_symmetric(self, m1, s1, m2, s2):
        a, b = FingerStats(m1, s1, 4), FingerStats(m2, s2, 4)
        assert intervals_overlap(a, b) == intervals_overlap(b, a)


class TestBuildCohort:
    def test_tiny_synthetic_pipeline(self):
        sessions = []
        for user, bump in (("a", 0), ("b", 5)):
            for d, v in ((6.0, 700), (11.0, 500), (16.0, 300)):
                sessions.append(
                    constant_session(v + bump, user=user, shape=Shape.SPHERE, diameter=d)
                )
        table = build_cohort(sessions)
        mid = table.stats((Shape.SPHERE, 11.0, "middle"))
        assert mid.mean == pytest.approx(0.5)
        assert mid.n == 2
        assert table.stats((Shape.SPHERE, 6.0, "middle")).mean == 1.0
        assert table.stats((Shape.SPHERE, 16.0, "middle")).mean == 0.0
        # raw scale context records the cohort-average sweep extremes
        assert table.raw_scale == {Shape.SPHERE: ((302.5,) * 5, (702.5,) * 5)}

    def test_default_cohort_floats_are_pinned(self, default_table):
        """The seed-2020 cells, raw scale and fits, to the last bit: the golden
        CSVs round to six decimals."""
        values = repr(sorted((shape.value, d, f, vals) for (shape, d, f), vals in default_table.values.items()))
        assert hashlib.sha256(values.encode()).hexdigest() == (
            "6ffdd73e6c3c01baa3297276783862ef2070db53c6cffab81754e6b8963f6e02"
        )
        scale = [
            (shape.value, finger, (lo, hi))
            for shape in Shape
            for finger, lo, hi in zip(FINGERS, *default_table.raw_scale[shape])
        ]
        assert hashlib.sha256(repr(scale).encode()).hexdigest() == (
            "0abebfd3add47560de26c23f27fcc645aa5ba83c692c58e333a5d2e8d4a31615"
        )
        fits = [
            (shape.value, finger, name, fit.slope, fit.intercept, fit.r2)
            for shape, finger, name, fit, _ in cohort_fits(default_table)
        ]
        assert hashlib.sha256(repr(fits).encode()).hexdigest() == (
            "f552738b3e6fe07b87f063ab0d96ce020a28a5152a33a7e6515b6bd31fd97961"
        )

    def test_duplicate_session_rejected(self):
        sessions = [constant_session(500), constant_session(510)]
        with pytest.raises(ArgumentError):
            build_cohort(sessions)

    def test_no_sessions_rejected(self):
        with pytest.raises(ArgumentError):
            build_cohort([])


def random_cohort(rng):
    """The sessions of a small random cohort, shuffled, and their frame count.

    One or two shapes of one to four users.  Most users sweep every diameter
    of the cohort's grid; the others a random subset of it, so that some user
    has one diameter and some cell one user.  Counts come from a narrow range
    in one cohort of eight, so that flat channels and tied extremes occur; one
    cohort in twenty repeats a session.
    """
    n_frames = rng.randint(1, 3)
    top = 2 if rng.random() < 0.125 else 1023
    grid = rng.sample([6.0, 7.5, 8.0, 10.0, 12.25, 16.0], rng.randint(2, 5))
    sessions = []
    for shape in rng.sample(list(Shape), rng.randint(1, 2)):
        for u in range(rng.randint(1, 4)):
            sweep = grid if rng.random() < 0.8 else rng.sample(grid, rng.randint(1, len(grid)))
            for d in sweep:
                counts = tuple([rng.randint(0, top) for _ in range(n_frames)] for _ in FINGERS)
                stamps = list(range(0, 50 * n_frames, 50))
                sessions.append(GraspSession(f"{shape.value[0]}{u:02d}", GraspObject(shape, d), stamps, counts))
    if rng.random() < 0.05:
        sessions.append(rng.choice(sessions))
    rng.shuffle(sessions)
    return sessions, n_frames


def cohort_outcome(build, sessions, n_frames):
    """What ``build`` makes of a cohort: its cells, summary and raw scale,
    each as the repr that pins every float bit, or the type and message of
    the error it raised first."""
    try:
        result = build(sessions, expected_frames=n_frames)
    except GloveError as exc:
        return type(exc), str(exc)
    if isinstance(result, CohortTable):
        assert list(result.values) == result.cells()
        result = result.values, result.summary, result.raw_scale
    values, summary, raw_scale = result
    return repr(sorted(values.items())), repr(list(summary.items())), repr(raw_scale)


def test_build_cohort_matches_oracle_on_random_cohorts():
    rng = random.Random(25)
    kinds = {"duplicate session": 0, "need at least 2": 0, "all values equal": 0, "single contributing user": 0}
    built = 0
    for _ in range(500):
        sessions, n_frames = random_cohort(rng)
        expected = cohort_outcome(build_cohort_oracle, sessions, n_frames)
        assert cohort_outcome(build_cohort, sessions, n_frames) == expected
        if isinstance(expected[0], type):
            (kind,) = [kind for kind in kinds if kind in expected[1]]
            kinds[kind] += 1
        else:
            built += 1
    # Each outcome occurred: a table, and each of the four errors.
    assert built > 100 and min(kinds.values()) > 5, (built, kinds)
