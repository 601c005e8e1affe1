import math
import random

import pytest
from hypothesis import example, given, strategies as st

from flexglove import (
    ArgumentError,
    GraspObject,
    PreconditionViolation,
    Shape,
    build_centroids,
    classify_session,
    discriminability,
)
from flexglove.classify import Centroid, centroids_from_csv, centroids_to_csv
from flexglove.stats import CohortTable
from flexglove.types import FINGERS
from oracles import session_from_rows, verdict_at


def table_from_cells(cells):
    return CohortTable(values={k: tuple(v) for k, v in cells.items()})


def uniform_cells(shape, diameter, values):
    return {(shape, diameter, f): values for f in FINGERS}


class TestDiscriminability:
    def test_disjoint_pinky_separates(self):
        cells = {}
        cells.update(uniform_cells(Shape.SPHERE, 8.0, (0.5, 0.5)))
        cells.update(uniform_cells(Shape.CYLINDER, 8.0, (0.5, 0.5)))
        cells[(Shape.SPHERE, 8.0, "pinky")] = (0.19, 0.21)
        cells[(Shape.CYLINDER, 8.0, "pinky")] = (0.79, 0.81)
        verdict = verdict_at(discriminability(table_from_cells(cells)), 8.0)
        assert not verdict.overlap_by_finger["pinky"]
        assert verdict.discriminable

    def test_coincident_intervals_do_not_separate(self):
        cells = {}
        cells.update(uniform_cells(Shape.SPHERE, 8.0, (0.4, 0.6)))
        cells.update(uniform_cells(Shape.CYLINDER, 8.0, (0.4, 0.6)))
        assert not verdict_at(discriminability(table_from_cells(cells)), 8.0).discriminable

    def test_overall_verdict_is_or_over_fingers(self):
        cells = {}
        cells.update(uniform_cells(Shape.SPHERE, 8.0, (0.5, 0.5)))
        cells.update(uniform_cells(Shape.CYLINDER, 8.0, (0.5, 0.5)))
        verdict = verdict_at(discriminability(table_from_cells(cells)), 8.0)
        assert verdict.discriminable == any(
            not verdict.overlap_by_finger[f] for f in FINGERS
        )

    def test_no_common_diameter_rejected(self):
        cells = {}
        cells.update(uniform_cells(Shape.SPHERE, 8.0, (0.5, 0.5)))
        cells.update(uniform_cells(Shape.CYLINDER, 9.0, (0.5, 0.5)))
        with pytest.raises(PreconditionViolation):
            discriminability(table_from_cells(cells))

    def test_lone_diameters_reported_not_comparable(self):
        cells = {}
        cells.update(uniform_cells(Shape.SPHERE, 8.0, (0.5, 0.5)))
        cells.update(uniform_cells(Shape.CYLINDER, 8.0, (0.5, 0.5)))
        cells.update(uniform_cells(Shape.SPHERE, 9.0, (0.5, 0.5)))
        verdicts = discriminability(table_from_cells(cells))
        assert [v.diameter_cm for v in verdicts] == [8.0]

    def test_missing_shape_rejected(self):
        with pytest.raises(PreconditionViolation):
            discriminability(table_from_cells(uniform_cells(Shape.SPHERE, 8.0, (0.5, 0.5))))

    def test_default_cohort_flags_lone_10cm_sphere(self, default_table):
        assert 10.0 in default_table.diameters(Shape.SPHERE)
        assert 10.0 not in default_table.diameters(Shape.CYLINDER)
        assert 10.0 not in [v.diameter_cm for v in discriminability(default_table)]


class TestCentroids:
    def test_single_cell_table(self):
        table = table_from_cells(uniform_cells(Shape.SPHERE, 8.0, (0.4, 0.6)))
        centroids = build_centroids(table)
        assert centroids == [Centroid(Shape.SPHERE, 8.0, (0.5,) * 5)]

    def test_default_cohort_counts(self, default_table):
        centroids = build_centroids(default_table)
        spheres = [c for c in centroids if c.shape is Shape.SPHERE]
        cylinders = [c for c in centroids if c.shape is Shape.CYLINDER]
        assert len(spheres) == 11 and len(cylinders) == 10

    def test_entries_stay_in_unit_interval(self, default_table):
        for centroid in build_centroids(default_table):
            assert all(0.0 <= v <= 1.0 for v in centroid.vector)

    def test_empty_table_rejected(self):
        with pytest.raises(PreconditionViolation):
            build_centroids(CohortTable(values={}))


def query_session(raw, shape=Shape.SPHERE, diameter=8.0, user="q"):
    frames = [(i * 50, *raw) for i in range(100)]
    return session_from_rows(user, GraspObject(shape, diameter), frames)


def simple_context(lo=0.0, hi=128.0):
    return {shape: ((lo,) * len(FINGERS), (hi,) * len(FINGERS)) for shape in Shape}


class TestClassifySession:
    def test_session_at_centroid_has_zero_distance(self):
        # raw counts of 32/128 -> normalized 0.25 exactly
        centroids = [
            Centroid(Shape.SPHERE, 8.0, (0.25,) * 5),
            Centroid(Shape.SPHERE, 9.0, (0.75,) * 5),
        ]
        shape, diameter, distance = classify_session(
            query_session((32,) * 5), centroids, simple_context()
        )
        assert (shape, diameter, distance) == (Shape.SPHERE, 8.0, 0.0)

    def test_equidistant_prefers_smaller_diameter(self):
        centroids = [
            Centroid(Shape.SPHERE, 9.0, (0.75,) * 5),
            Centroid(Shape.SPHERE, 8.0, (0.25,) * 5),
        ]
        shape, diameter, _ = classify_session(
            query_session((64,) * 5), centroids, simple_context()
        )
        assert (shape, diameter) == (Shape.SPHERE, 8.0)

    def test_equidistant_same_diameter_prefers_sphere(self):
        centroids = [
            Centroid(Shape.CYLINDER, 8.0, (0.25,) * 5),
            Centroid(Shape.SPHERE, 8.0, (0.25,) * 5),
        ]
        shape, _, _ = classify_session(query_session((32,) * 5), centroids, simple_context())
        assert shape is Shape.SPHERE

    def test_equidistant_smaller_diameter_beats_sphere(self):
        # diameter is the first tie-break, shape only the second
        centroids = [
            Centroid(Shape.SPHERE, 9.0, (0.75,) * 5),
            Centroid(Shape.CYLINDER, 8.0, (0.25,) * 5),
            Centroid(Shape.SPHERE, 8.5, (1.0,) * 5),
        ]
        assert classify_session(query_session((64,) * 5), centroids, simple_context()) == (
            Shape.CYLINDER, 8.0, math.dist((0.5,) * 5, (0.25,) * 5)
        )

    def test_repeated_centroid_classifies(self):
        # A centroid file may not repeat a row, but a library caller's list
        # may: two centroids that tie on every rank still give one answer.
        centroids = [Centroid(Shape.SPHERE, 8.0, (0.25,) * 5), Centroid(Shape.CYLINDER, 9.0, (0.75,) * 5)]
        session = query_session((32,) * 5)
        assert classify_session(session, centroids * 2, simple_context()) == (Shape.SPHERE, 8.0, 0.0)

    def test_centroid_order_is_irrelevant(self):
        rng = random.Random(4)
        centroids = [
            Centroid(Shape.SPHERE, float(d), (d / 20.0,) * 5) for d in range(6, 17)
        ] + [Centroid(Shape.CYLINDER, float(d), (d / 25.0,) * 5) for d in range(6, 17)]
        session = query_session((70,) * 5)
        reference = classify_session(session, centroids, simple_context())
        for _ in range(5):
            rng.shuffle(centroids)
            assert classify_session(session, centroids, simple_context()) == reference

    def test_common_affine_transform_leaves_choice_unchanged(self):
        # doubling every raw count and adding an integer offset rescales the
        # context the same way, so normalization cancels the transform
        centroids = [
            Centroid(Shape.SPHERE, 8.0, (0.25,) * 5),
            Centroid(Shape.SPHERE, 12.0, (0.625,) * 5),
            Centroid(Shape.CYLINDER, 8.0, (0.5,) * 5),
        ]
        plain = classify_session(query_session((40,) * 5), centroids, simple_context(0.0, 128.0))
        scaled = classify_session(
            query_session((2 * 40 + 50,) * 5), centroids, simple_context(50.0, 2 * 128.0 + 50.0)
        )
        assert plain == scaled

    def test_no_centroids_rejected(self):
        with pytest.raises(PreconditionViolation):
            classify_session(query_session((32,) * 5), [], simple_context())

    def test_flat_context_rejected(self):
        centroids = [Centroid(Shape.SPHERE, 8.0, (0.25,) * 5)]
        with pytest.raises(PreconditionViolation):
            classify_session(query_session((32,) * 5), centroids, simple_context(10.0, 10.0))


# Diameters that {:g}, six significant digits, often spells alike: a few
# bases, each nudged by less than, about, or more than its last printed digit.
near_duplicate_diameters = st.one_of(
    st.builds(
        float.__add__,
        st.sampled_from([6.0, 12.3456781, 12.3456789, 0.001, 1e6]),
        st.sampled_from([0.0, 1e-7, 1e-6, 1e-5, 1e-4, 0.5]),
    ),
    st.floats(min_value=0.01, max_value=100.0),
)


class TestCentroidCsv:
    def test_roundtrip(self, default_table):
        centroids = build_centroids(default_table)
        context = default_table.raw_scale
        text = centroids_to_csv(centroids, context)
        parsed_centroids, parsed_context = centroids_from_csv(text)
        assert centroids_to_csv(parsed_centroids, parsed_context) == text
        assert {(c.shape, c.diameter_cm) for c in parsed_centroids} == {
            (c.shape, c.diameter_cm) for c in centroids
        }
        for a, b in zip(parsed_centroids, sorted(centroids, key=lambda c: (c.shape.value, c.diameter_cm))):
            assert a.vector == pytest.approx(b.vector, abs=5e-7)

    def test_rejects_noise(self):
        with pytest.raises(ArgumentError):
            centroids_from_csv("not,a,real,header\n")

    @pytest.mark.parametrize("diameter", ["-6", "0", "-0.0"])
    def test_non_positive_diameter_rejected(self, diameter):
        text = centroids_to_csv([Centroid(Shape.SPHERE, 6.0, (0.5,) * 5)], simple_context())
        assert text.split("\n")[1].startswith("centroid,sphere,6,")
        with pytest.raises(ArgumentError) as exc:
            centroids_from_csv(text.replace("centroid,sphere,6,", f"centroid,sphere,{diameter},"))
        assert str(exc.value) == f"centroid file line 2: diameter_cm must be positive, got '{diameter}'"

    @given(st.lists(st.tuples(st.sampled_from(Shape), near_duplicate_diameters), min_size=1, max_size=8))
    @example([(Shape.SPHERE, 12.3456789), (Shape.SPHERE, 12.34567891)])  # both wrote as 12.3457
    @example([(Shape.CYLINDER, 6.0), (Shape.SPHERE, 6.0000001)])  # one spelling, two shapes
    def test_writes_only_what_it_reads_back(self, keys):
        """Two diameters of one shape that print alike raise; any other set
        of centroids reads back with the same (shape, spelling) keys."""
        centroids = [Centroid(shape, d, (0.5,) * 5) for shape, d in keys]
        spellings = [(shape, f"{d:g}") for shape, d in keys]
        repeated = {key for key in spellings if spellings.count(key) > 1}
        if repeated:
            with pytest.raises(ArgumentError) as exc:
                centroids_to_csv(centroids, simple_context())
            assert any(
                str(exc.value).startswith(f"{shape.value} sessions at ")
                and str(exc.value).endswith(f" both write as {spelling} cm")
                for shape, spelling in repeated
            )
        else:
            parsed, _ = centroids_from_csv(centroids_to_csv(centroids, simple_context()))
            assert sorted((c.shape, f"{c.diameter_cm:g}") for c in parsed) == sorted(spellings)
