"""flexglove: desk-scale simulator and analysis stack for a five-finger
flex-sensor data glove.

The package models one flex sensor electrically (divider + 10-bit ADC),
simulates users grasping spheres and cylinders, parses/writes the session
file format, and runs the normalization / SEM / regression / discriminability
pipeline plus a nearest-centroid classifier over the results.
"""

__version__ = "0.1.0"

from .classify import (
    Centroid,
    build_centroids,
    classify_session,
    discriminability,
)
from .errors import (
    ArgumentError,
    BendRangeError,
    DegenerateRange,
    DomainError,
    GloveError,
    MalformedFrame,
    MalformedHeader,
    OrderViolation,
    ParseError,
    PreconditionViolation,
    RangeViolation,
    SchemaError,
)
from .sensor import (
    CalibrationCurve,
    SensorConfig,
    adc_to_voltage,
    clean_adc_at_diameter,
    divider_voltage,
    noise_draws,
    quantize,
    resistance_at_diameter,
    sample_with_noise,
    sensor_node_voltage,
)
from .session_io import (
    format_session,
    parse_frame,
    read_session,
    read_session_file,
    write_session_file,
)
from .simulate import (
    DEFAULT_PROFILE_TABLE,
    FingerProfile,
    HandProfile,
    finger_bend_diameter,
    make_hand_profile,
    seeded_random,
    simulate_cohort,
    simulate_session,
)
from .stats import (
    CohortTable,
    FingerStats,
    RegressionFit,
    build_cohort,
    cohort_fits,
    intervals_overlap,
    linear_fit,
    min_max_normalize,
    sem,
    session_means,
)
from .types import (
    FINGERS,
    GraspObject,
    GraspSession,
    Shape,
    default_objects,
)
