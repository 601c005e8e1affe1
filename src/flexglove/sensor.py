"""Electrical model of one flex sensor in a voltage divider feeding a 10-bit ADC.

The sensor is a variable resistor: flat it sits at its lowest resistance, and
bending it around ever-smaller diameters raises the resistance monotonically.
The divider turns that resistance into a node voltage, the converter turns the
voltage into an integer count, and a bounded uniform noise term models the
one-count flicker a real converter shows on a static input.
"""
from __future__ import annotations

import functools
import math
import random
from collections import namedtuple

from .errors import ArgumentError, BendRangeError, DomainError, content_lines, finite_floats
from .types import ADC_MAX

# Shape constants of the calibration-curve family (fractions of the total
# resistance swing and zone widths in cm).  The curve has three zones:
#   shallow  [d_tightest, d_knee - STEEP_ZONE_WIDTH_CM]   gentle linear fall
#   steep    [d_knee - STEEP_ZONE_WIDTH_CM, d_knee]       rapid linear fall
#   tail     (d_knee, inf)                                exponential approach
#                                                         to the flat asymptote
# Beyond the knee only KNEE_RESIDUAL_FRACTION of the swing remains, decaying
# with scale TAIL_DECAY_CM, which is what makes response effectively stop
# changing past the knee.
STEEP_ZONE_WIDTH_CM = 1.0
SHALLOW_DROP_FRACTION = 0.48
KNEE_RESIDUAL_FRACTION = 0.008
TAIL_DECAY_CM = 0.3

# noise_draws takes each draw from one byte of the generator's output; a byte
# holds the 2 * amplitude + 1 values of a draw up to this amplitude.
MAX_NOISE_AMPLITUDE = 127


def _check_finite(**fields) -> None:
    """Raise an ArgumentError naming the first field that is nan or infinite.
    An int is finite however large, and math.isfinite could overflow on it."""
    for name, value in fields.items():
        if not isinstance(value, int) and not math.isfinite(value):
            raise ArgumentError(f"{name} must be finite, got {value}")


class CalibrationCurve(namedtuple("CalibrationCurve", "r_flat r_min_diam d_knee d_tightest")):
    """Resistance-versus-bend-diameter model for one flex sensor.

    r_flat      resistance (ohm) of the unbent sensor, the asymptote as the
                bend diameter goes to infinity
    r_min_diam  resistance (ohm) at the tightest supported bend
    d_knee      diameter (cm) past which the response is nearly saturated
    d_tightest  smallest bend diameter (cm) the sensor tolerates
    """

    __slots__ = ()

    def __new__(cls, r_flat=25_000.0, r_min_diam=100_000.0, d_knee=12.0, d_tightest=5.0):
        _check_finite(r_flat=r_flat, r_min_diam=r_min_diam, d_knee=d_knee, d_tightest=d_tightest)
        if not 0 < r_flat < r_min_diam:
            raise ArgumentError(f"need r_min_diam > r_flat > 0, got {r_min_diam} / {r_flat}")
        if not 0 < d_tightest < d_knee:
            raise ArgumentError(f"need d_knee > d_tightest > 0, got {d_knee} / {d_tightest}")
        if d_knee - d_tightest <= STEEP_ZONE_WIDTH_CM:
            raise ArgumentError(
                f"d_knee must sit more than {STEEP_ZONE_WIDTH_CM} cm above d_tightest"
            )
        return tuple.__new__(cls, (r_flat, r_min_diam, d_knee, d_tightest))

    # _replace builds through _make, so it runs the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))


class SensorConfig(namedtuple("SensorConfig", "curve r_fixed vcc adc_levels noise_amplitude")):
    """One sensor channel: calibration curve, divider resistor and converter."""

    __slots__ = ()

    def __new__(
        cls, curve=CalibrationCurve(), r_fixed=47_000.0, vcc=5.0, adc_levels=1024, noise_amplitude=1
    ):
        _check_finite(r_fixed=r_fixed, vcc=vcc, adc_levels=adc_levels, noise_amplitude=noise_amplitude)
        if not r_fixed > 0:
            raise ArgumentError(f"r_fixed must be positive, got {r_fixed}")
        if not vcc > 0:
            raise ArgumentError(f"vcc must be positive, got {vcc}")
        # Session files carry 10-bit counts, so a wider converter would write
        # files that read_session rejects.
        if int(adc_levels) != adc_levels or not 2 <= adc_levels <= ADC_MAX + 1:
            raise ArgumentError(
                f"adc_levels must be an integer in 2..{ADC_MAX + 1}, got {adc_levels}"
            )
        if int(noise_amplitude) != noise_amplitude or not 0 <= noise_amplitude <= MAX_NOISE_AMPLITUDE:
            raise ArgumentError(
                f"noise_amplitude must be an integer in 0..{MAX_NOISE_AMPLITUDE}, "
                f"got {noise_amplitude}"
            )
        return tuple.__new__(cls, (curve, r_fixed, vcc, int(adc_levels), int(noise_amplitude)))

    _make = classmethod(lambda cls, fields: cls(*fields))


def resistance_at_diameter(d: float, curve: CalibrationCurve) -> float:
    """Sensor resistance (ohm) when conformed to a bend of diameter ``d`` cm.

    Non-increasing in ``d``; exactly ``r_min_diam`` at the tightest bend and
    approaching ``r_flat`` as the bend opens toward a straight sensor.
    """
    r_flat, r_min_diam, d_knee, d_tightest = curve
    if d < d_tightest:
        raise BendRangeError(f"bend diameter {d} cm below sensor minimum {d_tightest} cm")
    swing = r_min_diam - r_flat
    residual = KNEE_RESIDUAL_FRACTION * swing
    shallow_drop = SHALLOW_DROP_FRACTION * swing
    steep_drop = swing - shallow_drop - residual
    steep_start = d_knee - STEEP_ZONE_WIDTH_CM
    if d <= steep_start:
        frac = (d - d_tightest) / (steep_start - d_tightest)
        return r_min_diam - shallow_drop * frac
    if d <= d_knee:
        frac = (d - steep_start) / STEEP_ZONE_WIDTH_CM
        return r_min_diam - shallow_drop - steep_drop * frac
    return r_flat + residual * math.exp(-(d - d_knee) / TAIL_DECAY_CM)


def divider_voltage(r_flex: float, cfg: SensorConfig) -> float:
    """Voltage dropped across the fixed divider resistor, in volts.

    Strictly decreasing in ``r_flex`` and confined to (0, vcc).
    """
    if not r_flex > 0:
        raise DomainError(f"flex resistance must be positive, got {r_flex}")
    return cfg.vcc * cfg.r_fixed / (cfg.r_fixed + r_flex)


def sensor_node_voltage(r_flex: float, cfg: SensorConfig) -> float:
    """Voltage at the node the converter actually samples.

    The sensor sits on the ground side of the divider and the ADC taps the
    sensor node, so the sampled voltage is vcc minus the fixed resistor's
    drop.  This orientation makes the count rise as the sensor bends.
    """
    return cfg.vcc - divider_voltage(r_flex, cfg)


def quantize(v: float, cfg: SensorConfig) -> int:
    """Convert a voltage to an integer count, clamped to the converter range."""
    if v < 0:
        raise DomainError(f"cannot quantize a negative voltage, got {v}")
    # A config of extreme magnitudes can overflow the divider or this scaling.
    scaled = v * cfg.adc_levels / cfg.vcc
    if not math.isfinite(scaled):
        raise DomainError(f"cannot quantize {v} V on a {cfg.vcc} V scale")
    return min(math.floor(scaled), cfg.adc_levels - 1)


def adc_to_voltage(adc: int, cfg: SensorConfig) -> float:
    """Voltage corresponding to one converter count (about 4.9 mV per unit)."""
    if not 0 <= adc <= cfg.adc_levels - 1:
        raise DomainError(f"count {adc} outside 0..{cfg.adc_levels - 1}")
    return adc * cfg.vcc / cfg.adc_levels


@functools.cache
def _draw_tables(span: int) -> tuple[bytes, bytes]:
    """The translate table from a top byte to its top k bits, and the rejected values."""
    k = span.bit_length()
    return bytes(b >> (8 - k) for b in range(256)), bytes(range(span, 1 << k))


def noise_draws(rng: random.Random, cfg: SensorConfig, count: int) -> bytes:
    """The next ``count`` noise offsets from ``rng``, each in 0..2 * amplitude.

    The stream every noisy reading rests on: exactly the values of
    rng.randrange(2 * amplitude + 1) drawn one at a time, that is a run of
    32-bit MT words, the top k = span.bit_length() bits of each a draw, values
    >= span rejected (amplitude 0 draws 0s).  getrandbits(32 * m) returns m
    words least significant first, so byte 3 of each little-endian 4-byte group
    is a word's top byte, which holds those k <= 8 bits.  The last call's
    unused words are lost, so one call for n + m offsets is not two calls.
    """
    span = 2 * cfg.noise_amplitude + 1
    top_bits, rejected = _draw_tables(span)
    k = span.bit_length()
    draws = b""
    while len(draws) < count:
        # An eighth more words than the draws still owed need on average,
        # so a second pass is rare.
        words = ((count - len(draws)) << k) // span * 9 // 8 + 1
        top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        # Two calls: translate(table, delete) would delete on the input bytes.
        draws += top_bytes.translate(top_bits).translate(None, rejected)
    return draws[:count]


def sample_with_noise(clean_adc: int, draws: bytes, cfg: SensorConfig) -> list[int]:
    """One noisy reading per offset r of ``draws``: the clean count plus
    r - amplitude, clamped to the converter range."""
    amp = cfg.noise_amplitude
    top = cfg.adc_levels - 1
    readings = [max(0, min(v, top)) for v in range(clean_adc - amp, clean_adc + amp + 1)]
    return [readings[r] for r in draws]


def clean_adc_at_diameter(d: float, cfg: SensorConfig) -> int:
    """Noise-free count for a sensor bent to diameter ``d`` cm."""
    return quantize(sensor_node_voltage(resistance_at_diameter(d, cfg.curve), cfg), cfg)


# --- config file support ----------------------------------------------------
#
# The on-disk format is plain "key = value" lines; '#' starts a comment.
# Recognized keys (all optional, defaults above):
#   r_flat, r_min_diam, d_knee, d_tightest          calibration curve
#   r_fixed, vcc, adc_levels, noise_amplitude       divider / converter

_CURVE_KEYS = ("r_flat", "r_min_diam", "d_knee", "d_tightest")
_CONFIG_KEYS = ("r_fixed", "vcc", "adc_levels", "noise_amplitude")
_INTEGER_KEYS = ("adc_levels", "noise_amplitude")


def parse_config(text: str) -> SensorConfig:
    """Build a SensorConfig from key-value text; unknown keys are an error."""
    raw: dict[str, float | int] = {}
    for lineno, line in content_lines(text):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ArgumentError(f"config line {lineno}: expected 'key = value', got {line!r}")
        if key not in _CURVE_KEYS + _CONFIG_KEYS:
            raise ArgumentError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ArgumentError(f"config line {lineno}: repeats the key {key!r}")
        [number] = finite_floats([value], [key], f"config line {lineno}")
        if key in _INTEGER_KEYS:
            if not number.is_integer():
                raise ArgumentError(f"config line {lineno}: {key} must be an integer, got {value!r}")
            number = int(number)
        raw[key] = number
    curve_kwargs = {k: raw.pop(k) for k in _CURVE_KEYS if k in raw}
    return SensorConfig(curve=CalibrationCurve(**curve_kwargs), **raw)
