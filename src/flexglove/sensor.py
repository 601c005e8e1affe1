"""Electrical model of one flex sensor in a voltage divider feeding a 10-bit ADC.

The sensor is a variable resistor: flat it sits at its lowest resistance, and
bending it around ever-smaller diameters raises the resistance monotonically.
The divider turns that resistance into a node voltage, the converter turns the
voltage into an integer count, and a bounded uniform noise term models the
one-count flicker a real converter shows on a static input.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import ArgumentError, BendRangeError, DomainError

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


@dataclass(frozen=True)
class CalibrationCurve:
    """Resistance-versus-bend-diameter model for one flex sensor.

    r_flat      resistance (ohm) of the unbent sensor, the asymptote as the
                bend diameter goes to infinity
    r_min_diam  resistance (ohm) at the tightest supported bend
    d_knee      diameter (cm) past which the response is nearly saturated
    d_tightest  smallest bend diameter (cm) the sensor tolerates
    """

    r_flat: float = 25_000.0
    r_min_diam: float = 100_000.0
    d_knee: float = 12.0
    d_tightest: float = 5.0

    def __post_init__(self):
        if not 0 < self.r_flat < self.r_min_diam:
            raise ArgumentError(
                f"need r_min_diam > r_flat > 0, got {self.r_min_diam} / {self.r_flat}"
            )
        if not 0 < self.d_tightest < self.d_knee:
            raise ArgumentError(
                f"need d_knee > d_tightest > 0, got {self.d_knee} / {self.d_tightest}"
            )
        if self.d_knee - self.d_tightest <= STEEP_ZONE_WIDTH_CM:
            raise ArgumentError(
                f"d_knee must sit more than {STEEP_ZONE_WIDTH_CM} cm above d_tightest"
            )


@dataclass(frozen=True)
class SensorConfig:
    """One sensor channel: calibration curve, divider resistor and converter."""

    curve: CalibrationCurve = field(default_factory=CalibrationCurve)
    r_fixed: float = 47_000.0
    vcc: float = 5.0
    adc_levels: int = 1024
    noise_amplitude: int = 1

    def __post_init__(self):
        if not self.r_fixed > 0:
            raise ArgumentError(f"r_fixed must be positive, got {self.r_fixed}")
        if not self.vcc > 0:
            raise ArgumentError(f"vcc must be positive, got {self.vcc}")
        if int(self.adc_levels) != self.adc_levels or self.adc_levels < 2:
            raise ArgumentError(f"adc_levels must be an integer >= 2, got {self.adc_levels}")
        if int(self.noise_amplitude) != self.noise_amplitude or self.noise_amplitude < 0:
            raise ArgumentError(
                f"noise_amplitude must be a non-negative integer, got {self.noise_amplitude}"
            )


def resistance_at_diameter(d: float, curve: CalibrationCurve) -> float:
    """Sensor resistance (ohm) when conformed to a bend of diameter ``d`` cm.

    Non-increasing in ``d``; exactly ``r_min_diam`` at the tightest bend and
    approaching ``r_flat`` as the bend opens toward a straight sensor.
    """
    if d < curve.d_tightest:
        raise BendRangeError(
            f"bend diameter {d} cm below sensor minimum {curve.d_tightest} cm"
        )
    swing = curve.r_min_diam - curve.r_flat
    residual = KNEE_RESIDUAL_FRACTION * swing
    shallow_drop = SHALLOW_DROP_FRACTION * swing
    steep_drop = swing - shallow_drop - residual
    steep_start = curve.d_knee - STEEP_ZONE_WIDTH_CM
    if d <= steep_start:
        frac = (d - curve.d_tightest) / (steep_start - curve.d_tightest)
        return curve.r_min_diam - shallow_drop * frac
    if d <= curve.d_knee:
        frac = (d - steep_start) / STEEP_ZONE_WIDTH_CM
        return curve.r_min_diam - shallow_drop - steep_drop * frac
    return curve.r_flat + residual * math.exp(-(d - curve.d_knee) / TAIL_DECAY_CM)


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
    return min(math.floor(v * cfg.adc_levels / cfg.vcc), cfg.adc_levels - 1)


def adc_to_voltage(adc: int, cfg: SensorConfig) -> float:
    """Voltage corresponding to one converter count (about 4.9 mV per unit)."""
    if not 0 <= adc <= cfg.adc_levels - 1:
        raise DomainError(f"count {adc} outside 0..{cfg.adc_levels - 1}")
    return adc * cfg.vcc / cfg.adc_levels


def sample_with_noise(clean_adc: int, rng: random.Random, cfg: SensorConfig) -> int:
    """One noisy reading: the clean count plus a uniform integer in +-amplitude.

    Deterministic for a given RNG state; clamped to the converter range.
    """
    if not 0 <= clean_adc <= cfg.adc_levels - 1:
        raise DomainError(f"count {clean_adc} outside 0..{cfg.adc_levels - 1}")
    amp = int(cfg.noise_amplitude)
    noisy = clean_adc if amp == 0 else clean_adc + rng.randint(-amp, amp)
    return max(0, min(noisy, cfg.adc_levels - 1))


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
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ArgumentError(f"config line {lineno}: expected 'key = value', got {line!r}")
        if key not in _CURVE_KEYS + _CONFIG_KEYS:
            raise ArgumentError(f"config line {lineno}: unknown key {key!r}")
        try:
            number = float(value)
        except ValueError:
            raise ArgumentError(f"config line {lineno}: {value!r} is not a number") from None
        if not math.isfinite(number):
            raise ArgumentError(f"config line {lineno}: {key} must be finite, got {value!r}")
        if key in _INTEGER_KEYS:
            if not number.is_integer():
                raise ArgumentError(f"config line {lineno}: {key} must be an integer, got {value!r}")
            number = int(number)
        raw[key] = number
    curve_kwargs = {k: raw.pop(k) for k in _CURVE_KEYS if k in raw}
    return SensorConfig(curve=CalibrationCurve(**curve_kwargs), **raw)


def format_config(cfg: SensorConfig) -> str:
    lines = ["# flex sensor channel configuration"]
    for key in _CURVE_KEYS:
        lines.append(f"{key} = {getattr(cfg.curve, key)!r}")
    lines.append(f"r_fixed = {cfg.r_fixed!r}")
    lines.append(f"vcc = {cfg.vcc!r}")
    lines.append(f"adc_levels = {cfg.adc_levels}")
    lines.append(f"noise_amplitude = {cfg.noise_amplitude}")
    return "\n".join(lines) + "\n"


def load_config(path) -> SensorConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
