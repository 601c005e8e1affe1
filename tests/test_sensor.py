import random

import pytest
from hypothesis import given, strategies as st

from flexglove import (
    BendRangeError,
    CalibrationCurve,
    DomainError,
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
from flexglove.sensor import parse_config
from oracles import format_config

CFG = SensorConfig()
CURVE = CFG.curve


class TestResistance:
    def test_flat_asymptote(self):
        assert resistance_at_diameter(1e9, CURVE) == pytest.approx(CURVE.r_flat)

    def test_tightest_bend_endpoint(self):
        assert resistance_at_diameter(CURVE.d_tightest, CURVE) == CURVE.r_min_diam

    def test_default_curve_values(self):
        # shallow zone is linear: 100k - 36k * (8-5)/(11-5)
        assert resistance_at_diameter(8.0, CURVE) == pytest.approx(82_000.0)
        assert resistance_at_diameter(16.0, CURVE) == pytest.approx(25_000.00097, abs=1e-2)
        assert resistance_at_diameter(8.0, CURVE) > resistance_at_diameter(16.0, CURVE)

    def test_below_tightest_raises(self):
        with pytest.raises(BendRangeError):
            resistance_at_diameter(4.99, CURVE)

    @given(
        st.floats(min_value=5.0, max_value=80.0),
        st.floats(min_value=5.0, max_value=80.0),
    )
    def test_non_increasing(self, d1, d2):
        lo, hi = sorted([d1, d2])
        assert resistance_at_diameter(lo, CURVE) >= resistance_at_diameter(hi, CURVE)

    def test_knee_steps_smaller_than_head_steps(self):
        r = {d: resistance_at_diameter(float(d), CURVE) for d in range(5, 23)}
        head = [r[d] - r[d + 1] for d in range(5, 12)]
        tail = [r[d] - r[d + 1] for d in range(12, 22)]
        assert max(tail) < min(head)


class TestDivider:
    def test_equal_resistances_halve_supply(self):
        assert divider_voltage(CFG.r_fixed, CFG) == pytest.approx(CFG.vcc / 2)

    def test_open_flex_kills_voltage(self):
        assert divider_voltage(1e15, CFG) == pytest.approx(0.0, abs=1e-6)

    def test_three_to_one(self):
        assert divider_voltage(3 * CFG.r_fixed, CFG) == 1.25

    def test_nonpositive_resistance_raises(self):
        with pytest.raises(DomainError):
            divider_voltage(0.0, CFG)

    @given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=1, max_value=10**7))
    def test_strictly_decreasing(self, r1, r2):
        if r1 != r2:
            lo, hi = sorted([r1, r2])
            assert divider_voltage(lo, CFG) > divider_voltage(hi, CFG)

    def test_node_voltage_complements_drop(self):
        # the converter taps the sensor side, so the two must sum to vcc
        r = 60_000.0
        assert sensor_node_voltage(r, CFG) + divider_voltage(r, CFG) == pytest.approx(CFG.vcc)

    def test_node_voltage_rises_with_bend(self):
        tight = resistance_at_diameter(6.0, CURVE)
        open_ = resistance_at_diameter(20.0, CURVE)
        assert sensor_node_voltage(tight, CFG) > sensor_node_voltage(open_, CFG)


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, CFG) == 0

    def test_full_scale_clamps(self):
        assert quantize(CFG.vcc, CFG) == 1023

    def test_midpoint(self):
        assert quantize(2.5, CFG) == 512

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            quantize(-0.1, CFG)

    @pytest.mark.parametrize(
        "cfg",
        [
            # vcc * adc_levels overflows.
            SensorConfig(vcc=1e307, r_fixed=1e-3),
            # r_fixed + r_flex and vcc * r_fixed overflow, so the node voltage is nan.
            SensorConfig(r_fixed=1e308, curve=CalibrationCurve(r_min_diam=1.7e308)),
        ],
    )
    def test_overflowing_config_raises(self, cfg):
        with pytest.raises(DomainError, match="cannot quantize"):
            clean_adc_at_diameter(6.0, cfg)

    @given(st.floats(min_value=0.0, max_value=4.9999))
    def test_roundtrip_bracket(self, v):
        adc = quantize(v, CFG)
        low = adc_to_voltage(adc, CFG)
        assert low <= v < low + CFG.vcc / CFG.adc_levels


class TestAdcToVoltage:
    def test_single_count(self):
        assert abs(adc_to_voltage(1, CFG) - 0.0048828125) < 1e-12

    def test_zero(self):
        assert adc_to_voltage(0, CFG) == 0.0

    def test_top_count(self):
        assert adc_to_voltage(1023, CFG) == pytest.approx(4.9951171875)

    @pytest.mark.parametrize("adc", [-1, 1024])
    def test_out_of_range_raises(self, adc):
        with pytest.raises(DomainError):
            adc_to_voltage(adc, CFG)


def noisy(clean, seed, count, cfg=CFG):
    return sample_with_noise(clean, noise_draws(random.Random(seed), cfg, count), cfg)


class TestNoise:
    def test_zero_amplitude_is_identity(self):
        cfg = SensorConfig(noise_amplitude=0)
        assert all(v == 500 for v in noisy(500, 1, 100, cfg))

    def test_clamped_at_floor(self):
        values = set(noisy(0, 2, 200))
        assert values <= {0, 1}

    def test_bounded_span(self):
        values = noisy(500, 3, 1000)
        assert max(values) - min(values) <= 2
        assert all(abs(v - 500) <= CFG.noise_amplitude for v in values)

    def test_deterministic_per_seed(self):
        a = noisy(500, 7, 50)
        b = noisy(500, 7, 50)
        assert a == b


class CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestNoiseDraws:
    @pytest.mark.parametrize("amplitude", [1, 127])
    @pytest.mark.parametrize("count", [0, 1, 5, 1090])
    def test_exactly_count_randrange_values(self, amplitude, count):
        cfg = SensorConfig(noise_amplitude=amplitude)
        for seed in (0, 2020):
            draws = noise_draws(random.Random(seed), cfg, count)
            twin = random.Random(seed)
            assert len(draws) == count
            assert list(draws) == [twin.randrange(2 * amplitude + 1) for _ in range(count)]

    def test_short_first_draw_is_topped_up(self):
        # At seed 0, the seven words drawn for one frame at amplitude 1 hold
        # fewer than five values below 3, so a second getrandbits call follows;
        # the (amplitude 1, one frame, seed 0) session of TestNoiseStream in
        # test_simulate.py takes this path.
        rng, reference = CountingRandom(0), random.Random(0)
        draws = noise_draws(rng, SensorConfig(noise_amplitude=1), 5)
        assert rng.calls > 1
        assert list(draws) == [reference.randrange(3) for _ in range(5)]


class TestEndToEnd:
    def test_adc_non_increasing_in_diameter(self):
        counts = [clean_adc_at_diameter(float(d), CFG) for d in range(5, 23)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_knee_contrast_in_counts(self):
        counts = {d: clean_adc_at_diameter(float(d), CFG) for d in range(5, 23)}
        head = [counts[d] - counts[d + 1] for d in range(5, 12)]
        tail = [counts[d] - counts[d + 1] for d in range(12, 22)]
        assert max(tail) < min(head)


class TestConfigFile:
    def test_roundtrip(self):
        cfg = SensorConfig(
            curve=CalibrationCurve(r_flat=20_000.0, r_min_diam=90_000.0),
            r_fixed=33_000.0,
            noise_amplitude=2,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_partial_overrides_defaults(self):
        cfg = parse_config("noise_amplitude = 0\n")
        assert cfg.noise_amplitude == 0
        assert cfg.r_fixed == CFG.r_fixed

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\nvcc = 3.3  # supply\n")
        assert cfg.vcc == 3.3

    @pytest.mark.parametrize("text", ["bogus = 1\n", "vcc\n", "vcc = abc\n"])
    def test_rejects_malformed(self, text):
        from flexglove import ArgumentError

        with pytest.raises(ArgumentError):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vcc = inf\n", "config line 1: vcc must be finite, got 'inf'"),
            ("# r\nr_fixed = nan\n", "config line 2: r_fixed must be finite, got 'nan'"),
            ("d_knee = -Infinity\n", "config line 1: d_knee must be finite, got '-Infinity'"),
            ("noise_amplitude = 2.5\n", "config line 1: noise_amplitude must be an integer, got '2.5'"),
            ("adc_levels = 1024.5\n", "config line 1: adc_levels must be an integer, got '1024.5'"),
        ],
    )
    def test_rejects_non_finite_and_non_integral(self, text, message):
        from flexglove import ArgumentError

        with pytest.raises(ArgumentError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    def test_integral_float_spelling_accepted(self):
        cfg = parse_config("noise_amplitude = 2.0\nadc_levels = 1e3\n")
        assert (cfg.noise_amplitude, cfg.adc_levels) == (2, 1000)
        assert type(cfg.noise_amplitude) is int and type(cfg.adc_levels) is int

    @pytest.mark.parametrize("levels", [1025, 4096])
    def test_adc_levels_above_wire_range_rejected(self, levels):
        from flexglove import ArgumentError, SensorConfig

        with pytest.raises(ArgumentError, match=r"adc_levels must be an integer in 2\.\.1024"):
            SensorConfig(adc_levels=levels)
        with pytest.raises(ArgumentError, match=r"adc_levels must be an integer in 2\.\.1024"):
            parse_config(f"adc_levels = {levels}\n")

    def test_noise_amplitude_limit(self):
        from flexglove import ArgumentError

        assert parse_config("noise_amplitude = 127\n").noise_amplitude == 127
        with pytest.raises(ArgumentError) as exc:
            parse_config("noise_amplitude = 128\n")
        assert str(exc.value) == "noise_amplitude must be an integer in 0..127, got 128"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make, field",
        [
            *[(CalibrationCurve, key) for key in ("r_flat", "r_min_diam", "d_knee", "d_tightest")],
            *[(SensorConfig, key) for key in ("r_fixed", "vcc", "adc_levels", "noise_amplitude")],
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_constructors_reject_non_finite(self, make, field, value):
        # Library callers skip parse_config's check: vcc=inf once constructed
        # and failed later in clean_adc_at_diameter, and adc_levels=nan and
        # noise_amplitude=inf raised a bare ValueError and OverflowError.
        from flexglove import ArgumentError

        with pytest.raises(ArgumentError) as exc:
            make(**{field: value})
        assert str(exc.value) == f"{field} must be finite, got {value}"

    def test_constructors_take_ints_of_any_size(self):
        from flexglove import ArgumentError

        # An int is finite however large: the range checks reject these, not an overflow.
        with pytest.raises(ArgumentError, match="adc_levels must be an integer in"):
            SensorConfig(adc_levels=10**400)
        assert SensorConfig(r_fixed=10**400).r_fixed == 10**400

    def test_validation_still_applies(self):
        from flexglove import ArgumentError

        with pytest.raises(ArgumentError):
            parse_config("r_flat = 200000\n")
