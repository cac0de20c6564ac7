import math

import numpy as np
import pytest

from nowcast.errors import InvalidConfigError
from nowcast.synth import (
    BASE_LEVEL,
    START_MONTH,
    SynthConfig,
    generate,
    sinusoidal_amplitudes,
)
from nowcast.timeseries import MonthKey
from nowcast.transforms import first_difference, seasonal_difference

FLAT = (0.0,) * 12


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"months": 12},
            {"months": 48, "noise_sd": -1.0},
            {"months": 48, "n_features": 0},
            {"months": 48, "seasonal_amplitudes": (1.0,) * 11},
            {"months": 48, "seed": -1},
            {"months": 48, "shock_month": MonthKey(2030, 1)},
            {"months": 95_857},  # its last month would be 10000-01
            {"months": 48, "trend_per_month": math.inf},
            {"months": 48, "noise_sd": math.nan},
            {"months": 48, "seasonal_amplitudes": (math.nan,) * 12},
            {"months": 48, "feature_noise_sd": -math.inf},
            {"months": 48, "shock_size": True},
            {"months": 48, "seasonal_amplitudes": (0.0,) * 11 + ("1",)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        kwargs.setdefault("seed", 1)
        with pytest.raises(InvalidConfigError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("name", ["trend_per_month", "noise_sd", "feature_noise_sd",
                                      "shock_size"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, "1.0", None])
    def test_sizes_must_be_finite_reals(self, name, value):
        with pytest.raises(InvalidConfigError, match=f"^{name} must be a finite real number, got"):
            SynthConfig(months=48, seed=1, **{name: value})

    def test_seasonal_amplitudes_named_by_index(self):
        amplitudes = (0.0,) * 5 + (math.inf,) + (0.0,) * 6
        with pytest.raises(InvalidConfigError, match=r"^seasonal_amplitudes\[5\] must be a finite"):
            SynthConfig(months=48, seed=1, seasonal_amplitudes=amplitudes)

    def test_negative_zero_noise_stored_as_zero(self):
        config = SynthConfig(months=48, seed=1, noise_sd=-0.0, feature_noise_sd=-0.0)
        signs = [math.copysign(1.0, sd) for sd in (config.noise_sd, config.feature_noise_sd)]
        assert signs == [1.0, 1.0]
        assert repr(generate(config).truth["feature_noise_sd"]) == "0.0"

    def test_overflow_in_generate_raises_without_warnings(self):
        # under pytest a numpy warning is an error, so reaching the raise shows there was none
        for kwargs in [{"trend_per_month": 1e308}, {"noise_sd": 1e308},
                       {"shock_month": START_MONTH, "shock_size": -1.7e308}]:
            with pytest.raises(InvalidConfigError, match="^generated values overflow a float"):
                generate(SynthConfig(months=48, seed=1, **kwargs))

    def test_months_may_run_to_9999_12(self):
        # the last month YYYY-MM writes
        config = SynthConfig(months=95_856, seed=1)
        assert START_MONTH.shift(config.months - 1) == MonthKey(9999, 12)

    @pytest.mark.parametrize("name", ["months", "n_features", "seed"])
    @pytest.mark.parametrize("value", [40.5, 48.0, True, False, "48", None])
    def test_non_integers_rejected(self, name, value):
        kwargs = {"months": 48, "seed": 1, name: value}
        with pytest.raises(InvalidConfigError, match=f"{name} must be an integer, got"):
            SynthConfig(**kwargs)

    def test_integer_likes_stored_as_plain_ints(self):
        config = SynthConfig(months=np.int64(40), seed=np.uint64(3), n_features=np.int32(2))
        assert [type(v) for v in (config.months, config.seed, config.n_features)] == [int] * 3
        assert generate(config).truth == generate(SynthConfig(40, 3, n_features=2)).truth

    def test_sinusoidal_amplitudes_span_requested_peak(self):
        amps = sinusoidal_amplitudes(300.0)
        assert len(amps) == 12
        assert max(amps) == pytest.approx(300.0, abs=1e-9)
        assert min(amps) == pytest.approx(-300.0, abs=1e-9)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(months=48, seed=123)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.target.values, b.target.values)
        for fa, fb in zip(a.features, b.features):
            np.testing.assert_array_equal(fa.values, fb.values)
        assert a.truth == b.truth

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(months=48, seed=1))
        b = generate(SynthConfig(months=48, seed=2))
        assert not np.array_equal(a.target.values, b.target.values)

    def test_noiseless_flat_target_is_exactly_linear(self):
        cfg = SynthConfig(
            months=48, seed=5, noise_sd=0.0, seasonal_amplitudes=FLAT
        )
        result = generate(cfg)
        t = np.arange(48)
        np.testing.assert_array_equal(
            result.target.values, BASE_LEVEL + cfg.trend_per_month * t
        )
        diffs = first_difference(result.target)
        np.testing.assert_allclose(diffs.values, cfg.trend_per_month, atol=1e-9)

    def test_noiseless_seasonal_double_difference_is_zero(self):
        cfg = SynthConfig(months=60, seed=5, noise_sd=0.0)
        result = generate(cfg)
        d2 = seasonal_difference(first_difference(result.target))
        np.testing.assert_allclose(d2.values, 0.0, atol=1e-9)

    def test_shock_hits_one_month_and_reverses(self):
        shock_month = START_MONTH.shift(20)
        cfg = SynthConfig(
            months=48,
            seed=5,
            noise_sd=0.0,
            seasonal_amplitudes=FLAT,
            shock_month=shock_month,
            shock_size=-4000.0,
        )
        diffs = first_difference(generate(cfg).target)
        expected = np.full(47, cfg.trend_per_month)
        expected[19] += -4000.0  # the collapse
        expected[20] -= -4000.0  # the reversal one month later
        np.testing.assert_allclose(diffs.values, expected, atol=1e-9)

    def test_features_track_underlying_changes(self):
        cfg = SynthConfig(
            months=48, seed=8, noise_sd=0.0, feature_noise_sd=0.0, n_features=3
        )
        result = generate(cfg)
        target = result.target.values
        for i, feature in enumerate(result.features):
            a = result.truth["feature_coefficients"][i]
            np.testing.assert_allclose(
                feature.values[1:], a * (target[1:] - target[:-1]), atol=1e-9
            )

    def test_truth_ledger_contents(self):
        cfg = SynthConfig(months=48, seed=9, n_features=4)
        truth = generate(cfg).truth
        assert truth["months"] == 48
        assert truth["seed"] == 9
        assert len(truth["feature_coefficients"]) == 4
        assert truth["shock_month"] is None

    def test_series_metadata(self):
        result = generate(SynthConfig(months=36, seed=1, n_features=2))
        assert result.target.name == "target"
        assert result.target.start == START_MONTH
        assert [f.name for f in result.features] == ["feature_01", "feature_02"]
        assert len(result.target) == 36
