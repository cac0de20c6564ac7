"""Seeded synthetic benchmark data.

Generates an employment-like monthly target (linear trend plus an annual
seasonal pattern plus Gaussian observation noise, with an optional
one-month shock) and feature series that track the underlying
month-over-month changes with their own noise. Target and features are
two noisy measurements of the same dynamics: the target's observation
noise is invisible to the features, the features' noise is invisible to
the target.

Everything is a pure function of the config: PCG64 seeds all randomness
and noise is drawn with numpy's Generator.normal (ziggurat method), so
identical configs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .extratrees import _integer
from .timeseries import MonthKey, MonthlySeries

# all generated series start here; the config controls only the length
START_MONTH = MonthKey(2012, 1)

BASE_LEVEL = 130_000.0  # thousands of persons, an employment-like scale

TARGET_NAME = "target"


def sinusoidal_amplitudes(peak: float) -> tuple[float, ...]:
    """A 12-month seasonal pattern: peak * sin(2*pi*k/12) for k = 0..11."""
    return tuple(peak * math.sin(2.0 * math.pi * k / 12.0) for k in range(12))


@dataclass(frozen=True)
class SynthConfig:
    months: int
    seed: int
    trend_per_month: float = 200.0
    seasonal_amplitudes: tuple[float, ...] = field(
        default_factory=lambda: sinusoidal_amplitudes(300.0)
    )
    noise_sd: float = 25.0
    n_features: int = 6
    feature_noise_sd: float = 10.0
    shock_month: MonthKey | None = None
    shock_size: float = 0.0

    def __post_init__(self) -> None:
        for name in ("months", "n_features", "seed"):
            value = _integer(getattr(self, name), name, InvalidConfigError)
            object.__setattr__(self, name, value)
        if self.months < 36:
            raise InvalidConfigError(f"months must be >= 36, got {self.months}")
        if self.noise_sd < 0 or self.feature_noise_sd < 0:
            raise InvalidConfigError("noise standard deviations must be >= 0")
        if self.n_features < 1:
            raise InvalidConfigError(f"n_features must be >= 1, got {self.n_features}")
        if len(self.seasonal_amplitudes) != 12:
            raise InvalidConfigError(
                f"seasonal_amplitudes needs 12 entries, got {len(self.seasonal_amplitudes)}"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must fit in an unsigned 64-bit integer")
        if self.shock_month is not None:
            offset = self.shock_month - START_MONTH
            if not 0 <= offset < self.months:
                raise InvalidConfigError(
                    f"shock_month {self.shock_month} outside generated range "
                    f"{START_MONTH}..{START_MONTH.shift(self.months - 1)}"
                )


@dataclass(frozen=True)
class SynthResult:
    target: MonthlySeries
    features: tuple[MonthlySeries, ...]
    truth: dict


def generate(config: SynthConfig) -> SynthResult:
    """Build the target, its feature series, and a ledger of the true parts.

    Draw order (fixed so outputs are reproducible): feature coefficients,
    then target noise, then the feature noise matrix. The target is the
    underlying path (trend + seasonal + shock) plus observation noise;
    each feature is its coefficient times the underlying path's
    month-over-month change plus its own noise. The first month, which has
    no prior observation, uses the trend as the expected change.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = config.months
    coefficients = rng.uniform(0.6, 1.4, size=config.n_features)
    target_noise = rng.normal(0.0, config.noise_sd, size=n)
    feature_noise = rng.normal(0.0, config.feature_noise_sd, size=(config.n_features, n))

    t = np.arange(n)
    month_numbers = np.array([START_MONTH.shift(int(i)).month for i in t])
    seasonal = np.array(config.seasonal_amplitudes)[month_numbers - 1]
    underlying = BASE_LEVEL + config.trend_per_month * t + seasonal
    if config.shock_month is not None:
        underlying[config.shock_month - START_MONTH] += config.shock_size
    target = underlying + target_noise

    changes = np.empty(n)
    changes[0] = config.trend_per_month
    changes[1:] = underlying[1:] - underlying[:-1]

    features = tuple(
        MonthlySeries(
            START_MONTH,
            coefficients[i] * changes + feature_noise[i],
            name=f"feature_{i + 1:02d}",
            units="persons (change signal)",
        )
        for i in range(config.n_features)
    )
    truth = {
        "start": str(START_MONTH),
        "months": n,
        "seed": config.seed,
        "base_level": BASE_LEVEL,
        "trend_per_month": config.trend_per_month,
        "seasonal_amplitudes": list(config.seasonal_amplitudes),
        "noise_sd": config.noise_sd,
        "feature_noise_sd": config.feature_noise_sd,
        "feature_coefficients": [float(c) for c in coefficients],
        "shock_month": str(config.shock_month) if config.shock_month else None,
        "shock_size": config.shock_size,
    }
    target_series = MonthlySeries(
        START_MONTH, target, name=TARGET_NAME, units="thousands of persons"
    )
    return SynthResult(target_series, features, truth)
