"""Ordered record of the transforms applied to a feature table.

The ledger is what makes level-scale reconstruction possible: forward steps
are listed in application order, and inverses are applied in reverse order
(see :func:`nowcast.transforms.reconstruct_level`). Each step states its
own ``lag`` (months of history it consumes, 0 for an identity on the
target scale) and ``label``; everything else about a pipeline's geometry is
derived from those.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FirstDifference:
    """value(t) = observation(t) - observation(t - 1)."""

    lag = 1
    label = "first_difference"


@dataclass(frozen=True)
class SeasonalDifference:
    """value(t) = observation(t) - observation(t - period)."""

    period: int = 12

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ValueError(f"seasonal period must be >= 2, got {self.period}")

    @property
    def lag(self) -> int:
        return self.period

    @property
    def label(self) -> str:
        return f"seasonal_difference({self.period})"


@dataclass(frozen=True)
class MonthOneHot:
    """Calendar-month indicator columns; identity on the target scale."""

    lag = 0
    label = "month_one_hot"


TransformStep = FirstDifference | SeasonalDifference | MonthOneHot


@dataclass(frozen=True)
class TransformLedger:
    """Transform steps in the order they were applied."""

    steps: tuple[TransformStep, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def describe(self) -> list[str]:
        """Human-readable step names, e.g. for report JSON."""
        return [step.label for step in self.steps]
