"""Detrending, deseasoning, month one-hot encoding, and exact inverses.

Two fixed pipelines are provided for model input preparation, each stated
once as the :class:`TransformLedger` its :class:`Approach` carries:

* :attr:`Approach.SEASONAL_DIFF` ("A") — first difference every column,
  then difference again at lag 12, so both trend and annual structure are
  removed from features and target alike.
* :attr:`Approach.MONTH_ONEHOT` ("B") — first difference every column and
  append twelve calendar-month indicator columns so the model can learn the
  seasonal pattern itself.

:func:`apply_pipeline` applies a ledger's steps in order and drops
:func:`required_history` rows from the front. Every step looks only
backwards, so transforming a table and then cutting it at a month gives
the same rows, bit for bit, as cutting first and transforming the prefix.
:func:`reconstruct_level` walks the ledger backwards to turn a transformed
prediction back into a level, anchored on actual history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AnchorMismatchError, TooShortError
from .ledger import (
    FirstDifference,
    MonthOneHot,
    SeasonalDifference,
    TransformLedger,
)
from .timeseries import FeatureTable, MonthKey, MonthlySeries

ONE_HOT_COLUMNS = tuple(f"month_{m:02d}" for m in range(1, 13))


@dataclass(frozen=True)
class OneHotVector:
    """Binary 12-vector with exactly one component set."""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.components) != 12:
            raise ValueError(f"expected 12 components, got {len(self.components)}")
        if any(c not in (0, 1) for c in self.components):
            raise ValueError("components must be 0 or 1")
        if sum(self.components) != 1:
            raise ValueError("exactly one component must be 1")

    @property
    def month_number(self) -> int:
        """1-based month this vector encodes."""
        return self.components.index(1) + 1


def one_hot_month(month: MonthKey) -> OneHotVector:
    """Encode a calendar month as a 12-component indicator vector."""
    return OneHotVector(tuple(1 if m == month.month else 0 for m in range(1, 13)))


def first_difference(series: MonthlySeries) -> MonthlySeries:
    """Month-over-month changes: output[i] = input[i+1] - input[i].

    The result starts one month after the input and is one element shorter.
    """
    if len(series) < 2:
        raise TooShortError(f"need at least 2 values to difference, got {len(series)}")
    diffs = series.values[1:] - series.values[:-1]
    return MonthlySeries(series.start.shift(1), diffs, series.name, series.units)


def seasonal_difference(series: MonthlySeries, period: int = 12) -> MonthlySeries:
    """Changes against the value ``period`` months earlier."""
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if len(series) <= period:
        raise TooShortError(
            f"need more than {period} values to difference seasonally, got {len(series)}"
        )
    diffs = series.values[period:] - series.values[:-period]
    return MonthlySeries(series.start.shift(period), diffs, series.name, series.units)


def invert_first_difference(
    diffs: MonthlySeries, anchor_value: float, anchor_month: MonthKey
) -> MonthlySeries:
    """Rebuild levels from first differences by cumulative summation.

    ``anchor_value`` is the level of the month immediately before
    ``diffs.start``; the round trip with :func:`first_difference` is exact.
    """
    if anchor_month != diffs.start.shift(-1):
        raise AnchorMismatchError(
            f"anchor month {anchor_month} must immediately precede {diffs.start}"
        )
    levels = float(anchor_value) + np.cumsum(diffs.values)
    return MonthlySeries(diffs.start, levels, diffs.name, diffs.units)


def invert_seasonal_difference(
    diffs: MonthlySeries, anchor: MonthlySeries, period: int = 12
) -> MonthlySeries:
    """Rebuild the pre-deseasoned series from seasonal differences.

    ``anchor`` must supply exactly the ``period`` values immediately
    preceding ``diffs.start`` on the pre-deseasoned scale. Each output value
    is the diff plus the value one period earlier, drawn from the anchor for
    the first ``period`` positions and from the output afterwards.
    """
    if len(anchor) != period:
        raise AnchorMismatchError(
            f"anchor must supply exactly {period} values, got {len(anchor)}"
        )
    if anchor.end != diffs.start.shift(-1):
        raise AnchorMismatchError(
            f"anchor must end at {diffs.start.shift(-1)}, ends at {anchor.end}"
        )
    n = len(diffs)
    buf = np.empty(period + n, dtype=np.float64)
    buf[:period] = anchor.values
    for i in range(n):
        buf[period + i] = diffs.values[i] + buf[i]
    return MonthlySeries(diffs.start, buf[period:], diffs.name, diffs.units)


class Approach(str, enum.Enum):
    """Model input preparation variants (CLI values ``A`` and ``B``)."""

    SEASONAL_DIFF = "A"
    MONTH_ONEHOT = "B"

    @property
    def ledger(self) -> TransformLedger:
        """The steps :func:`apply_pipeline` applies for this approach."""
        return _LEDGERS[self]


_LEDGERS = {
    Approach.SEASONAL_DIFF: TransformLedger((FirstDifference(), SeasonalDifference(12))),
    Approach.MONTH_ONEHOT: TransformLedger((FirstDifference(), MonthOneHot())),
}


def _difference(series: MonthlySeries, lag: int) -> MonthlySeries:
    return first_difference(series) if lag == 1 else seasonal_difference(series, lag)


def apply_pipeline(table: FeatureTable, approach: Approach | str) -> FeatureTable:
    """Transform every column of a level-scale table for model input.

    The approach's ledger steps run in order; the first
    ``required_history(ledger)`` rows, which lack the lags the differencing
    needs, are dropped from the front, and a table too short to keep one
    row raises :class:`TooShortError`. The returned table carries the
    ledger so :func:`reconstruct_level` can undo it.
    """
    ledger = Approach(approach).ledger
    if table.target is None:
        raise ValueError("apply_pipeline requires the table's target to be set")
    if not table.ledger.is_empty:
        raise ValueError("table has already been transformed (ledger not empty)")

    series = [MonthlySeries(table.start, v, name) for name, v in table.columns.items()]
    for step in ledger.steps:
        if step.lag:
            series = [_difference(s, step.lag) for s in series]
        else:  # month one-hot: twelve indicator columns, data unchanged
            rows = np.array([one_hot_month(mk).components for mk in series[0].months()])
            series += [
                MonthlySeries(series[0].start, rows[:, j], col)
                for j, col in enumerate(ONE_HOT_COLUMNS)
            ]
    months = table.months[required_history(ledger) :]
    return FeatureTable(months, {s.name: s.values for s in series}, table.target, ledger)


def required_history(ledger: TransformLedger) -> int:
    """Months of history the ledger's steps consume.

    :func:`apply_pipeline` drops that many leading rows, and a
    reconstruction needs that many months of actual history.
    """
    return sum(step.lag for step in ledger.steps)


def reconstruct_level(
    ledger: TransformLedger,
    predicted_transformed: float,
    history: MonthlySeries,
    month: MonthKey,
) -> float:
    """Undo a ledger's transforms for a single predicted month.

    ``history`` must hold the actual level-scale values ending exactly at
    the month before ``month`` and covering every lag the ledger's steps
    need. Anchors come from actual history, never from prior predictions,
    mirroring deployment where last month's truth is already published.
    """
    need = required_history(ledger)
    if history.end != month.shift(-1):
        raise AnchorMismatchError(
            f"history must end at {month.shift(-1)}, ends at {history.end}"
        )
    if len(history) < need:
        raise AnchorMismatchError(
            f"ledger needs {need} months of history, got {len(history)}"
        )

    # One-hot steps are identity on the target scale, so only differencing
    # steps take part in the reconstruction walk.
    periods = [step.lag for step in ledger.steps if step.lag]

    # Forward pass: the history as seen just before each differencing step.
    stages = [history]
    for period in periods[:-1]:
        stages.append(_difference(stages[-1], period))

    # Backward pass: add each stage's lagged anchor in reverse step order.
    value = float(predicted_transformed)
    for period, stage in zip(reversed(periods), reversed(stages)):
        value += stage.value_at(month.shift(-period))
    return value
