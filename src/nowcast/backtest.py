"""Expanding-window walk-forward evaluation.

Each test month gets a fresh model trained on everything strictly before
it; the transformed one-month-ahead prediction is turned back into a level
using actual history as anchors, and the whole run is scored with
R-squared (level and transformed scale) plus directional accuracy.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateActualsError,
    InvalidParamsError,
    LengthMismatchError,
    NonFiniteError,
    TooShortError,
)
from .extratrees import ExtraTreesParams, fit, predict
from .timeseries import FeatureTable, MonthKey
from .transforms import Approach, apply_pipeline, reconstruct_level, required_history

REPORT_SCHEMA_VERSION = 1

MIN_TRAIN_FLOOR = {Approach.SEASONAL_DIFF: 24, Approach.MONTH_ONEHOT: 13}


def r_squared(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot.

    ``actual`` must vary: an empty or constant actual sequence (every value
    equal) has no variance to explain and raises
    :class:`DegenerateActualsError`. :class:`NonFiniteError` is raised when
    SS_tot overflows a float, or when the result is not finite (SS_res
    overflows, or SS_tot underflows to zero).
    """
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape:
        raise LengthMismatchError(f"length mismatch: {a.shape} vs {p.shape}")
    if not a.size or (a == a[0]).all():
        raise DegenerateActualsError("actual values have zero variance")
    with np.errstate(all="ignore"):
        ss_tot = np.sum((a - a.mean()) ** 2)
        ss_res = np.sum((a - p) ** 2)
        score = 1.0 - ss_res / ss_tot
    if not (np.isfinite(ss_tot) and np.isfinite(score)):
        raise NonFiniteError(
            f"r_squared is not a finite float: SS_res={float(ss_res)!r}, SS_tot={float(ss_tot)!r}"
        )
    return float(score)


def directional_accuracy(
    predicted_levels: Sequence[float],
    actual_levels: Sequence[float],
    prior_actual_levels: Sequence[float],
) -> float:
    """Fraction of months whose predicted change has the realized sign.

    Signs are three-valued (-, 0, +) against the prior month's actual
    level, so a correctly predicted "no change" counts as a match.
    """
    p = np.asarray(predicted_levels, dtype=np.float64)
    a = np.asarray(actual_levels, dtype=np.float64)
    prior = np.asarray(prior_actual_levels, dtype=np.float64)
    if not (p.shape == a.shape == prior.shape):
        raise LengthMismatchError(
            f"length mismatch: {p.shape}, {a.shape}, {prior.shape}"
        )
    if p.size == 0:
        raise ValueError("directional accuracy needs at least one record")
    return float(np.mean(np.sign(p - prior) == np.sign(a - prior)))


@dataclass(frozen=True)
class BacktestConfig:
    """Walk-forward settings; the horizon is fixed at one month."""

    min_train_months: int
    approach: Approach
    model_params: ExtraTreesParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "approach", Approach(self.approach))
        floor = MIN_TRAIN_FLOOR[self.approach]
        if self.min_train_months < floor:
            raise InvalidParamsError(
                f"approach {self.approach.value} needs min_train_months >= {floor}, "
                f"got {self.min_train_months}"
            )

    def to_dict(self) -> dict:
        return {
            "min_train_months": self.min_train_months,
            "horizon_months": 1,
            "approach": self.approach.value,
            "model_params": asdict(self.model_params),
        }


@dataclass(frozen=True)
class PredictionRecord:
    """One test month's forecast on both scales."""

    month: MonthKey
    predicted_transformed: float
    actual_transformed: float
    predicted_level: float
    actual_level: float
    train_rows_used: int

    def to_dict(self) -> dict:
        """Field name -> value in field order, with the month as ``YYYY-MM``."""
        return dict(vars(self), month=str(self.month))


CSV_COLUMNS = (
    "month",
    "predicted_level",
    "actual_level",
    "predicted_transformed",
    "actual_transformed",
    "train_rows_used",
)
PLOT_COLUMNS = ("month", "actual_level", "predicted_level")


@dataclass(frozen=True)
class BacktestReport:
    """All per-month records plus summary metrics and the config echo.

    ``r_squared_transformed`` is None when the transformed actuals are
    constant, which leaves it undefined.
    """

    records: tuple[PredictionRecord, ...]
    r_squared_level: float
    directional_accuracy: float
    r_squared_transformed: float | None
    config: BacktestConfig

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "metrics": {
                "r_squared_level": self.r_squared_level,
                "directional_accuracy": self.directional_accuracy,
                "r_squared_transformed": self.r_squared_transformed,
            },
            "predictions": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write_csv(self, path) -> None:
        """Flat per-month records."""
        self._write_columns(path, CSV_COLUMNS)

    def write_plot_csv(self, path) -> None:
        """Plot-ready actual-vs-predicted levels by month."""
        self._write_columns(path, PLOT_COLUMNS)

    def _write_columns(self, path, columns: tuple[str, ...]) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for r in self.records:
                row = r.to_dict()
                writer.writerow([row[c] for c in columns])


WindowHook = Callable[[MonthKey, tuple[MonthKey, ...]], None]


def run_backtest(
    table: FeatureTable,
    config: BacktestConfig,
    n_threads: int | None = None,
    on_window: WindowHook | None = None,
) -> BacktestReport:
    """Walk forward through ``table``, one test month at a time.

    ``table`` holds level-scale columns with the target set and an empty
    ledger. It is transformed once, per the configured approach; for each
    test month a fresh model is fitted on the transformed rows of all
    months strictly before it, so windows expand by one row per step.
    Every transform step looks only backwards, so a month's transformed row
    depends on no later value and nothing from the test month or later
    reaches training; ``tests/test_backtest.py`` checks this by changing
    every value after a month and comparing the records up to it.

    ``on_window`` (when given) is called with the test month and the tuple
    of training months before each fit, which is how the no-lookahead
    property is instrumented in tests.
    """
    if table.target is None:
        raise ValueError("run_backtest requires the table's target to be set")
    if not table.ledger.is_empty:
        raise ValueError("run_backtest expects a level-scale table (empty ledger)")
    n = len(table)
    if n < config.min_train_months + 1:
        raise TooShortError(
            f"table spans {n} months; need at least min_train_months + 1 = "
            f"{config.min_train_months + 1}"
        )

    months = table.months
    target = table.target_series()
    levels = target.values
    transformed = apply_pipeline(table, config.approach)
    actual_transformed = transformed.target_values()
    need = required_history(transformed.ledger)  # leading rows dropped
    first = config.min_train_months  # the first test month's row
    records: list[PredictionRecord] = []
    for t in range(first, n):
        train = transformed.slice(transformed.start, months[t - 1])
        test_row = transformed.slice(months[t], months[t])

        if on_window is not None:
            on_window(months[t], train.months)
        assert train.months[-1] < months[t]  # no lookahead, by construction

        model = fit(train, config.model_params, n_threads=n_threads)
        predicted_transformed = float(predict(model, test_row)[0])

        history = target.window(months[t - need], months[t - 1])
        predicted_level = reconstruct_level(
            transformed.ledger, predicted_transformed, history, months[t]
        )
        records.append(
            PredictionRecord(
                month=months[t],
                predicted_transformed=predicted_transformed,
                actual_transformed=float(actual_transformed[t - need]),
                predicted_level=predicted_level,
                actual_level=float(levels[t]),
                train_rows_used=len(train),
            )
        )

    predicted_levels = [r.predicted_level for r in records]
    try:
        r_squared_transformed = r_squared(
            actual_transformed[first - need :], [r.predicted_transformed for r in records]
        )
    except DegenerateActualsError:
        r_squared_transformed = None  # constant transformed actuals: undefined
    return BacktestReport(
        records=tuple(records),
        r_squared_level=r_squared(levels[first:], predicted_levels),
        directional_accuracy=directional_accuracy(
            predicted_levels, levels[first:], levels[first - 1 : -1]
        ),
        r_squared_transformed=r_squared_transformed,
        config=config,
    )
