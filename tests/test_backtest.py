import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nowcast.backtest import (
    MIN_TRAIN_FLOOR,
    BacktestConfig,
    BacktestReport,
    directional_accuracy,
    r_squared,
    run_backtest,
)
from nowcast.errors import (
    DegenerateActualsError,
    InvalidParamsError,
    LengthMismatchError,
    NonFiniteError,
    TooShortError,
)
from nowcast.extratrees import ExtraTreesParams
from nowcast.synth import SynthConfig, generate
from nowcast.timeseries import FeatureTable, MonthKey, MonthlySeries, align
from nowcast.transforms import Approach


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_prediction_scores_zero(self):
        assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_hand_computed_example(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.5

    def test_degenerate_actuals(self):
        with pytest.raises(DegenerateActualsError):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    # numpy warnings are errors under this suite's settings, so each case
    # below also shows that r_squared computes its sums without one
    @pytest.mark.parametrize(
        "actual",
        [[0.1] * 3, [1e308] * 17, [-5e-324] * 2, []],
        ids=["mean-rounds-off", "sum-overflows", "subnormal", "empty"],
    )
    def test_equal_actuals_are_degenerate(self, actual):
        # the mean of [0.1] * 3 is 0.10000000000000002, so the deviations
        # are not all zero; every actual being equal is what decides
        with pytest.raises(DegenerateActualsError, match="zero variance"):
            r_squared(actual, [0.2] * len(actual))

    @pytest.mark.parametrize(
        "actual,predicted",
        [
            ([1e200, -1e200], [0.0, 0.0]),  # SS_tot overflows
            ([1.0, 2.0], [1e300, -1e300]),  # SS_res overflows
            ([0.0, 5e-324], [0.0, 0.0]),  # varying actuals, SS_tot underflows to 0
        ],
        ids=["ss-tot-overflows", "ss-res-overflows", "ss-tot-underflows"],
    )
    def test_sums_out_of_float_range_raise_non_finite(self, actual, predicted):
        with pytest.raises(NonFiniteError, match="r_squared is not a finite float"):
            r_squared(actual, predicted)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            r_squared([1.0, 2.0], [1.0])


class TestDirectionalAccuracy:
    def test_perfect_predictions(self):
        actual = [10.0, 12.0, 11.0]
        prior = [9.0, 10.0, 12.0]
        assert directional_accuracy(actual, actual, prior) == 1.0

    def test_mirrored_changes_score_zero(self):
        prior = np.array([10.0, 20.0, 30.0])
        actual = prior + np.array([1.0, -2.0, 3.0])
        mirrored = prior - np.array([1.0, -2.0, 3.0])
        assert directional_accuracy(mirrored, actual, prior) == 0.0

    def test_hand_counted_three_of_four(self):
        prior = [0.0, 0.0, 0.0, 0.0]
        predicted = [1.0, -1.0, 1.0, 0.0]
        actual = [2.0, -3.0, -1.0, 0.0]
        assert directional_accuracy(predicted, actual, prior) == 0.75

    def test_zero_change_counts_as_its_own_direction(self):
        # predicted no-change vs actual rise is a miss, not a half-credit
        assert directional_accuracy([5.0], [6.0], [5.0]) == 0.0
        assert directional_accuracy([5.0], [5.0], [5.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            directional_accuracy([1.0], [1.0, 2.0], [0.0, 0.0])


class TestConfig:
    @pytest.mark.parametrize("approach,floor", [("A", 24), ("B", 13)])
    def test_min_train_floors(self, approach, floor):
        BacktestConfig(floor, Approach(approach), ExtraTreesParams())
        with pytest.raises(InvalidParamsError):
            BacktestConfig(floor - 1, Approach(approach), ExtraTreesParams())

    @pytest.mark.parametrize("months", [24.5, 30.0, True, "30", None])
    def test_non_integer_min_train_months_rejected(self, months):
        with pytest.raises(InvalidParamsError, match="min_train_months must be an integer"):
            BacktestConfig(months, Approach.MONTH_ONEHOT, ExtraTreesParams())

    def test_integer_like_min_train_months_stored_as_plain_int(self):
        config = BacktestConfig(np.int64(30), Approach.MONTH_ONEHOT, ExtraTreesParams())
        assert type(config.min_train_months) is int
        assert config.to_dict() == BacktestConfig(30, "B", ExtraTreesParams()).to_dict()


def linear_table(n_months, seed=0, noise=0.05):
    """Target is a clean linear response to one feature's level changes."""
    rng = np.random.default_rng(seed)
    months = tuple(MonthKey(2013, 1).shift(i) for i in range(n_months))
    driver = np.cumsum(rng.normal(10.0, 4.0, size=n_months))
    target = 3.0 * driver + rng.normal(0.0, noise, size=n_months)
    return FeatureTable(months, {"driver": driver, "target": target}, target="target")


def small_params(seed=11):
    return ExtraTreesParams(n_trees=10, seed=seed)


class TestRunBacktest:
    def test_one_record_per_test_month(self):
        table = linear_table(18)
        config = BacktestConfig(13, Approach.MONTH_ONEHOT, small_params())
        report = run_backtest(table, config, n_threads=1)
        assert len(report.records) == 5
        assert [r.month for r in report.records] == list(table.months[13:])

    def test_too_short_when_no_test_month(self):
        table = linear_table(13)
        config = BacktestConfig(13, Approach.MONTH_ONEHOT, small_params())
        with pytest.raises(TooShortError):
            run_backtest(table, config)

    def test_expanding_training_rows(self):
        table = linear_table(20)
        config = BacktestConfig(14, Approach.MONTH_ONEHOT, small_params())
        report = run_backtest(table, config, n_threads=1)
        used = [r.train_rows_used for r in report.records]
        assert used == list(range(used[0], used[0] + len(used)))

    def test_no_lookahead_hook(self):
        table = linear_table(20)
        config = BacktestConfig(14, Approach.MONTH_ONEHOT, small_params())
        seen = []

        def hook(test_month, train_months):
            seen.append((test_month, train_months))

        run_backtest(table, config, n_threads=1, on_window=hook)
        assert len(seen) == 6
        for test_month, train_months in seen:
            assert max(train_months) < test_month

    def test_summary_metrics_recomputable_from_records(self):
        table = linear_table(26, seed=2)
        config = BacktestConfig(16, Approach.MONTH_ONEHOT, small_params())
        report = run_backtest(table, config, n_threads=1)
        actual = [r.actual_level for r in report.records]
        predicted = [r.predicted_level for r in report.records]
        prior = [
            float(table.target_values()[(r.month - table.start) - 1])
            for r in report.records
        ]
        assert r_squared(actual, predicted) == report.r_squared_level
        assert (
            directional_accuracy(predicted, actual, prior)
            == report.directional_accuracy
        )
        assert (
            r_squared(
                [r.actual_transformed for r in report.records],
                [r.predicted_transformed for r in report.records],
            )
            == report.r_squared_transformed
        )

    @pytest.mark.parametrize("approach", ["A", "B"])
    def test_reconstruction_consistency(self, approach):
        table = linear_table(40, seed=3)
        config = BacktestConfig(
            30 if approach == "A" else 20, Approach(approach), small_params()
        )
        report = run_backtest(table, config, n_threads=1)
        levels = table.target_values()
        diffs = levels[1:] - levels[:-1]
        for r in report.records:
            i = r.month - table.start
            predicted_change = r.predicted_level - levels[i - 1]
            if Approach(approach) is Approach.SEASONAL_DIFF:
                # inverse seasonal adjustment adds last year's change
                expected = r.predicted_transformed + diffs[i - 13]
            else:
                expected = r.predicted_transformed
            assert predicted_change == pytest.approx(expected, abs=1e-9)

    def test_requires_level_scale_table(self):
        from nowcast.transforms import apply_pipeline

        table = linear_table(30)
        transformed = apply_pipeline(table, "B")
        config = BacktestConfig(14, Approach.MONTH_ONEHOT, small_params())
        with pytest.raises(ValueError):
            run_backtest(transformed, config)

    def test_synthetic_linear_target_scores_high(self):
        cfg = SynthConfig(months=48, seed=13, noise_sd=5.0, feature_noise_sd=2.0)
        result = generate(cfg)
        table = align([result.target, *result.features]).with_target("target")
        config = BacktestConfig(30, Approach.MONTH_ONEHOT, ExtraTreesParams(seed=13))
        report = run_backtest(table, config, n_threads=1)
        assert report.r_squared_level >= 0.99

    def test_constant_transformed_actuals_score_none(self):
        # a linear target is constant after approach A's two differences
        months = tuple(MonthKey(2013, 1).shift(i) for i in range(30))
        driver = np.cumsum(np.random.default_rng(0).normal(size=30))
        table = FeatureTable(
            months,
            {"driver": driver, "target": 5.0 * np.arange(30.0)},
            target="target",
        )
        config = BacktestConfig(24, Approach.SEASONAL_DIFF, small_params())
        report = run_backtest(table, config)
        assert report.r_squared_transformed is None
        assert json.loads(report.to_json())["metrics"]["r_squared_transformed"] is None
        assert len(report.records) == 6


@pytest.mark.parametrize("cls", [FeatureTable, MonthlySeries])
def test_windows_are_not_revalidated(monkeypatch, cls):
    """Validation runs as often for 30 windows as for 60: slices and
    windows of a valid table are views, not re-checked copies."""
    calls = []
    validate = cls.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    config = BacktestConfig(13, Approach.MONTH_ONEHOT, ExtraTreesParams(n_trees=1))
    counts = []
    for windows in (30, 60):
        table = linear_table(13 + windows)
        calls.clear()
        assert len(run_backtest(table, config).records) == windows
        counts.append(len(calls))
    assert counts[0] == counts[1]


def record_bits(record):
    floats = (
        record.predicted_transformed,
        record.actual_transformed,
        record.predicted_level,
        record.actual_level,
    )
    return (record.month, *(float.hex(v) for v in floats), record.train_rows_used)


class TestNoLookahead:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(list(Approach)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 6),
        st.data(),
    )
    def test_later_values_never_change_earlier_records(self, approach, seed, cut, data):
        """Changing every value after month t leaves each record up to t as it was."""
        min_train = MIN_TRAIN_FLOOR[approach]
        n = min_train + 8
        rng = np.random.default_rng(seed)
        months = tuple(MonthKey(2010, 1).shift(i) for i in range(n))
        cols = {
            "f0": np.cumsum(rng.normal(size=n)),
            "f1": rng.normal(size=n),
            "target": np.cumsum(rng.normal(1.0, 2.0, size=n)),
        }
        t = min_train + cut  # last month whose records must not move
        later = st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=n - t - 1, max_size=n - t - 1
        )
        poisoned = {name: v.copy() for name, v in cols.items()}
        for v in poisoned.values():
            v[t + 1 :] = data.draw(later)
        config = BacktestConfig(min_train, approach, ExtraTreesParams(n_trees=3, seed=seed))
        clean = run_backtest(FeatureTable(months, cols, "target"), config)
        dirty = run_backtest(FeatureTable(months, poisoned, "target"), config)
        kept = [r for r in clean.records if r.month <= months[t]]
        assert len(kept) == cut + 1
        assert [record_bits(r) for r in kept] == [
            record_bits(r) for r in dirty.records[: len(kept)]
        ]


class TestReportOutputs:
    def make_report(self):
        table = linear_table(20, seed=4)
        config = BacktestConfig(14, Approach.MONTH_ONEHOT, small_params())
        return run_backtest(table, config, n_threads=1)

    def test_json_schema(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == 1
        assert set(doc["metrics"]) == {
            "r_squared_level",
            "directional_accuracy",
            "r_squared_transformed",
        }
        assert doc["config"]["approach"] == "B"
        assert doc["config"]["horizon_months"] == 1
        assert len(doc["predictions"]) == len(report.records)
        first = doc["predictions"][0]
        assert set(first) == {
            "month",
            "predicted_transformed",
            "actual_transformed",
            "predicted_level",
            "actual_level",
            "train_rows_used",
        }

    def test_csv_outputs(self, tmp_path):
        report = self.make_report()
        per_month = tmp_path / "predictions.csv"
        plot = tmp_path / "plot.csv"
        report.write_csv(per_month)
        report.write_plot_csv(plot)
        lines = per_month.read_text().splitlines()
        assert lines[0] == (
            "month,predicted_level,actual_level,"
            "predicted_transformed,actual_transformed,train_rows_used"
        )
        assert len(lines) == len(report.records) + 1
        plot_lines = plot.read_text().splitlines()
        assert plot_lines[0] == "month,actual_level,predicted_level"
        month, actual, predicted = plot_lines[1].split(",")
        assert month == str(report.records[0].month)
        assert float(actual) == report.records[0].actual_level
        assert float(predicted) == report.records[0].predicted_level
