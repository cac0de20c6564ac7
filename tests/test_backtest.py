import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nowcast import backtest
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
from nowcast.extratrees import ExtraTreesParams, fit
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

    def test_no_records(self):
        with pytest.raises(ValueError, match="^directional accuracy needs at least one record$"):
            directional_accuracy([], [], [])


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

    def test_table_without_target_rejected(self):
        table = linear_table(18).with_target(None)
        config = BacktestConfig(13, Approach.MONTH_ONEHOT, small_params())
        with pytest.raises(ValueError, match="^run_backtest requires the table's target"):
            run_backtest(table, config)

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


def outcome(table, config):
    """The report's JSON, or the type and message of what the run raised."""
    try:
        return run_backtest(table, config).to_json()
    except NonFiniteError as exc:
        return type(exc), str(exc)


def fit_on_the_window_alone(table, params, n_threads=None):
    """``fit`` on a new table built from copies of the window's own rows, so
    the block it checks its two input limits on is the window itself."""
    alone = FeatureTable(table.months, dict(table.columns), table.target, table.ledger)
    return fit(alone, params, n_threads)


def fit_noting_exact_checks(checks):
    """``fit``, noting in ``checks`` each exact check that reads the window's
    rows: the ``math.fsum`` of its targets (``"target"``), or the gather of
    its features alone (``"range"``; the forest gathers them with the target)."""
    fsum, matrix = math.fsum, FeatureTable.matrix

    def features(table, names):
        if table.target not in names:
            checks.append("range")
        return matrix(table, names)

    def noting(table, params, n_threads=None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(math, "fsum", lambda values: checks.append("target") or fsum(values))
            m.setattr(FeatureTable, "matrix", features)
            return fit(table, params, n_threads)

    return noting


@settings(max_examples=60, deadline=None)
@given(
    approach=st.sampled_from(list(Approach)),
    n_months=st.integers(26, 40),
    n_features=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    spike=st.sampled_from([None, 1e140, 1e152, 1e154, 1e160, 1e308]),
    spike_column=st.integers(0, 3),
    spike_row=st.integers(0, 39),
    min_samples_split=st.sampled_from([5, 100_000]),
)
# a late spike: the first windows fit, a later one breaks the target limit
@example(Approach.MONTH_ONEHOT, 30, 1, 3, 1e154, 0, 5, 100_000)
# ... or the range of a feature
@example(Approach.SEASONAL_DIFF, 40, 2, 5, 1e308, 1, 3, 100_000)
def test_block_facts_give_the_records_and_errors_of_checking_every_window(
    approach, n_months, n_features, seed, spike, spike_column, spike_row, min_samples_split
):
    # fit settles its range and target limits once on the block every window
    # slices; a reference that fits each window as a table of its own, whose
    # block is that window, must give the same records and errors. A spike of v between neighbours of 0
    # differences to v then -v: past 1e150 the target's exact sum is taken,
    # from 1e154 it overflows, and 1e308 overflows any spread
    rng = np.random.default_rng(seed)
    months = tuple(MonthKey(2010, 1).shift(i) for i in range(n_months))
    columns = {f"x{j}": np.cumsum(rng.normal(size=n_months)) for j in range(n_features)}
    columns["y"] = np.cumsum(rng.normal(size=n_months))
    spiked = None
    if spike is not None:
        spiked = list(columns)[-1 - spike_column % len(columns)]  # 0 is the target
        row = n_months - 1 - spike_row % n_months  # 0 is the last month
        columns[spiked][max(row - 1, 0) : row + 2] = 0.0
        columns[spiked][row] = spike
    table = FeatureTable(months, columns, target="y")
    config = BacktestConfig(
        MIN_TRAIN_FLOOR[approach],
        approach,
        ExtraTreesParams(n_trees=2, min_samples_split=min_samples_split, seed=seed),
    )
    checks = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(backtest, "fit", fit_noting_exact_checks(checks))
        got = outcome(table, config)
        m.setattr(backtest, "fit", fit_on_the_window_alone)
        assert got == outcome(table, config)
    # a block within a limit leaves every window's own rows unread for it
    assert "target" not in checks or (spike >= 1e152 and spiked == "y")
    assert "range" not in checks or spike == 1e308


def test_a_feature_near_the_largest_float_of_one_sign_fits_through_the_exact_check():
    # 2 x max|x| overflows, so the block does not settle the range limit, but
    # the window's own range is about 5e305: the exact check passes and the
    # trees split on the feature
    months = tuple(MonthKey(2010, 1).shift(i) for i in range(6))
    x = 1e308 + 1e305 * np.arange(6.0)
    table = FeatureTable(months, {"x": x, "y": np.arange(6.0)}, target="y")
    checks = []
    params = ExtraTreesParams(n_trees=3, min_samples_split=2, seed=1)
    model = fit_noting_exact_checks(checks)(table, params)
    assert checks == ["range"]
    assert all(tree.feature[0] == 0 for tree in model.trees)
