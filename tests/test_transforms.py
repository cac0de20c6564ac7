import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nowcast.errors import (
    AnchorMismatchError,
    ColumnClashError,
    NonFiniteError,
    NowcastError,
    TooShortError,
)
from nowcast.ledger import FirstDifference, MonthOneHot, SeasonalDifference, TransformLedger
from nowcast.timeseries import FeatureTable, MonthKey, MonthlySeries
from nowcast.transforms import (
    ONE_HOT_COLUMNS,
    Approach,
    OneHotVector,
    apply_pipeline,
    first_difference,
    invert_first_difference,
    invert_seasonal_difference,
    one_hot_month,
    reconstruct_level,
    required_history,
)
from nowcast.transforms import _difference, _undifference, seasonal_difference


def series(values, start=MonthKey(2015, 1), name="s"):
    return MonthlySeries(start, np.array(values, dtype=float), name)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestFirstDifference:
    def test_constant_series(self):
        out = first_difference(series([5, 5, 5]))
        np.testing.assert_array_equal(out.values, [0, 0])

    def test_direct_evaluation(self):
        out = first_difference(series([100, 103, 101]))
        np.testing.assert_array_equal(out.values, [3, -2])
        assert out.start == MonthKey(2015, 2)

    def test_single_element_too_short(self):
        with pytest.raises(TooShortError):
            first_difference(series([1]))


class TestSeasonalDifference:
    def test_periodic_constant(self):
        out = seasonal_difference(series([7.0] * 24))
        np.testing.assert_array_equal(out.values, np.zeros(12))
        assert out.start == MonthKey(2016, 1)

    def test_linear_ramp(self):
        out = seasonal_difference(series(np.arange(24.0)))
        np.testing.assert_array_equal(out.values, np.full(12, 12.0))

    def test_exact_period_length_too_short(self):
        with pytest.raises(TooShortError):
            seasonal_difference(series(np.arange(12.0)))

    def test_period_below_two_rejected(self):
        with pytest.raises(ValueError, match="^seasonal period must be >= 2, got 1$"):
            SeasonalDifference(1)


class TestInvertFirstDifference:
    def test_zero_diffs_hold_anchor(self):
        diffs = series([0, 0], start=MonthKey(2015, 2))
        out = invert_first_difference(diffs, 5.0, MonthKey(2015, 1))
        np.testing.assert_array_equal(out.values, [5, 5])

    def test_inverse_of_forward_example(self):
        diffs = series([3, -2], start=MonthKey(2015, 2))
        out = invert_first_difference(diffs, 100.0, MonthKey(2015, 1))
        np.testing.assert_array_equal(out.values, [103, 101])

    def test_anchor_must_precede(self):
        diffs = series([3, -2], start=MonthKey(2015, 2))
        with pytest.raises(AnchorMismatchError):
            invert_first_difference(diffs, 100.0, MonthKey(2015, 2))

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    def test_round_trip(self, values):
        s = series(values)
        rebuilt = invert_first_difference(first_difference(s), values[0], s.start)
        np.testing.assert_allclose(rebuilt.values, s.values[1:], atol=1e-9)


class TestInvertSeasonalDifference:
    def test_zero_diffs_repeat_anchor(self):
        anchor = series(np.arange(12.0))
        diffs = series(np.zeros(6), start=MonthKey(2016, 1))
        out = invert_seasonal_difference(diffs, anchor)
        np.testing.assert_array_equal(out.values, np.arange(6.0))

    def test_round_trip_on_ramp(self):
        s = series(np.arange(1.0, 25.0))
        diffs = seasonal_difference(s)
        anchor = s.window(MonthKey(2015, 1), MonthKey(2015, 12))
        out = invert_seasonal_difference(diffs, anchor)
        np.testing.assert_array_equal(out.values, s.values[12:])

    def test_short_anchor_rejected(self):
        anchor = series(np.arange(11.0))
        diffs = series(np.zeros(6), start=MonthKey(2015, 12))
        with pytest.raises(AnchorMismatchError):
            invert_seasonal_difference(diffs, anchor)

    def test_misplaced_anchor_rejected(self):
        anchor = series(np.arange(12.0), start=MonthKey(2015, 2))
        diffs = series(np.zeros(6), start=MonthKey(2016, 1))
        with pytest.raises(AnchorMismatchError):
            invert_seasonal_difference(diffs, anchor)

    @given(st.lists(finite_floats, min_size=13, max_size=60))
    @settings(max_examples=50)
    def test_round_trip_random(self, values):
        s = series(values)
        diffs = seasonal_difference(s)
        anchor = s.window(s.start, s.start.shift(11))
        rebuilt = invert_seasonal_difference(diffs, anchor)
        np.testing.assert_allclose(rebuilt.values, s.values[12:], atol=1e-9)


class TestOneHot:
    def test_january(self):
        assert one_hot_month(MonthKey(2020, 1)).components == (1,) + (0,) * 11

    def test_march(self):
        v = one_hot_month(MonthKey(2020, 3)).components
        assert v == (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_december(self):
        v = one_hot_month(MonthKey(2020, 12)).components
        assert v.index(1) == 11

    @pytest.mark.parametrize("month", range(1, 13))
    def test_every_month_sums_to_one(self, month):
        v = one_hot_month(MonthKey(2021, month))
        assert sum(v.components) == 1
        assert v.components[month - 1] == 1

    @pytest.mark.parametrize(
        "components,message",
        [
            ((1,) + (0,) * 10, "expected 12 components, got 11"),
            ((2,) + (0,) * 11, "components must be 0 or 1"),
            ((1, 1) + (0,) * 10, "exactly one component must be 1"),
        ],
        ids=["eleven", "a-two", "two-ones"],
    )
    def test_invalid_vectors_rejected(self, components, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OneHotVector(components)


def level_table(n_rows, n_features=2, seed=0, start=MonthKey(2014, 1)):
    rng = np.random.default_rng(seed)
    months = tuple(start.shift(i) for i in range(n_rows))
    cols = {f"f{i}": rng.normal(size=n_rows) for i in range(n_features)}
    cols["target"] = rng.normal(size=n_rows) + np.arange(n_rows)
    return FeatureTable(months, cols, target="target")


class TestApplyPipeline:
    def test_approach_a_row_accounting(self):
        out = apply_pipeline(level_table(72), Approach.SEASONAL_DIFF)
        assert len(out) == 59
        assert out.start == MonthKey(2015, 2)
        assert out.ledger.steps == (FirstDifference(), SeasonalDifference(12))
        assert not any(c in out.column_names for c in ONE_HOT_COLUMNS)

    def test_approach_b_row_and_column_accounting(self):
        table = level_table(72)
        out = apply_pipeline(table, Approach.MONTH_ONEHOT)
        assert len(out) == 71
        assert len(out.column_names) == len(table.column_names) + 12
        assert out.ledger.steps == (FirstDifference(), MonthOneHot())

    def test_too_short_for_approach_a(self):
        with pytest.raises(TooShortError):
            apply_pipeline(level_table(10), Approach.SEASONAL_DIFF)

    def test_accepts_plain_strings(self):
        assert len(apply_pipeline(level_table(72), "A")) == 59

    def test_requires_target(self):
        table = level_table(20)
        no_target = FeatureTable(table.months, dict(table.columns))
        with pytest.raises(ValueError):
            apply_pipeline(no_target, "B")

    def test_approach_a_equals_composed_differences(self):
        table = level_table(40, seed=5)
        out = apply_pipeline(table, "A")
        for name in table.column_names:
            s = MonthlySeries(table.start, table.column(name), name)
            composed = seasonal_difference(first_difference(s))
            np.testing.assert_array_equal(out.column(name), composed.values)
            assert out.start == composed.start

    def test_approach_b_preserves_plain_first_differences(self):
        table = level_table(40, seed=6)
        out = apply_pipeline(table, "B")
        for name in table.column_names:
            v = table.column(name)
            np.testing.assert_array_equal(out.column(name), v[1:] - v[:-1])

    def test_one_hot_columns_mark_row_months(self):
        out = apply_pipeline(level_table(30), "B")
        for i, month in enumerate(out.months):
            row = [out.column(c)[i] for c in ONE_HOT_COLUMNS]
            assert row[month.month - 1] == 1.0
            assert sum(row) == 1.0

    def test_refuses_already_transformed_table(self):
        out = apply_pipeline(level_table(30), "B")
        with pytest.raises(ValueError):
            apply_pipeline(out, "B")

    def test_feature_named_like_a_month_indicator_is_refused(self):
        table = level_table(20)
        columns = dict(table.columns)
        columns["month_03"] = columns.pop("f0")
        clashing = FeatureTable(table.months, columns, target="target")
        with pytest.raises(ColumnClashError, match="month_03") as raised:
            apply_pipeline(clashing, "B")
        assert isinstance(raised.value, ValueError) and isinstance(raised.value, NowcastError)
        assert len(apply_pipeline(clashing, "A").column_names) == 3


def assert_same_bits(a, b):
    """Tables equal, ledger included, with every column equal bit for bit."""
    assert a == b
    for name in a.column_names:
        assert a.column(name).tobytes() == b.column(name).tobytes()


@st.composite
def level_tables(draw, min_rows=1, max_rows=30):
    n = draw(st.integers(min_rows, max_rows))
    n_features = draw(st.integers(1, 3))
    start = MonthKey(draw(st.integers(1990, 2030)), draw(st.integers(1, 12)))
    column = st.lists(finite_floats, min_size=n, max_size=n)
    cols = {f"f{i}": draw(column) for i in range(n_features)}
    cols["target"] = draw(column)
    months = tuple(start.shift(i) for i in range(n))
    return FeatureTable(months, cols, target="target")


class TestPipelineGeometry:
    def test_ledgers_state_each_approach(self):
        assert Approach.SEASONAL_DIFF.ledger.steps == (
            FirstDifference(),
            SeasonalDifference(12),
        )
        assert Approach.MONTH_ONEHOT.ledger.steps == (FirstDifference(), MonthOneHot())
        assert Approach.SEASONAL_DIFF.ledger.describe() == [
            "first_difference",
            "seasonal_difference(12)",
        ]
        assert Approach.MONTH_ONEHOT.ledger.describe() == [
            "first_difference",
            "month_one_hot",
        ]

    @pytest.mark.parametrize("approach", list(Approach))
    def test_rows_dropped_are_required_history(self, approach):
        table = level_table(40, seed=3)
        out = apply_pipeline(table, approach)
        assert out.ledger == approach.ledger
        assert len(table) - len(out) == required_history(approach.ledger)
        assert out.months == table.months[required_history(approach.ledger) :]

    @pytest.mark.parametrize("approach,too_short", [("A", 13), ("B", 1)])
    def test_shortest_tables(self, approach, too_short):
        with pytest.raises(TooShortError):
            apply_pipeline(level_table(too_short), approach)
        assert len(apply_pipeline(level_table(too_short + 1), approach)) == 1

    @settings(max_examples=60, deadline=None)
    @given(level_tables(), st.sampled_from(list(Approach)))
    def test_prefix_stability(self, table, approach):
        """Transforming a prefix equals cutting the transformed table there."""
        need = required_history(approach.ledger)
        if len(table) <= need:
            with pytest.raises(TooShortError):
                apply_pipeline(table, approach)
            return
        full = apply_pipeline(table, approach)
        for month in table.months[need:]:
            prefix = apply_pipeline(table.slice(table.start, month), approach)
            assert_same_bits(prefix, full.slice(full.start, month))


class TestReconstructLevel:
    @pytest.mark.parametrize("approach", ["A", "B"])
    def test_round_trip_through_pipeline(self, approach):
        table = level_table(48, seed=11)
        out = apply_pipeline(table, approach)
        target = MonthlySeries(table.start, table.column("target"), "target")
        need = 13 if approach == "A" else 1
        for i, month in enumerate(out.months):
            history = target.window(month.shift(-need), month.shift(-1))
            rebuilt = reconstruct_level(
                out.ledger, float(out.column("target")[i]), history, month
            )
            assert rebuilt == pytest.approx(target.value_at(month), abs=1e-9)

    def test_history_must_end_immediately_before(self):
        table = level_table(48)
        out = apply_pipeline(table, "B")
        target = MonthlySeries(table.start, table.column("target"), "target")
        month = out.months[-1]
        history = target.window(month.shift(-3), month.shift(-2))
        with pytest.raises(AnchorMismatchError):
            reconstruct_level(out.ledger, 0.0, history, month)

    def test_history_must_cover_lags(self):
        table = level_table(48)
        out = apply_pipeline(table, "A")
        target = MonthlySeries(table.start, table.column("target"), "target")
        month = out.months[-1]
        history = target.window(month.shift(-5), month.shift(-1))
        with pytest.raises(AnchorMismatchError):
            reconstruct_level(out.ledger, 0.0, history, month)


def undifference_by_definition(diffs, anchor):
    """Levels after ``anchor``: each is its diff plus the level ``len(anchor)`` places back."""
    lag = len(anchor)
    levels = [float(a) for a in anchor]
    for d in diffs:
        levels.append(float(d) + levels[len(levels) - lag])
    return levels[lag:]


def hex_list(values):
    return [float(v).hex() for v in values]


wide_floats = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


class TestOneInverse:
    @settings(max_examples=80, deadline=None)
    @given(
        lag=st.sampled_from([1, 2, 12, 13]),
        values=st.lists(wide_floats, min_size=14, max_size=50),
    )
    @example(lag=1, values=[0.1, 0.2, 0.3] + [0.0] * 11)
    def test_inverses_follow_the_definition_bit_for_bit(self, lag, values):
        anchor, diffs = values[:lag], values[lag:]
        expected = hex_list(undifference_by_definition(diffs, anchor))
        assert hex_list(_undifference(np.array(diffs), np.array(anchor), lag)) == expected
        start = MonthKey(2001, 1)
        d = series(diffs, start=start.shift(lag))
        if lag == 1:
            assert hex_list(invert_first_difference(d, anchor[0], start).values) == expected
        assert hex_list(invert_seasonal_difference(d, series(anchor, start), lag).values) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        table=level_tables(min_rows=14, max_rows=40),
        approach=st.sampled_from(list(Approach)),
        predictions=st.lists(wide_floats, min_size=1, max_size=5),
    )
    def test_reconstruction_adds_in_the_documented_order(self, table, approach, predictions):
        """A: (p + (y[t-12] - y[t-13])) + y[t-1]; B: p + y[t-1], as float.hex."""
        out = apply_pipeline(table, approach)
        target = table.target_series()
        y = target.values.tolist()
        need = required_history(approach.ledger)
        for i, month in enumerate(out.months):
            t = i + need
            p = predictions[i % len(predictions)]
            history = target.window(month.shift(-need), month.shift(-1))
            got = reconstruct_level(out.ledger, p, history, month)
            if approach is Approach.SEASONAL_DIFF:
                expected = (p + (y[t - 12] - y[t - 13])) + y[t - 1]
            else:
                expected = p + y[t - 1]
            assert got.hex() == expected.hex()


OVERFLOWING = [1.7e308, -1.7e308] + [0.0] * 14


class TestOverflow:
    def test_reconstruct_level_refuses_an_overflowing_history(self):
        """Approach A differences the history once before it inverts."""
        history = series(OVERFLOWING)
        ledger = Approach.SEASONAL_DIFF.ledger
        with pytest.raises(NonFiniteError):
            reconstruct_level(ledger, 0.0, history, history.end.shift(1))

    @pytest.mark.parametrize("approach", list(Approach))
    def test_apply_pipeline_refuses_an_overflowing_column(self, approach):
        table = level_table(len(OVERFLOWING))
        columns = {**table.columns, "f0": np.array(OVERFLOWING)}
        table = FeatureTable(table.months, columns, target="target")
        with pytest.raises(NonFiniteError, match="column 'f0' values"):
            apply_pipeline(table, approach)


def reconstruct_by_walking_months(ledger, predicted_transformed, history, month):
    """The reconstruction with its anchor checked on ``MonthKey`` values and
    ``np.all``: what :func:`reconstruct_level` must equal, bits and errors."""
    need = required_history(ledger)
    if history.end != month.shift(-1):
        raise AnchorMismatchError(f"history must end at {month.shift(-1)}, ends at {history.end}")
    if len(history) < need:
        raise AnchorMismatchError(f"ledger needs {need} months of history, got {len(history)}")
    lags = [step.lag for step in ledger.steps if step.lag]
    stages = [history.values]
    for lag in lags[:-1]:
        stages.append(_difference(stages[-1], lag))
        if not np.all(np.isfinite(stages[-1])):
            raise NonFiniteError("differencing the history overflows")
    value = np.array([float(predicted_transformed)])
    for lag, stage in zip(reversed(lags), reversed(stages)):
        value = _undifference(value, stage, lag)
    return float(value[0])


LEDGERS = [
    Approach.SEASONAL_DIFF.ledger,
    Approach.MONTH_ONEHOT.ledger,
    TransformLedger((FirstDifference(), FirstDifference(), SeasonalDifference(3))),
    TransformLedger((MonthOneHot(),)),
]
# levels whose differences can overflow, or round, or cancel
edge_floats = st.one_of(
    wide_floats, st.sampled_from([1.7e308, -1.7e308, 9e307, -9e307, 0.1, 5e-324])
)


class TestReconstructLevelBits:
    @settings(max_examples=300, deadline=None)
    @given(
        ledger=st.sampled_from(LEDGERS),
        values=st.lists(edge_floats, min_size=1, max_size=20),
        start=st.builds(MonthKey, st.integers(1990, 2030), st.integers(1, 12)),
        offset=st.integers(-2, 2),
        prediction=edge_floats,
    )
    @example(
        ledger=Approach.SEASONAL_DIFF.ledger,
        values=OVERFLOWING[:13],
        start=MonthKey(2015, 1),
        offset=0,
        prediction=0.0,
    )
    def test_reconstruction_equals_the_month_walk(self, ledger, values, start, offset, prediction):
        history = series(values, start=start)
        month = history.end.shift(1 + offset)

        def outcome(reconstruct):
            try:
                return reconstruct(ledger, prediction, history, month).hex()
            except (AnchorMismatchError, NonFiniteError) as exc:
                return type(exc), str(exc)

        assert outcome(reconstruct_level) == outcome(reconstruct_by_walking_months)
