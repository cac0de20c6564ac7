import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nowcast.errors import EmptyIntersectionError, NonFiniteError, OutOfRangeError
from nowcast.timeseries import FeatureTable, MonthKey, MonthlySeries, align
from nowcast.transforms import Approach


def series(start, values, name="s", units=""):
    return MonthlySeries(start, np.array(values, dtype=float), name, units)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def bounds(draw, n):
    """Row bounds ``lo <= hi`` inside ``n`` rows."""
    lo = draw(st.integers(0, n - 1))
    return lo, draw(st.integers(lo, n - 1))


@st.composite
def tables(draw):
    """A valid table of 1-40 months, most crossing a year end, with 1-4 columns."""
    n = draw(st.integers(1, 40))
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    start = MonthKey(2018, draw(st.integers(1, 12)))
    months = tuple(start.shift(i) for i in range(n))
    cols = {name: draw(arrays(np.float64, n, elements=finite)) for name in names}
    target = draw(st.sampled_from([None, *names]))
    return FeatureTable(months, cols, target, Approach("B").ledger)


class TestMonthKey:
    def test_parse_and_str(self):
        assert MonthKey.parse("2016-03") == MonthKey(2016, 3)
        assert str(MonthKey(2016, 3)) == "2016-03"

    @pytest.mark.parametrize("month", [0, 13, -1])
    def test_month_bounds(self, month):
        with pytest.raises(ValueError):
            MonthKey(2020, month)

    @pytest.mark.parametrize("year", [-5, -1, 10000])
    def test_year_bounds(self, year):
        # the years four ASCII digits write and parse reads back
        with pytest.raises(ValueError, match=r"^year must be in 0\.\.9999"):
            MonthKey(year, 1)

    def test_years_zero_and_9999_round_trip_and_nothing_follows_9999_12(self):
        for key in (MonthKey(0, 1), MonthKey(9999, 12)):
            assert MonthKey.parse(str(key)) == key
        with pytest.raises(ValueError, match="year must be in 0..9999, got 10000"):
            MonthKey(9999, 12).shift(1)
        with pytest.raises(ValueError, match="year must be in 0..9999, got -1"):
            MonthKey(0, 1).shift(-1)

    def test_ordering_is_lexicographic(self):
        assert MonthKey(2019, 12) < MonthKey(2020, 1) < MonthKey(2020, 2)

    def test_shift_crosses_year_boundaries(self):
        assert MonthKey(2020, 11).shift(3) == MonthKey(2021, 2)
        assert MonthKey(2020, 1).shift(-1) == MonthKey(2019, 12)

    @given(st.integers(1900, 2100), st.integers(1, 12))
    def test_shift_twelve_increments_year(self, year, month):
        shifted = MonthKey(year, month).shift(12)
        assert shifted == MonthKey(year + 1, month)

    @given(st.integers(1900, 2100), st.integers(1, 12), st.integers(-500, 500))
    def test_shift_then_subtract_round_trips(self, year, month, n):
        key = MonthKey(year, month)
        assert key.shift(n) - key == n

    def test_parse_strips_surrounding_whitespace(self):
        assert MonthKey.parse(" 2020-01\t") == MonthKey(2020, 1)

    @pytest.mark.parametrize(
        "text",
        ["2_020-01", "2020-+2", "2020-3", "2020 - 01", "\uff12\uff10\uff12\uff10-01",
         "2020-01-01", "20-01", "02020-1", "+2020-01", "", "2020-1a"],
    )
    def test_parse_takes_exactly_four_and_two_ascii_digits(self, text):
        with pytest.raises(ValueError, match="expected YYYY-MM"):
            MonthKey.parse(text)


class TestMonthlySeries:
    def test_end_and_months(self):
        s = series(MonthKey(2020, 11), [1, 2, 3])
        assert s.end == MonthKey(2021, 1)
        assert s.months() == (MonthKey(2020, 11), MonthKey(2020, 12), MonthKey(2021, 1))

    def test_rejects_nan_and_inf(self):
        for bad in [np.nan, np.inf, -np.inf]:
            with pytest.raises(NonFiniteError):
                series(MonthKey(2020, 1), [1.0, bad])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            series(MonthKey(2020, 1), [])

    def test_rejects_months_past_9999_12(self):
        assert series(MonthKey(9999, 11), [1, 2]).end == MonthKey(9999, 12)
        with pytest.raises(ValueError, match="year must be in 0..9999, got 10000"):
            series(MonthKey(9999, 11), [1, 2, 3])

    def test_values_are_read_only(self):
        s = series(MonthKey(2020, 1), [1, 2])
        with pytest.raises(ValueError):
            s.values[0] = 9.0
        with pytest.raises(ValueError):
            s.values.flags.writeable = True

    def test_value_at_and_out_of_range(self):
        s = series(MonthKey(2020, 1), [1, 2, 3])
        assert s.value_at(MonthKey(2020, 2)) == 2
        with pytest.raises(OutOfRangeError):
            s.value_at(MonthKey(2019, 12))

    def test_window(self):
        s = series(MonthKey(2020, 1), [1, 2, 3, 4])
        w = s.window(MonthKey(2020, 2), MonthKey(2020, 3))
        assert w == series(MonthKey(2020, 2), [2, 3])

    @given(st.data())
    def test_window_is_a_read_only_view_equal_to_a_validated_copy(self, data):
        values = data.draw(arrays(np.float64, st.integers(1, 40), elements=finite))
        s = MonthlySeries(MonthKey(2019, 11), values, "s", "u")
        lo, hi = data.draw(bounds(len(s)))
        w = s.window(s.start.shift(lo), s.start.shift(hi))
        assert w == MonthlySeries(s.start.shift(lo), values[lo : hi + 1].copy(), "s", "u")
        assert np.shares_memory(w.values, s.values)
        with pytest.raises(ValueError):
            w.values[0] = 1.0
        with pytest.raises(ValueError):
            w.values.flags.writeable = True
        a, b = data.draw(bounds(len(w)))
        assert w.window(w.start.shift(a), w.start.shift(b)) == s.window(
            s.start.shift(lo + a), s.start.shift(lo + b)
        )


class TestAlign:
    def test_identical_ranges(self):
        a = series(MonthKey(2015, 1), np.arange(60), name="a")
        b = series(MonthKey(2015, 1), np.arange(60) * 2.0, name="b")
        table = align([a, b])
        assert len(table) == 60
        assert table.column_names == ("a", "b")

    def test_partial_overlap_intersects(self):
        # A covers 2015-01..2016-12, B covers 2016-01..2017-12
        a = series(MonthKey(2015, 1), np.arange(24), name="a")
        b = series(MonthKey(2016, 1), np.arange(24), name="b")
        table = align([a, b])
        assert table.start == MonthKey(2016, 1)
        assert table.end == MonthKey(2016, 12)
        assert len(table) == 12
        # values come from each series' own slice of the common months
        np.testing.assert_array_equal(table.column("a"), np.arange(12, 24))
        np.testing.assert_array_equal(table.column("b"), np.arange(12))

    def test_disjoint_ranges_raise(self):
        a = series(MonthKey(2015, 1), np.arange(6), name="a")
        b = series(MonthKey(2016, 1), np.arange(6), name="b")
        with pytest.raises(EmptyIntersectionError):
            align([a, b])

    def test_order_insensitive_up_to_column_order(self):
        rng = np.random.default_rng(3)
        all_series = [
            series(MonthKey(2015, 1 + i), rng.normal(size=40), name=f"s{i}")
            for i in range(4)
        ]
        t1 = align(all_series)
        t2 = align(all_series[::-1])
        assert t1.months == t2.months
        for name in t1.column_names:
            np.testing.assert_array_equal(t1.column(name), t2.column(name))

    def test_duplicate_names_rejected(self):
        a = series(MonthKey(2015, 1), [1, 2], name="x")
        b = series(MonthKey(2015, 1), [3, 4], name="x")
        with pytest.raises(ValueError):
            align([a, b])


class TestFeatureTable:
    def make(self, n=60):
        months = tuple(MonthKey(2015, 1).shift(i) for i in range(n))
        return FeatureTable(
            months,
            {"x": np.arange(n, dtype=float), "y": np.arange(n, dtype=float) * 2},
            target="y",
        )

    def test_identity_slice(self):
        t = self.make()
        assert t.slice(t.start, t.end) == t

    def test_twelve_month_slice(self):
        t = self.make(60)
        s = t.slice(MonthKey(2016, 1), MonthKey(2016, 12))
        assert len(s) == 12
        assert s.target == "y"
        assert s.ledger == t.ledger

    def test_inverted_bounds_raise(self):
        t = self.make()
        with pytest.raises(OutOfRangeError):
            t.slice(MonthKey(2016, 1), MonthKey(2015, 6))

    def test_bounds_outside_table_raise(self):
        t = self.make(12)
        with pytest.raises(OutOfRangeError):
            t.slice(MonthKey(2014, 12), MonthKey(2015, 6))

    def test_month_gaps_rejected(self):
        months = (MonthKey(2020, 1), MonthKey(2020, 3))
        with pytest.raises(ValueError):
            FeatureTable(months, {"x": np.array([1.0, 2.0])})

    @pytest.mark.parametrize(
        "months,gap",
        [
            ((MonthKey(2020, 1), MonthKey(2020, 2), MonthKey(2020, 2)), "2020-02 and 2020-02"),
            ((MonthKey(2020, 2), MonthKey(2020, 1)), "2020-02 and 2020-01"),
            ((MonthKey(2019, 12), MonthKey(2021, 1)), "2019-12 and 2021-01"),
            (tuple(MonthKey(2020, m) for m in (1, 2, 4, 7)), "2020-02 and 2020-04"),
        ],
    )
    def test_month_gaps_rejected_naming_the_first(self, months, gap):
        cols = {"x": np.arange(len(months), dtype=float)}
        with pytest.raises(ValueError, match=f"gap between {gap}$"):
            FeatureTable(months, cols)

    @pytest.mark.parametrize(
        "months", [("2020-01", "2020-02"), (MonthKey(2020, 1), (2020, 2)), ((2020, 1),)]
    )
    def test_months_must_be_month_keys(self, months):
        with pytest.raises(ValueError, match="MonthKey"):
            FeatureTable(months, {"x": np.zeros(len(months))})

    @pytest.mark.parametrize(
        "months",
        [(MonthKey(2019, 11), MonthKey(2019, 12), MonthKey(2020, 1)), (MonthKey(2020, 5),)],
    )
    def test_contiguous_months_accepted(self, months):
        assert FeatureTable(months, {"x": np.zeros(len(months))}).months == months

    @given(tables(), st.data())
    def test_slice_is_a_read_only_view_equal_to_a_validated_copy(self, t, data):
        lo, hi = data.draw(bounds(len(t)))
        s = t.slice(t.months[lo], t.months[hi])
        cols = {n: c[lo : hi + 1].copy() for n, c in t.columns.items()}
        assert s == FeatureTable(t.months[lo : hi + 1], cols, t.target, t.ledger)
        # its columns answer by name like a dict of the parent's names
        assert list(s.columns) == list(cols) and len(s.columns) == len(cols)
        assert all(name in s.columns for name in cols) and "nope" not in s.columns
        assert s.columns.keys() == cols.keys() and s.columns.get("nope") is None
        for name, column in s.columns.items():
            assert np.shares_memory(column, t.column(name))
            with pytest.raises(ValueError):  # nor can the parent's, which the slice shares
                t.column(name).flags.writeable = True
            with pytest.raises(ValueError):
                column[0] = 1.0
            with pytest.raises(ValueError):
                column.flags.writeable = True
        with pytest.raises(TypeError):
            s.columns["x"] = np.zeros(len(s))
        a, b = data.draw(bounds(len(s)))
        assert s.slice(s.months[a], s.months[b]) == t.slice(t.months[lo + a], t.months[lo + b])

    @given(tables(), st.data())
    def test_with_target_shares_columns(self, t, data):
        target = data.draw(st.sampled_from(t.column_names))
        u = t.with_target(target)
        assert u == FeatureTable(t.months, {n: c.copy() for n, c in t.columns.items()}, target, t.ledger)
        assert all(u.column(n) is t.column(n) for n in t.column_names)
        with pytest.raises(ValueError, match="not a column"):
            t.with_target("nope")

    @given(tables(), st.data())
    def test_columns_slices_and_targets_share_one_locked_block(self, t, data):
        lo, hi = data.draw(bounds(len(t)))
        views = [t, t.slice(t.months[lo], t.months[hi]), t.with_target(t.column_names[0])]
        block = t.column(t.column_names[0]).base
        for view in views:
            for name, column in view.columns.items():
                assert column.base is block and np.shares_memory(column, t.column(name))
                with pytest.raises(ValueError):
                    column.flags.writeable = True
            names = data.draw(st.lists(st.sampled_from(view.column_names), min_size=1, max_size=6))
            m = view.matrix(names)
            assert m.dtype == np.float64 and m.flags.c_contiguous and not np.shares_memory(m, block)
            np.testing.assert_array_equal(m, np.column_stack([view.column(n) for n in names]))

    def test_column_length_mismatch_rejected(self):
        months = (MonthKey(2020, 1), MonthKey(2020, 2))
        with pytest.raises(ValueError):
            FeatureTable(months, {"x": np.array([1.0])})

    def test_unknown_target_rejected(self):
        months = (MonthKey(2020, 1),)
        with pytest.raises(ValueError):
            FeatureTable(months, {"x": np.array([1.0])}, target="nope")

    def test_feature_names_exclude_target(self):
        t = self.make()
        assert t.feature_names == ("x",)

    @given(tables(), st.data())
    def test_feature_names_follow_the_target_of_each_table_sharing_a_block(self, t, data):
        # names asked of one table are kept with its block, which its slices
        # and with_target tables share: each must still get its own target's
        first = data.draw(st.sampled_from(t.column_names))
        second = data.draw(st.sampled_from(t.column_names))
        u = t.with_target(first)
        assert u.feature_names == tuple(n for n in t.column_names if n != first)
        v = u.with_target(second)
        lo, hi = data.draw(bounds(len(t)))
        for table, target in [(v, second), (v.slice(t.months[lo], t.months[hi]), second),
                              (u, first), (t, t.target)]:
            assert table.feature_names == tuple(n for n in t.column_names if n != target)

    def test_matrix_stacks_in_requested_order(self):
        t = self.make(3)
        m = t.matrix(["y", "x"])
        np.testing.assert_array_equal(m[:, 0], t.column("y"))
        np.testing.assert_array_equal(m[:, 1], t.column("x"))

    @given(tables(), st.data())
    def test_slices_and_with_target_tables_share_the_constructors_columns(self, t, data):
        # the constructor's columns are the one holder of the block's facts:
        # each column's largest magnitude over all rows
        lo, hi = data.draw(bounds(len(t)))
        s = t.slice(t.months[lo], t.months[hi])
        for table in [t, s, s.slice(s.start, s.start), t.with_target(t.column_names[-1])]:
            assert table.columns.whole is t.columns
        expected = [float(np.abs(t.column(name)).max()) for name in t.column_names]
        assert t.columns.largest == expected


M0 = MonthKey(2020, 1)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: series(M0, [[1.0, 2.0]]), ValueError,
         r"values must be one-dimensional, got shape \(1, 2\)"),
        (lambda: series(M0, [1.0, 2.0]).window(M0.shift(1), M0), OutOfRangeError,
         "inverted window 2020-02..2020-01"),
        (lambda: FeatureTable((), {"x": []}), ValueError,
         "a FeatureTable must cover at least one month"),
        (lambda: FeatureTable((M0,), {}), ValueError,
         "a FeatureTable must have at least one column"),
        (lambda: FeatureTable((M0,), {"x": [1.0]}).target_values(), ValueError,
         "table has no target column set"),
        (lambda: align([]), ValueError, "align requires at least one series"),
        (lambda: align([series(M0, [1.0], name="")]), ValueError,
         "every series needs a non-empty name to become a column"),
    ],
    ids=["2d-values", "inverted-window", "no-months", "no-columns", "no-target", "no-series",
         "unnamed-series"],
)
def test_invalid_inputs_raise_naming_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
