import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nowcast import extratrees
from nowcast.errors import (
    InvalidModelError,
    InvalidParamsError,
    MissingFeatureError,
    NonFiniteError,
    NowcastError,
    TooShortError,
)
from nowcast.extratrees import (
    ExtraTreesModel,
    ExtraTreesParams,
    RandomSplitSampler,
    feature_importances,
    fit,
    grow_tree,
    model_from_dict,
    model_to_dict,
    predict,
)
from nowcast.timeseries import FeatureTable, MonthKey, MonthlySeries

from reference_tree import RecordingSampler, Trace, assert_trees_equal, reference_grow


def table_from_arrays(columns, target="y", start=MonthKey(2018, 1)):
    n = len(next(iter(columns.values())))
    months = tuple(start.shift(i) for i in range(n))
    cols = {k: np.asarray(v, dtype=float) for k, v in columns.items()}
    return FeatureTable(months, cols, target=target)


def random_table(n_rows, n_features, seed):
    rng = np.random.default_rng(seed)
    cols = {f"f{i}": rng.normal(size=n_rows) for i in range(n_features)}
    cols["y"] = rng.normal(size=n_rows)
    return table_from_arrays(cols)


class TestParams:
    def test_defaults_are_valid(self):
        p = ExtraTreesParams()
        assert p.n_trees == 100 and p.min_samples_split == 5 and p.k_features is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"k_features": 0},
            {"min_samples_split": 1},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError):
            ExtraTreesParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_samples_split": 2.5},
            {"seed": True},
            {"seed": 1.5},
            {"n_trees": 2.5},
            {"n_trees": True},
            {"n_trees": "3"},
            {"k_features": 1.5},
            {"k_features": np.float64(2.0)},
        ],
    )
    def test_non_integers_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            ExtraTreesParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": np.int64(3), "seed": np.int64(4)},
            {"k_features": np.int32(1), "min_samples_split": np.uint8(3)},
        ],
    )
    def test_integer_likes_stored_as_plain_ints(self, kwargs):
        params = ExtraTreesParams(**kwargs)
        assert all(type(getattr(params, name)) is int for name in kwargs)
        model = fit(random_table(10, 2, seed=0), params)
        assert model_to_dict(ExtraTreesModel.from_json(model.to_json())) == model_to_dict(model)

    def test_k_features_checked_against_table(self):
        table = random_table(10, 2, seed=0)
        with pytest.raises(InvalidParamsError):
            fit(table, ExtraTreesParams(n_trees=2, k_features=3, seed=1))


class TestFit:
    def test_constant_targets_give_single_leaves(self):
        table = table_from_arrays({"f0": [1.0, 2.0, 3.0, 4.0], "y": [7.0] * 4})
        model = fit(table, ExtraTreesParams(n_trees=5, seed=3), n_threads=1)
        # every tree is one node, a leaf
        assert all(t.feature.tolist() == [-1] and t.value.tolist() == [7.0] for t in model.trees)
        np.testing.assert_array_equal(predict(model, table), np.full(4, 7.0))

    def test_two_separable_rows_memorized_exactly(self):
        table = table_from_arrays({"f0": [1.0, 2.0], "y": [3.0, 9.0]})
        params = ExtraTreesParams(n_trees=10, min_samples_split=2, seed=5)
        model = fit(table, params, n_threads=1)
        for tree in model.trees:
            # a root split over two leaves
            assert tree.feature.tolist() == [0, -1, -1]
            assert 1.0 < tree.threshold[0] < 2.0
            left, right = tree.left[0], tree.right[0]
            assert (tree.value[left], tree.value[right]) == (3.0, 9.0)
            assert (tree.count[left], tree.count[right]) == (1, 1)
        np.testing.assert_array_equal(predict(model, table), [3.0, 9.0])

    def test_requires_target_and_rows(self):
        t = random_table(10, 2, seed=1)
        no_target = FeatureTable(t.months, dict(t.columns))
        with pytest.raises(InvalidParamsError):
            fit(no_target, ExtraTreesParams(n_trees=1))
        one_row = t.slice(t.start, t.start)
        with pytest.raises(TooShortError):
            fit(one_row, ExtraTreesParams(n_trees=1))

    def test_requires_a_feature(self):
        only_target = table_from_arrays({"y": [1.0, 2.0, 3.0]})
        with pytest.raises(InvalidParamsError, match="^fit requires at least one feature column$"):
            fit(only_target, ExtraTreesParams(n_trees=1))

    def test_targets_too_large_to_score_raise_a_domain_error(self):
        # finite targets whose sums of squares overflow: a NonFiniteError
        # before any tree is grown (numpy overflow warnings fail the test)
        table = random_table(30, 3, seed=4)
        columns = dict(table.columns)
        columns["y"] = columns["y"] * 1e153
        with pytest.raises(NonFiniteError):
            fit(FeatureTable(table.months, columns, target="y"), ExtraTreesParams(n_trees=2))
        # targets near that limit whose sums of squares stay finite still fit
        columns["y"] = table.columns["y"] * 1e151
        fit(FeatureTable(table.months, columns, target="y"), ExtraTreesParams(n_trees=2))

    def test_features_too_wide_to_split_raise_a_domain_error(self):
        # a column holding -1e308 and 1e308 has no finite range to draw a
        # threshold in, and a redraw loop would never end: run it in a child
        # process that is killed after the timeout, with warnings as errors
        code = textwrap.dedent(
            """
            import numpy as np
            from nowcast.errors import NonFiniteError
            from nowcast.extratrees import ExtraTreesParams, fit
            from nowcast.timeseries import FeatureTable, MonthKey

            months = tuple(MonthKey(2020, 1).shift(i) for i in range(4))
            columns = {
                "f0": np.array([-1e308, 1e308, 0.0, 1.0]),
                "f1": np.array([1.0, 2.0, 3.0, 4.0]),
                "y": np.array([1.0, 2.0, 3.0, 4.0]),
            }
            table = FeatureTable(months, columns, target="y")
            try:
                fit(table, ExtraTreesParams(n_trees=3, min_samples_split=2, seed=1))
            except NonFiniteError as exc:
                print(exc)
            # columns far apart, each with a finite range, still fit
            apart = {
                "f0": np.array([-1e308, -9e307, -1e308, -9e307]),
                "f1": np.array([9e307, 1e308, 9e307, 1e308]),
                "y": columns["y"],
            }
            fit(FeatureTable(months, apart, target="y"), ExtraTreesParams(n_trees=3, min_samples_split=2, seed=1))
            print("fitted")
            """
        )
        src = Path(extratrees.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True, timeout=60, cwd=src,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "fit features are too wide: max - min overflows a float for f0\nfitted\n"

    @pytest.mark.parametrize("n_rows,window", [(4, None), (9, (2, 7))])
    def test_tables_shorter_than_min_split_give_every_tree_one_leaf(self, n_rows, window):
        table = random_table(n_rows, 3, seed=n_rows)
        if window is not None:  # a slice: its target is a view into a wider block
            table = table.slice(table.months[window[0]], table.months[window[1]])
        y = table.target_values()
        params = ExtraTreesParams(n_trees=6, min_samples_split=len(y) + 1, seed=2)
        model = fit(table, params)
        leaf = np.add.reduce(y) / len(y)
        for tree in model.trees:
            assert tree.feature.tolist() == tree.right.tolist() == [-1]
            assert tree.count.tolist() == [len(y)] and tree.number.tobytes() == leaf.tobytes()
        assert model.importances.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "column,value,message",
        [("f0", 1e308, "too wide: max - min overflows a float for f0"),
         ("y", 1e155, "too large: 4 * (sum of |target|)**2 overflows")],
        ids=["wide-feature", "large-target"],
    )
    def test_a_window_past_the_limit_raises_after_an_earlier_window_fitted(
        self, column, value, message
    ):
        # slices of one block share what is known of it: a window that fits
        # must not mark the block as within the limits for the windows after
        # it, whose own rows break them
        columns = {"f0": np.linspace(-1.0, 1.0, 12), "y": np.linspace(0.0, 1.0, 12)}
        columns[column][8:10] = -value, value
        table = table_from_arrays(columns)
        params = ExtraTreesParams(n_trees=2, min_samples_split=100, seed=1)
        fit(table.slice(table.months[0], table.months[7]), params)
        with pytest.raises(NonFiniteError, match=re.escape(message)):
            fit(table.slice(table.months[0], table.months[9]), params)
        fit(table.slice(table.months[1], table.months[7]), params)

    def test_leaf_only_fits_still_name_too_wide_features(self):
        # no threshold is drawn on the leaf-only path, so nothing can hang
        # here; the range check must still run
        wide = {"f0": [-1e308, 1e308, 0.0], "y": [1.0, 2.0, 3.0]}
        apart = {"f1": [-1e308, -9e307, -1e308], "f2": [9e307, 1e308, 9e307]}
        params = ExtraTreesParams(n_trees=3, min_samples_split=4, seed=1)
        with pytest.raises(NonFiniteError, match="overflows a float for f0$"):
            fit(table_from_arrays({**wide, **apart}), params)
        # far-apart columns, each with a finite range, still fit
        model = fit(table_from_arrays({**apart, "y": wide["y"]}), params)
        assert all(tree.number.tolist() == [2.0] for tree in model.trees)

    def test_streams_and_training_matrix_only_when_a_root_can_split(self, monkeypatch):
        class StreamBuilt(Exception):
            pass

        def no_stream(seed):
            raise StreamBuilt(seed)

        gathered = []
        matrix = FeatureTable.matrix
        monkeypatch.setattr(np.random, "PCG64", no_stream)
        monkeypatch.setattr(
            FeatureTable, "matrix", lambda self, names: gathered.append(names) or matrix(self, names)
        )
        table = random_table(6, 2, seed=8)
        fit(table, ExtraTreesParams(n_trees=4, min_samples_split=7, seed=1))
        assert gathered == []
        with pytest.raises(StreamBuilt):
            fit(table, ExtraTreesParams(n_trees=4, min_samples_split=6, seed=1))
        # one gather: the features, then the target
        assert gathered == [("f0", "f1", "y")]

    def test_any_finite_table_fits_or_raises_a_domain_error(self, tmp_path):
        # over small tables of any finite values (the largest floats,
        # subnormals and signed zeros included) fit returns or raises a
        # NowcastError, never warns, and draws every threshold strictly
        # inside its node's range; a hang is caught by the child's timeout
        code = textwrap.dedent(
            """
            import warnings

            import numpy as np
            from hypothesis import given, settings, strategies as st

            from nowcast.errors import NowcastError
            from nowcast.extratrees import ExtraTreesParams, fit
            from nowcast.timeseries import FeatureTable, MonthKey

            EDGES = [1.7976931348623157e308, 8.98846567431158e307, 2.2250738585072014e-308, 5e-324, 0.0]
            values = st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(EDGES + [-v for v in EDGES]),
            )

            def check_inside(tree, X, node=0):
                if tree.feature[node] < 0:
                    return
                column = X[:, tree.feature[node]]
                assert column.min() < tree.threshold[node] < column.max()
                below = column < tree.threshold[node]
                check_inside(tree, X[below], tree.left[node])
                check_inside(tree, X[~below], tree.right[node])

            @settings(max_examples=300, deadline=None, database=None)
            @given(st.integers(2, 6), st.integers(1, 3), st.data(), st.integers(0, 2**32))
            def fits_or_raises(n, p, data, seed):
                months = tuple(MonthKey(2020, 1).shift(i) for i in range(n))
                names = [f"f{i}" for i in range(p)] + ["y"]
                columns = {name: data.draw(st.lists(values, min_size=n, max_size=n)) for name in names}
                table = FeatureTable(months, columns, target="y")
                params = ExtraTreesParams(n_trees=3, min_samples_split=2, seed=seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        model = fit(table, params)
                    except NowcastError:
                        return
                X = table.matrix(model.feature_names)
                for tree in model.trees:
                    check_inside(tree, X)

            fits_or_raises()
            print("held")
            """
        )
        # hypothesis keeps a cache in its working directory, so it runs in tmp_path
        src = Path(extratrees.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "held\n")

    def test_memorizes_training_set(self):
        table = random_table(20, 3, seed=9)
        params = ExtraTreesParams(n_trees=50, min_samples_split=2, seed=9)
        model = fit(table, params, n_threads=1)
        np.testing.assert_allclose(
            predict(model, table), table.target_values(), atol=1e-9
        )


def leaf_counts_by_routing(tree, X, node=0):
    """Routed row count per leaf node, walking like the production predictor."""
    if tree.feature[node] < 0:
        return [(node, X.shape[0])]
    mask = X[:, tree.feature[node]] < tree.threshold[node]
    return leaf_counts_by_routing(tree, X[mask], tree.left[node]) + leaf_counts_by_routing(
        tree, X[~mask], tree.right[node]
    )


def check_thresholds_inside(tree, X, node=0):
    if tree.feature[node] < 0:
        return
    col = X[:, tree.feature[node]]
    assert col.min() < tree.threshold[node] < col.max()
    mask = col < tree.threshold[node]
    assert mask.any() and (~mask).any()
    check_thresholds_inside(tree, X[mask], tree.left[node])
    check_thresholds_inside(tree, X[~mask], tree.right[node])


class TestTreeStructure:
    def test_full_sample_reaches_every_tree(self):
        # stored leaf counts must match counts routed over the whole training
        # set: a resampled tree would disagree with high probability
        table = random_table(40, 3, seed=21)
        model = fit(table, ExtraTreesParams(n_trees=20, seed=21), n_threads=1)
        X = table.matrix(model.feature_names)
        for tree in model.trees:
            routed = leaf_counts_by_routing(tree, X)
            assert sum(n for _, n in routed) == 40
            assert all(tree.count[leaf] == n for leaf, n in routed)

    def test_thresholds_strictly_inside_node_ranges(self):
        table = random_table(60, 4, seed=22)
        model = fit(table, ExtraTreesParams(n_trees=10, seed=22), n_threads=1)
        X = table.matrix(model.feature_names)
        for tree in model.trees:
            check_thresholds_inside(tree, X)

    def test_predictions_within_training_target_range(self):
        train = random_table(30, 3, seed=23)
        other = random_table(50, 3, seed=24)
        model = fit(train, ExtraTreesParams(n_trees=30, seed=23), n_threads=1)
        y = train.target_values()
        preds = predict(model, other)
        assert np.all(preds >= y.min()) and np.all(preds <= y.max())


class TestDeterminism:
    def test_thread_count_does_not_change_model(self):
        table = random_table(50, 4, seed=31)
        params = ExtraTreesParams(n_trees=16, seed=31)
        single = fit(table, params, n_threads=1)
        pooled = fit(table, params, n_threads=8)
        assert model_to_dict(single) == model_to_dict(pooled)
        np.testing.assert_array_equal(predict(single, table), predict(pooled, table))

    def test_same_seed_same_model(self):
        table = random_table(30, 2, seed=32)
        params = ExtraTreesParams(n_trees=8, seed=99)
        assert model_to_dict(fit(table, params, n_threads=1)) == model_to_dict(
            fit(table, params, n_threads=1)
        )

    def test_env_var_thread_cap_respected(self, monkeypatch):
        table = random_table(30, 2, seed=33)
        params = ExtraTreesParams(n_trees=8, seed=33)
        baseline = model_to_dict(fit(table, params, n_threads=1))
        monkeypatch.setenv("NOWCAST_THREADS", "4")
        assert model_to_dict(fit(table, params)) == baseline


class TestImportances:
    def test_constant_target_importances_all_zero(self):
        table = table_from_arrays({"f0": [1.0, 2.0, 3.0], "y": [4.0] * 3})
        model = fit(table, ExtraTreesParams(n_trees=5, seed=1), n_threads=1)
        assert all(v == 0.0 for v in feature_importances(model).values())

    def test_constant_feature_gets_zero_importance(self):
        rng = np.random.default_rng(41)
        informative = rng.normal(size=30)
        table = table_from_arrays(
            {
                "informative": informative,
                "flat": np.zeros(30),
                "y": informative * 2.0 + 1.0,
            }
        )
        model = fit(table, ExtraTreesParams(n_trees=20, seed=41), n_threads=1)
        imp = feature_importances(model)
        assert imp["flat"] == 0.0
        assert imp["informative"] == pytest.approx(1.0, abs=1e-9)

    def test_importances_sum_to_one(self):
        table = random_table(40, 5, seed=42)
        model = fit(table, ExtraTreesParams(n_trees=10, seed=42), n_threads=1)
        assert sum(feature_importances(model).values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in feature_importances(model).values())

    def test_model_needs_one_importance_per_feature(self):
        model = fit(random_table(25, 3, seed=43), ExtraTreesParams(n_trees=2, seed=43))
        with pytest.raises(InvalidParamsError):
            ExtraTreesModel(model.trees, model.params, model.feature_names, [0.5, 0.5])

    def test_model_needs_finite_importances(self):
        model = fit(random_table(25, 2, seed=43), ExtraTreesParams(n_trees=2, seed=43))
        with pytest.raises(InvalidParamsError, match="^importances must be finite$"):
            ExtraTreesModel(model.trees, model.params, model.feature_names, [math.nan, 1.0])


class TestPredict:
    def test_missing_feature_rejected(self):
        model = fit(random_table(10, 2, seed=51), ExtraTreesParams(n_trees=2, seed=5))
        bad = table_from_arrays({"f0": [1.0, 2.0], "y": [0.0, 0.0]})
        with pytest.raises(MissingFeatureError, match=r"columns: \['f1'\]$"):
            predict(model, bad)

    def test_extra_columns_ignored(self):
        train = random_table(10, 2, seed=52)
        model = fit(train, ExtraTreesParams(n_trees=2, seed=5), n_threads=1)
        cols = {name: train.column(name) for name in train.column_names}
        cols["extra"] = np.ones(10)
        widened = table_from_arrays(cols)
        np.testing.assert_array_equal(predict(model, widened), predict(model, train))


class TestReadOnlyModel:
    TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "count")

    def assert_read_only(self, arr):
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        with pytest.raises(ValueError):
            arr[0] = 0

    @pytest.mark.parametrize("source", ["fit", "from_json"])
    def test_trees_and_importances_cannot_be_made_writeable(self, source):
        table = random_table(25, 3, seed=62)
        model = fit(table, ExtraTreesParams(n_trees=3, seed=62), n_threads=1)
        if source == "from_json":
            model = ExtraTreesModel.from_json(model.to_json())
        before = predict(model, table)
        for tree in model.trees:
            for name in self.TREE_ARRAYS:
                self.assert_read_only(getattr(tree, name))
        self.assert_read_only(model.importances)
        assert predict(model, table).tobytes() == before.tobytes()

    def test_no_array_reached_through_base_can_be_made_writeable(self):
        # the stored arrays, and every array behind them, stay locked
        table = random_table(25, 3, seed=65)
        model = fit(table, ExtraTreesParams(n_trees=2, seed=65))
        decoded = ExtraTreesModel.from_json(model.to_json())
        stored = [
            MonthlySeries(MonthKey(2020, 1), [1.0, 2.0]).values,
            table.column("f0"),
            table.slice(table.months[3], table.months[9]).column("y"),
            model.importances,
        ]
        for tree in (model.trees[0], decoded.trees[0]):
            stored += [getattr(tree, name) for name in self.TREE_ARRAYS]
        for arr in stored:
            while isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
                arr = arr.base

    def test_callers_importances_stay_writeable_and_unshared(self):
        model = fit(random_table(25, 3, seed=63), ExtraTreesParams(n_trees=2, seed=63))
        mine = np.array([0.5, 0.25, 0.25])
        rebuilt = ExtraTreesModel(model.trees, model.params, model.feature_names, mine)
        assert mine.flags.writeable
        assert not np.shares_memory(mine, rebuilt.importances)
        mine[0] = 1.0
        assert rebuilt.importances.tolist() == [0.5, 0.25, 0.25]
        self.assert_read_only(rebuilt.importances)

    def test_callers_tree_arrays_stay_writeable_and_unshared(self):
        fitted = fit(random_table(25, 3, seed=64), ExtraTreesParams(n_trees=1, seed=64)).trees[0]
        stored = [field.name for field in dataclasses.fields(extratrees.Tree)]
        mine = {name: getattr(fitted, name).copy() for name in stored}
        tree = extratrees.Tree(**mine)
        for name, arr in mine.items():
            assert arr.flags.writeable
            assert not np.shares_memory(arr, getattr(tree, name))
            self.assert_read_only(getattr(tree, name))
        mine["number"][:] = 7.0
        assert tree.number.tobytes() == fitted.number.tobytes()

    @pytest.mark.parametrize("source", ["fit", "from_json"])
    @pytest.mark.parametrize(
        "rows,min_split", [(25, 2), (25, 5), (4, 5)], ids=["min-split-2", "default", "one-leaf"]
    )
    def test_four_stored_arrays_and_three_derived(self, source, rows, min_split):
        # a tree stores feature, number, right and count; threshold, value
        # and left are read from them
        table = random_table(rows, 3, seed=66)
        model = fit(table, ExtraTreesParams(n_trees=3, min_samples_split=min_split, seed=66))
        if source == "from_json":
            model = ExtraTreesModel.from_json(model.to_json())
        names = [field.name for field in dataclasses.fields(extratrees.Tree)]
        assert names == ["feature", "number", "right", "count"]
        for tree in model.trees:
            split = tree.feature >= 0
            assert split.any() == (rows >= min_split)
            nodes = np.arange(tree.feature.size)
            assert np.isnan(tree.threshold).tolist() == (~split).tolist()
            assert tree.threshold[split].tobytes() == tree.number[split].tobytes()
            assert np.isnan(tree.value).tolist() == split.tolist()
            assert tree.value[~split].tobytes() == tree.number[~split].tobytes()
            assert tree.left.tolist() == np.where(split, nodes + 1, -1).tolist()
            assert tree.left.dtype == np.intp
            for derived in (tree.threshold, tree.value, tree.left):
                self.assert_read_only(derived)


class TestSerialization:
    def test_json_round_trip(self):
        table = random_table(25, 3, seed=61)
        model = fit(table, ExtraTreesParams(n_trees=6, seed=61), n_threads=1)
        restored = ExtraTreesModel.from_json(model.to_json())
        assert model_to_dict(restored) == model_to_dict(model)
        np.testing.assert_array_equal(predict(restored, table), predict(model, table))

    def test_schema_version_checked(self):
        table = random_table(10, 2, seed=62)
        model = fit(table, ExtraTreesParams(n_trees=2, seed=62), n_threads=1)
        doc = json.loads(model.to_json())
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(doc)


def small_document():
    """Model document of two trees whose roots split on one of two features."""
    table = random_table(12, 2, seed=63)
    params = ExtraTreesParams(n_trees=2, min_samples_split=2, seed=63)
    doc = model_to_dict(fit(table, params, n_threads=1))
    assert doc["trees"][0]["kind"] == "split"
    return doc


def first_leaf(doc):
    node = doc["trees"][0]
    while node["kind"] == "split":
        node = node["left"]
    return node


class TestMalformedDocuments:
    def test_error_type(self):
        assert issubclass(InvalidModelError, NowcastError)
        assert issubclass(InvalidModelError, ValueError)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda d: d.pop("params"), id="missing-params"),
            pytest.param(lambda d: d["params"].pop("seed"), id="missing-param"),
            pytest.param(lambda d: d.pop("feature_names"), id="missing-names"),
            pytest.param(lambda d: d["trees"][0].pop("left"), id="missing-child"),
            pytest.param(lambda d: first_leaf(d).pop("count"), id="missing-count"),
            pytest.param(lambda d: d["trees"][0].update(kind="stump"), id="unknown-kind"),
            pytest.param(lambda d: d["trees"][0].update(left=[1, 2]), id="child-not-object"),
            pytest.param(lambda d: d["trees"].pop(), id="too-few-trees"),
            pytest.param(lambda d: d["trees"].append(d["trees"][0]), id="too-many-trees"),
            pytest.param(lambda d: d["trees"][0].update(feature_index=2), id="feature-past-names"),
            pytest.param(lambda d: d["trees"][0].update(feature_index=-1), id="negative-feature"),
            pytest.param(lambda d: d["trees"][0].update(threshold=math.nan), id="nan-threshold"),
            pytest.param(lambda d: d["trees"][0].update(threshold="x"), id="text-threshold"),
            pytest.param(lambda d: first_leaf(d).update(value=math.inf), id="inf-leaf-value"),
            pytest.param(lambda d: d.update(importances=[1.0]), id="importances-length"),
            pytest.param(lambda d: d["params"].update(n_trees=0), id="zero-trees"),
            pytest.param(lambda d: d["params"].update(seed=-1), id="negative-seed"),
            pytest.param(lambda d: d["params"].update(min_samples_split=1), id="min-split-one"),
            pytest.param(lambda d: d["importances"].__setitem__(0, math.nan), id="nan-importance"),
            pytest.param(lambda d: d["feature_names"].__setitem__(0, 1), id="integer-name"),
            pytest.param(lambda d: first_leaf(d).update(count=-5), id="negative-count"),
            pytest.param(lambda d: first_leaf(d).update(count=0), id="zero-count"),
            pytest.param(lambda d: first_leaf(d).update(count=2.7), id="fractional-count"),
            pytest.param(lambda d: first_leaf(d).update(count=True), id="boolean-count"),
            pytest.param(lambda d: first_leaf(d).update(count="3"), id="text-count"),
            pytest.param(lambda d: d["trees"][0].update(feature_index=0.9), id="float-feature"),
            pytest.param(lambda d: d["trees"][0].update(feature_index=-0.5), id="minus-half"),
            pytest.param(lambda d: d["trees"][0].update(feature_index="0"), id="text-feature"),
            pytest.param(lambda d: d["trees"][0].update(threshold="1.5"), id="numeral-threshold"),
            pytest.param(lambda d: d["trees"][0].update(threshold=True), id="boolean-threshold"),
            pytest.param(lambda d: d["trees"][0].update(threshold=10**400), id="huge-threshold"),
            pytest.param(lambda d: first_leaf(d).update(value="1.5"), id="text-leaf-value"),
            pytest.param(lambda d: first_leaf(d).update(value=True), id="boolean-leaf-value"),
            pytest.param(lambda d: d.update(importances=["1.0", "0.0"]), id="text-importances"),
            pytest.param(lambda d: d["params"].update(n_trees="2"), id="text-n-trees"),
            pytest.param(
                lambda d: (d["trees"].pop(), d["params"].update(n_trees=True)), id="boolean-n-trees"
            ),
            pytest.param(lambda d: d["params"].update(k_features=1.5), id="fractional-k"),
            pytest.param(lambda d: d["params"].update(seed=63.0), id="float-seed"),
            pytest.param(lambda d: d.update(feature_names=["x", "x"]), id="repeated-names"),
            pytest.param(lambda d: d.update(feature_names="xy"), id="names-as-text"),
        ],
    )
    def test_rejected_with_domain_error(self, corrupt):
        doc = small_document()
        corrupt(doc)
        with pytest.raises(InvalidModelError):
            model_from_dict(doc)

    def test_not_an_object(self):
        with pytest.raises(InvalidModelError):
            ExtraTreesModel.from_json("[]")

    @pytest.mark.parametrize("text", ["{", "", '{"schema_version": 1,', "nan?"])
    def test_text_that_is_not_json(self, text):
        with pytest.raises(InvalidModelError, match="not decodable JSON"):
            ExtraTreesModel.from_json(text)

    def test_a_document_deeper_than_the_decoder_recurses(self):
        # a well-formed version-1 document whose one tree is a chain of 5,000
        # splits; the stdlib decoder recurses once per level
        depth = 5000
        doc = small_document()
        doc["params"]["n_trees"] = 1
        doc["trees"] = ["TREE"]
        leaf = '{"kind": "leaf", "value": 1.0, "count": 1}'
        split = '{"kind": "split", "feature_index": 0, "threshold": 0.5, "left": %s, "right": '
        split %= leaf
        tree = split * depth + leaf + "}" * depth
        text = json.dumps(doc).replace('"TREE"', tree)
        with pytest.raises(InvalidModelError, match="not decodable JSON"):
            ExtraTreesModel.from_json(text)


class TestSampler:
    def test_draws_match_scalar_generator_calls(self):
        # one integers() call for all Fisher-Yates offsets, and uniform's
        # arithmetic on random(), draw the bits of one integers() call per
        # pick and of uniform(); the generator ends in the same state
        sampler = RandomSplitSampler(np.random.Generator(np.random.PCG64(5)))
        scalar = np.random.Generator(np.random.PCG64(5))
        cases = np.random.default_rng(6)
        for _ in range(300):
            n = int(cases.integers(1, 30))
            k = int(cases.integers(1, n + 1))
            pool = list(range(100, 100 + n))
            expected = list(pool)
            for i in range(k):
                j = i + int(scalar.integers(0, n - i))
                expected[i], expected[j] = expected[j], expected[i]
            assert sampler.choose_features(pool, k) == expected[:k]

            lo = float(cases.normal())
            # a range only two steps wide lands most draws on an endpoint
            hi = math.nextafter(math.nextafter(lo, math.inf), math.inf)
            if cases.random() < 0.5:
                hi = lo + float(cases.exponential())
            while True:
                t = float(scalar.uniform(lo, hi))
                if lo < t < hi:
                    break
            assert sampler.draw_threshold(lo, hi) == t
        assert sampler.rng.bit_generator.state == scalar.bit_generator.state


def route_document(node, x):
    """Leaf value reached by row ``x`` in a tree's nested model document."""
    while node["kind"] == "split":
        node = node["left"] if x[node["feature_index"]] < node["threshold"] else node["right"]
    return node["value"]


def document_nodes(doc):
    pending, nodes = [doc], 0
    while pending:
        node = pending.pop()
        nodes += 1
        if node["kind"] == "split":
            pending += [node["left"], node["right"]]
    return nodes


@st.composite
def training_tables(draw):
    n_rows = draw(st.integers(2, 24))
    # few distinct values, so rows repeat and nodes go constant
    values = st.sampled_from([-2.5, -1.0, 0.0, 0.25, 1.0, 4.0])
    wide = st.floats(-1e3, 1e3, allow_nan=False)
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["constant", "repeated", "wide"]))
        if kind == "constant":
            columns[f"f{i}"] = [draw(values)] * n_rows
        else:
            cells = values if kind == "repeated" else wide
            columns[f"f{i}"] = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    columns["y"] = draw(st.lists(values | wide, min_size=n_rows, max_size=n_rows))
    return table_from_arrays(columns)


class TestArrayEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        table=training_tables(),
        min_split=st.sampled_from([2, 3, 5]),
        n_trees=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_arrays_agree_with_nested_view_and_json(self, table, min_split, n_trees, seed):
        params = ExtraTreesParams(n_trees=n_trees, min_samples_split=min_split, seed=seed)
        model = fit(table, params, n_threads=1)
        # the training rows, plus rows sitting exactly on split thresholds
        X = table.matrix(model.feature_names)
        on_split = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees])
        X = np.vstack([X, np.repeat(on_split[:, None], X.shape[1], axis=1)])
        probes = table_from_arrays(
            {**dict(zip(model.feature_names, X.T)), "y": np.zeros(len(X))}
        )
        # a nested walk of the model document, independent of Tree.leaf_values
        doc = model_to_dict(model)
        routed = np.zeros(len(X))
        for tree_doc in doc["trees"]:
            routed += [route_document(tree_doc, x) for x in X.tolist()]
        predicted = predict(model, probes)
        assert predicted.tobytes() == (routed / n_trees).tobytes()
        for i, month in enumerate(probes.months):
            one_row = predict(model, probes.slice(month, month))
            assert one_row.tobytes() == predicted[i : i + 1].tobytes()

        assert sum(t.feature.size for t in model.trees) == sum(
            document_nodes(t) for t in doc["trees"]
        )
        restored = ExtraTreesModel.from_json(model.to_json())
        assert predict(restored, probes).tobytes() == predicted.tobytes()
        for ours, theirs in zip(model.trees, restored.trees):
            for name in ("feature", "threshold", "left", "right", "value", "count"):
                np.testing.assert_array_equal(getattr(ours, name), getattr(theirs, name))


class TestOracleEquivalence:
    def test_recorded_trace_matches_reference_builder(self):
        rng = np.random.default_rng(71)
        for rows in [2, 4, 6, 8]:
            X = rng.integers(0, 10, size=(rows, 2)).astype(float)
            y = rng.integers(-8, 9, size=rows).astype(float)
            build_rng = np.random.Generator(np.random.PCG64(1000 + rows))
            recorder = RecordingSampler(RandomSplitSampler(build_rng))
            tree = grow_tree(X, y, k_features=2, min_samples_split=2, sampler=recorder)
            trace = Trace(recorder.feature_draws, recorder.threshold_draws)
            ref = reference_grow(X.tolist(), y.tolist(), 2, trace)
            assert_trees_equal(tree, ref)
            assert trace.exhausted()


def step_table():
    """Repeated values and a constant column, so nodes go constant early."""
    rng = np.random.default_rng(2020)
    n = 40
    cols = {f"f{i}": rng.normal(size=n) for i in range(3)}
    cols["step"] = np.repeat([0.0, 1.0, 2.0, 3.0], n // 4)
    cols["flat"] = np.full(n, 5.0)
    cols["y"] = cols["f0"] * 3.0 + cols["step"] + rng.normal(scale=0.1, size=n)
    return table_from_arrays(cols)


class TestGrowTreeMatchesFit:
    @pytest.mark.parametrize(
        "table",
        [random_table(30, 3, seed=81), random_table(64, 6, seed=82), step_table()],
        ids=["random-3", "random-6", "steps"],
    )
    @pytest.mark.parametrize("min_split", [2, 5])
    @pytest.mark.parametrize("k", [1, 2, None])
    def test_same_arrays_and_generator_state(self, table, min_split, k, monkeypatch):
        # fit's tree 0 draws from PCG64(seed ^ 0); grow_tree on the same
        # table and a sampler on that generator must build it bit for bit,
        # and fit's replay, handed back, leaves the generator's state
        made = []

        class Recorded(extratrees._Replay):
            def __init__(self, bit_generators, reserve):
                super().__init__(bit_generators, reserve)
                made.append(self)

        monkeypatch.setattr(extratrees, "_Replay", Recorded)
        for seed in (0, 83, 2**64 - 1):
            made.clear()
            params = ExtraTreesParams(
                n_trees=1, k_features=k, min_samples_split=min_split, seed=seed
            )
            [fitted] = fit(table, params).trees
            X = table.matrix(table.feature_names)
            sampler = RandomSplitSampler(np.random.Generator(np.random.PCG64(seed ^ 0)))
            grown = grow_tree(X, table.target_values(), k or X.shape[1], min_split, sampler)
            for name in ("feature", "threshold", "left", "right", "value", "count"):
                ours, theirs = getattr(fitted, name), getattr(grown, name)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
            [replay] = made
            replay._hand_back(0)
            assert replay.bit_generators[0].state == sampler.rng.bit_generator.state


class TestDecoder:
    @pytest.mark.parametrize(
        "table,params",
        [
            (random_table(25, 3, seed=66), ExtraTreesParams(n_trees=4, seed=66)),
            (random_table(40, 4, seed=67), ExtraTreesParams(n_trees=3, min_samples_split=2, seed=67)),
            (step_table(), ExtraTreesParams(n_trees=3, k_features=2, min_samples_split=3, seed=68)),
            # fewer rows than min_samples_split: every tree is one leaf
            (random_table(4, 2, seed=69), ExtraTreesParams(n_trees=2, seed=69)),
        ],
        ids=["random", "min-split-2", "steps-k2", "one-leaf"],
    )
    def test_decoded_node_arrays_equal_fitted_ones(self, table, params):
        # the document carries no split counts and no left children: the
        # decoder rebuilds both, byte for byte
        model = fit(table, params)
        restored = ExtraTreesModel.from_json(model.to_json())
        for ours, theirs in zip(model.trees, restored.trees, strict=True):
            for name in ("feature", "threshold", "left", "right", "value", "count"):
                a, b = getattr(ours, name), getattr(theirs, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        if len(table) < params.min_samples_split:
            assert all(tree.feature.tolist() == [-1] for tree in restored.trees)


@st.composite
def draw_sequences(draw):
    """Per step, one kind of draw for a random subset of 1-3 streams."""
    n_streams = draw(st.integers(1, 3))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["choose", "huge-bounds", "threshold", "two-ulp"]))
        streams = draw(st.lists(st.integers(0, n_streams - 1), min_size=1, unique=True))
        ops = []
        for _ in streams:
            if kind == "choose":
                m = draw(st.integers(1, 20))
                ops.append((m, draw(st.integers(1, m))))
            elif kind == "huge-bounds":
                # Lemire's rule rejects about a quarter of the draws below
                # bounds near 3 * 2**30
                ops.append((3 * 2**30 + draw(st.integers(-50, 50)), draw(st.integers(1, 6))))
            else:
                ranges = []
                for _ in range(draw(st.integers(1, 3))):
                    lo = draw(st.floats(-1e6, 1e6, allow_nan=False))
                    hi = math.nextafter(math.nextafter(lo, math.inf), math.inf)
                    if kind == "threshold":
                        hi = lo + draw(st.floats(1e-3, 1e3))
                    ranges.append((lo, hi))
                ops.append(ranges)
        steps.append((kind, sorted(streams), ops))
    return n_streams, steps


class TestReplay:
    @settings(max_examples=150, deadline=None)
    @given(sequence=draw_sequences(), seed=st.integers(0, 2**64 - 1))
    def test_replay_equals_generator_calls(self, sequence, seed):
        # the lockstep builder's draws, replayed from raw PCG64 words for
        # several streams at once, equal RandomSplitSampler calls on one
        # Generator per stream, value for value and in the final state
        n_streams, steps = sequence
        samplers = [
            RandomSplitSampler(np.random.Generator(np.random.PCG64(seed ^ i)))
            for i in range(n_streams)
        ]
        replayed = [np.random.PCG64(seed ^ i) for i in range(n_streams)]
        replay = extratrees._Replay(replayed, reserve=6)
        for kind, streams, ops in steps:
            trees = np.array(streams)
            if kind == "choose":
                m, kk = np.array([op[0] for op in ops]), np.array([op[1] for op in ops])
                chosen = replay.choose(trees, [list(range(c)) for c in m.tolist()], m, kk)
                for row, t, (c, k) in zip(chosen.tolist(), streams, ops):
                    assert row[:k] == samplers[t].choose_features(list(range(c)), k)
            elif kind == "huge-bounds":
                # the offsets choose_features would draw from a pool of m
                m, kk = np.array([op[0] for op in ops]), np.array([op[1] for op in ops])
                offsets = replay.offsets(trees, m, kk)
                for row, t, (c, k) in zip(offsets.tolist(), streams, ops):
                    expected = samplers[t].rng.integers(0, np.arange(c, c - k, -1))
                    assert row[:k] == expected.tolist()
            else:
                # each node's ranges, padded to the widest with (0, 1)
                kk = np.array([len(ranges) for ranges in ops])
                padded = [ranges + [(0.0, 1.0)] * (kk.max() - len(ranges)) for ranges in ops]
                lo, hi = np.array(padded)[:, :, 0], np.array(padded)[:, :, 1]
                drawn = replay.thresholds(trees, lo, hi, kk)
                for row, t, ranges in zip(drawn.tolist(), streams, ops):
                    assert row[: len(ranges)] == [
                        samplers[t].draw_threshold(a, b) for a, b in ranges
                    ]
        for t in range(n_streams):
            replay._hand_back(t)
        for sampler, bit_generator in zip(samplers, replayed):
            assert bit_generator.state == sampler.rng.bit_generator.state


class TestReplaySlowPath:
    def test_a_node_without_draws_takes_no_slow_path(self, monkeypatch):
        # a node with one qualifying feature draws nothing, so its padding
        # (the zeroed buffer of a stream not yet read) is no Lemire rejection
        slow_path = []
        slow = extratrees._Replay._slow

        def counted(self, t, draw):
            slow_path.append(t)
            return slow(self, t, draw)

        monkeypatch.setattr(extratrees._Replay, "_slow", counted)
        replayed = [np.random.PCG64(5), np.random.PCG64(6)]
        replay = extratrees._Replay(replayed, reserve=2)
        trees = np.array([0, 1])
        offsets = replay.offsets(trees, np.array([1, 1]), np.array([1, 1]))
        assert offsets.tolist() == [[0], [0]] and slow_path == []
        offsets = replay.offsets(trees[1:], np.array([1]), np.array([1]))
        assert offsets.tolist() == [[0]] and slow_path == []
        for t in range(2):
            replay._hand_back(t)
        for seed, bit_generator in zip((5, 6), replayed):
            rng = np.random.Generator(np.random.PCG64(seed))
            assert rng.integers(0, np.arange(1, 0, -1)).tolist() == [0]
            assert bit_generator.state == rng.bit_generator.state


class TestLockstep:
    @pytest.mark.parametrize(
        "table,min_split,k,chunked",
        [
            (step_table(), 3, None, False),
            (step_table(), 5, 2, False),
            (random_table(40, 4, seed=91), 4, None, False),
            (random_table(40, 4, seed=92), 3, 1, False),
            # 7 trees of 200 rows: the first steps are split into chunks
            (random_table(200, 3, seed=93), 5, None, True),
        ],
        ids=["steps", "steps-k2", "random", "random-k1", "chunked"],
    )
    def test_trees_and_importances_equal_one_tree_at_a_time(self, table, min_split, k, chunked):
        seed = 2**63 + 11
        params = ExtraTreesParams(n_trees=7, k_features=k, min_samples_split=min_split, seed=seed)
        model = fit(table, params)
        X, y = table.matrix(table.feature_names), table.target_values()
        assert (len(y) * params.n_trees > extratrees._ROW_CAP) == chunked
        acc = np.zeros(X.shape[1])
        sizes = set()
        for i, fitted in enumerate(model.trees):
            sampler = RandomSplitSampler(np.random.Generator(np.random.PCG64(seed ^ i)))
            draws = extratrees._SamplerDraws(sampler)
            Xy = np.hstack((X, y[:, None]))
            forest = lambda: extratrees._Lockstep(Xy, 1, k or X.shape[1], min_split, draws)  # noqa: E731
            [grown], [tree_acc] = extratrees._grow(y, X.shape[1], 1, min_split, forest)
            for name in ("feature", "threshold", "left", "right", "value", "count"):
                ours, theirs = getattr(fitted, name), getattr(grown, name)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
            acc += tree_acc
            sizes.add(fitted.feature.size)
        assert model.importances.tobytes() == (acc / acc.sum()).tobytes()
        # trees of different sizes end at different steps
        assert len(sizes) > 1
