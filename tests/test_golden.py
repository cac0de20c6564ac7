"""Golden bytes: SHA-256 pins of the benchmark reports and of one model.

Any change to the tree builder's draw order, its arithmetic or the JSON
encodings shows up here as a different digest. A change that alters these
bytes on purpose must say why and update the pins.
"""

import hashlib

import numpy as np
import pytest

from nowcast.extratrees import ExtraTreesParams, fit
from nowcast.timeseries import FeatureTable, MonthKey

from test_acceptance import bench_table, run_benchmark  # noqa: F401  (fixture)

REPORT_SHA256 = {
    "A": "6848afc36a6aee1d7991b2c1e328d82a2fd157ddff8430644c9d9bc69ca38f35",
    "B": "ae5378bc48c2561c1fd70f2bdca02fa72073aad6dae6e62877cf481f61ceafa0",
}
MODEL_SHA256 = "7d1283489070d7c3a79b1e0aa7e53358f68ec518a140563317ed0742ce28015e"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("approach", ["A", "B"])
def test_benchmark_report_bytes(bench_table, approach):
    # seed 7, 96 months, min_train 60, one thread: the criterion-1 benchmark
    report = run_benchmark(bench_table, approach, seed=7)
    assert sha256(report.to_json()) == REPORT_SHA256[approach]


def test_model_document_bytes():
    rng = np.random.default_rng(2020)
    n = 40
    cols = {f"f{i}": rng.normal(size=n) for i in range(4)}
    cols["step"] = np.repeat([0.0, 1.0, 2.0, 3.0], n // 4)  # repeated values
    cols["flat"] = np.full(n, 5.0)  # never splittable
    cols["y"] = cols["f0"] * 3.0 + cols["step"] + rng.normal(scale=0.1, size=n)
    months = tuple(MonthKey(2015, 1).shift(i) for i in range(n))
    table = FeatureTable(months, cols, target="y")
    params = ExtraTreesParams(n_trees=7, k_features=3, min_samples_split=2, seed=2020)
    model = fit(table, params, n_threads=1)
    assert sha256(model.to_json()) == MODEL_SHA256
