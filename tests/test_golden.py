"""Golden bytes: SHA-256 pins of the benchmark outputs and of one model.

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
CSV_SHA256 = {
    ("A", "predictions.csv"): "c422402fe00f598e5fade96cc2966d1bbabd1ac66bdc6805421c3db0d2e35c29",
    ("A", "plot.csv"): "ff90bab5fb6a5d437966dafc5c35c748f9e96e8c2d235d2216ba99df7bbcd6a1",
    ("B", "predictions.csv"): "c0cf1f0e0f88141d68091720ae6b79d5937bb5683b40dbf7770c42debca5b4a3",
    ("B", "plot.csv"): "071ba6ed0cf06c6c535b012ef1d7dd2e130fbe83e3ecb5307b4c9ae4111c4457",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def bench_report(bench_table):
    """The criterion-1 benchmark report of an approach (seed 7, 96 months,
    min_train 60, one thread), run once per module."""
    reports = {}

    def report(approach):
        if approach not in reports:
            reports[approach] = run_benchmark(bench_table, approach, seed=7)
        return reports[approach]

    return report


@pytest.mark.parametrize("approach", ["A", "B"])
def test_benchmark_report_bytes(bench_report, approach):
    assert sha256(bench_report(approach).to_json()) == REPORT_SHA256[approach]


@pytest.mark.parametrize("approach", ["A", "B"])
def test_benchmark_csv_bytes(bench_report, approach, tmp_path):
    report = bench_report(approach)
    report.write_csv(tmp_path / "predictions.csv")
    report.write_plot_csv(tmp_path / "plot.csv")
    for name in ("predictions.csv", "plot.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == CSV_SHA256[approach, name], name


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
