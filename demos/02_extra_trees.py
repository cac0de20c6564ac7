"""Fitting the extremely randomized trees regressor.

Trains an ensemble on synthetic data, shows that feature importances
pick out informative columns, and round-trips the model through its JSON
encoding.
"""

import numpy as np

from nowcast import ExtraTreesParams, FeatureTable, MonthKey, feature_importances, fit, predict
from nowcast.backtest import r_squared
from nowcast.extratrees import ExtraTreesModel

rng = np.random.default_rng(42)
n = 120
signal = rng.normal(size=n)
months = tuple(MonthKey(2010, 1).shift(i) for i in range(n))
table = FeatureTable(
    months,
    {
        "signal": signal,
        "weak": signal + rng.normal(scale=3.0, size=n),
        "noise": rng.normal(size=n),
        "flat": np.zeros(n),
        "y": 5.0 * signal + rng.normal(scale=0.3, size=n),
    },
    target="y",
)

params = ExtraTreesParams(n_trees=100, seed=42)
model = fit(table, params)

print("feature importances (sum to 1; constant columns never split):")
for name, value in sorted(feature_importances(model).items(), key=lambda kv: -kv[1]):
    print(f"  {name:8s} {value:.3f}")

train_r2 = r_squared(table.target_values(), predict(model, table))
print(f"\nin-sample R^2: {train_r2:.4f}")

# same seed, same data: a bit-identical model
again = fit(table, params)
print("refit identical:", model.to_json() == again.to_json())

restored = ExtraTreesModel.from_json(model.to_json())
print(
    "JSON round-trip predictions identical:",
    bool(np.array_equal(predict(restored, table), predict(model, table))),
)
