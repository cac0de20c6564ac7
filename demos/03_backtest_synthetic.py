"""End-to-end walk-forward evaluation on a synthetic payroll panel.

Generates a seeded benchmark dataset, runs the expanding-window backtest
under both input pipelines, and writes plot-ready CSVs of actual vs
predicted levels to a temporary directory.
"""

import tempfile
from pathlib import Path

from nowcast import (
    Approach,
    BacktestConfig,
    ExtraTreesParams,
    SynthConfig,
    align,
    generate,
    run_backtest,
)

config = SynthConfig(months=72, seed=7)
result = generate(config)
print(f"generated {config.months} months, {len(result.features)} features, seed {config.seed}")
print(f"true trend {result.truth['trend_per_month']}/month, noise sd {result.truth['noise_sd']}")

table = align([result.target, *result.features]).with_target("target")
out_dir = Path(tempfile.mkdtemp(prefix="nowcast_demo_"))

for approach in (Approach.SEASONAL_DIFF, Approach.MONTH_ONEHOT):
    bt_config = BacktestConfig(
        min_train_months=48,
        approach=approach,
        model_params=ExtraTreesParams(n_trees=100, seed=7),
    )
    report = run_backtest(table, bt_config)
    steps = ", ".join(approach.ledger.describe())
    print(
        f"\npipeline {approach.value} ({approach.name.lower()}): "
        f"{len(report.records)} test months"
    )
    print(f"  transforms applied     = {steps}")
    print(f"  r_squared_level        = {report.r_squared_level:.6f}")
    print(f"  directional_accuracy   = {report.directional_accuracy:.4f}")
    print(f"  r_squared_transformed  = {report.r_squared_transformed:.4f}")
    plot_path = out_dir / f"plot_{approach.value}.csv"
    report.write_plot_csv(plot_path)
    print(f"  plot data -> {plot_path}")

print("\nper-month record example:", report.records[-1])
