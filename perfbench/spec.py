"""What the benchmark measures: workloads, metrics, bounds and sizes.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --workload all``), so the names, units and
bounds below are the single source of truth for both.
"""

from __future__ import annotations

RUN_SECONDS = 40

# Each workload stresses a different layer; the "why" says which.
WORKLOADS = {
    "paper-bench-b": (
        "criterion-1 synthetic benchmark, approach B, 36 windows of 100 trees: "
        "fitting the trees does almost all the work"
    ),
    "naive-baseline-long": (
        "1,020 months x 48 features, approaches A and B with one-leaf trees: "
        "1,992 windows of slicing, transforms and reconstruction, little fitting"
    ),
    "ingest-panel": (
        "validate, strict-read and aggregate a ~340k-row employer panel, a dirty copy, "
        "weekly claims and storm events: ingest does all the work"
    ),
}

# (name, unit, better, bound). A bound is the share of the parent's median
# a metric may worsen by. Times get the largest bound allowed: on a shared
# 2-vCPU VM the host's speed switches between states up to 1.8x apart over
# seconds to minutes, so the quartile spread of ten runs' times reached
# 0.17-0.34 of their median. Peak memory barely moves.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Printed with every trace-0 run and kept in the result file, but not in
# BENCHMARK.json: each applies to some workloads only or is 0 when all is
# well, and BENCHMARK.json metrics must be emitted, nonzero, by every run.
EXTRA_END_TO_END = (
    ("windows_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("r2_level", "1"),
    ("directional_accuracy", "1"),
    ("ops_failed_frac", "1"),
)

# (name, unit); each value is per traced operation. Lower is better for all
# but the node rate.
PER_LAYER = (
    ("extratrees.fit_s", "s"),
    ("extratrees.fit_cpu_s", "s"),
    ("extratrees.fit_calls", "count"),
    ("extratrees.nodes", "count"),
    ("extratrees.nodes_per_s", "1/s"),
    ("extratrees.predict_s", "s"),
    ("transforms.apply_pipeline_s", "s"),
    ("transforms.apply_pipeline_calls", "count"),
    ("transforms.rows_transformed", "count"),
    ("transforms.reconstruct_s", "s"),
    ("timeseries.align_s", "s"),
    ("timeseries.slice_s", "s"),
    ("timeseries.slice_calls", "count"),
    ("backtest.self_s", "s"),
    ("backtest.window_p50_ms", "ms"),
    ("backtest.window_tail_ms", "ms"),
    ("backtest.window_tail_pct", "%"),
    ("backtest.windows", "count"),
    ("backtest.report_write_s", "s"),
    ("ingest.validate_s", "s"),
    ("ingest.read_s", "s"),
    ("ingest.aggregate_s", "s"),
    ("ingest.write_s", "s"),
    ("ingest.rows", "count"),
    ("ingest.findings", "count"),
    ("synth.generate_s", "s"),
    ("cli.self_s", "s"),
    ("extratrees.self_s", "s"),
    ("transforms.self_s", "s"),
    ("timeseries.self_s", "s"),
    ("ingest.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_frac", "1"),
)

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the same
# code paths at a size the self-check runs in seconds.
SIZES = {
    "full": {
        "paper-bench-b": {"months": 96, "features": 6, "min_train": 60, "n_trees": 100},
        "naive-baseline-long": {"months": 1020, "features": 48, "min_train": 24},
        "ingest-panel": {"employers": 3000, "months": 120, "storms": 30000},
    },
    "tiny": {
        "paper-bench-b": {"months": 40, "features": 3, "min_train": 28, "n_trees": 4},
        "naive-baseline-long": {"months": 60, "features": 4, "min_train": 24},
        "ingest-panel": {"employers": 40, "months": 24, "storms": 300},
    },
}

DEFAULT_SEED = 7


def benchmark_json() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n.endswith("_per_s") else "lower"}
            for n, u in PER_LAYER
        ],
    }
