"""Command-line entry point.

Three subcommands cover the batch workflow: ``validate`` checks a CSV
against a named schema, ``synth`` writes a seeded synthetic dataset, and
``backtest`` runs the expanding-window evaluation over monthly-series
files. Exit codes: 0 success, 1 domain error (bad data or bounds),
2 I/O error. Every command is deterministic given its flags; the only
randomness flows from ``--seed``. Models are fitted on one thread, and no
environment variable changes results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import backtest as bt
from . import ingest, synth
from .errors import NowcastError, UnreadableFileError
from .extratrees import ExtraTreesParams
from .timeseries import MonthKey, align
from .transforms import Approach

TRUTH_SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nowcast",
        description="Monthly payroll-employment nowcasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a CSV file against a schema")
    p_validate.add_argument("path")
    p_validate.add_argument(
        "--schema", required=True, choices=sorted(ingest.SCHEMAS)
    )

    p_synth = sub.add_parser("synth", help="write a seeded synthetic dataset")
    p_synth.add_argument("--months", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--trend", type=float, default=200.0)
    p_synth.add_argument(
        "--seasonal-amplitude",
        type=float,
        default=300.0,
        help="peak of the sinusoidal 12-month pattern",
    )
    p_synth.add_argument("--noise-sd", type=float, default=25.0)
    p_synth.add_argument("--n-features", type=int, default=6)
    p_synth.add_argument("--feature-noise-sd", type=float, default=10.0)
    p_synth.add_argument("--shock-month", help="YYYY-MM of a one-month level shock")
    p_synth.add_argument("--shock-size", type=float, default=0.0)

    p_back = sub.add_parser("backtest", help="expanding-window walk-forward evaluation")
    p_back.add_argument("--target", required=True, help="monthly-series CSV of the target")
    p_back.add_argument(
        "--features", required=True, nargs="+", help="monthly-series CSVs of features"
    )
    p_back.add_argument("--approach", required=True, choices=[a.value for a in Approach])
    p_back.add_argument("--min-train", type=int, required=True)
    p_back.add_argument("--seed", type=int, required=True)
    p_back.add_argument("--out", required=True, help="output directory for report files")
    p_back.add_argument("--n-trees", type=int, default=100)
    p_back.add_argument("--k-features", type=int, default=None)
    p_back.add_argument("--min-samples-split", type=int, default=5)
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    report = ingest.validate(args.path, args.schema)
    report.write_json(sys.stdout)
    sys.stdout.write("\n")
    return 0 if report.passed else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    config = synth.SynthConfig(
        months=args.months,
        seed=args.seed,
        trend_per_month=args.trend,
        seasonal_amplitudes=synth.sinusoidal_amplitudes(args.seasonal_amplitude),
        noise_sd=args.noise_sd,
        n_features=args.n_features,
        feature_noise_sd=args.feature_noise_sd,
        shock_month=MonthKey.parse(args.shock_month) if args.shock_month else None,
        shock_size=args.shock_size,
    )
    result = synth.generate(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_monthly_series_csv(result.target, out_dir / "target.csv")
    for feature in result.features:
        ingest.write_monthly_series_csv(feature, out_dir / f"{feature.name}.csv")
    truth = {"schema_version": TRUTH_SCHEMA_VERSION, **result.truth}
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2) + "\n")
    print(f"wrote {1 + len(result.features)} series and truth.json to {out_dir}")
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    target = ingest.read_monthly_series_csv(args.target)
    features = [ingest.read_monthly_series_csv(p) for p in args.features]
    table = align([target] + features).with_target(target.name)
    config = bt.BacktestConfig(
        min_train_months=args.min_train,
        approach=Approach(args.approach),
        model_params=ExtraTreesParams(
            n_trees=args.n_trees,
            k_features=args.k_features,
            min_samples_split=args.min_samples_split,
            seed=args.seed,
        ),
    )
    report = bt.run_backtest(table, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    report.write_csv(out_dir / "predictions.csv")
    report.write_plot_csv(out_dir / "plot.csv")
    print(
        f"backtest over {len(report.records)} months: "
        f"r_squared_level={report.r_squared_level:.6f} "
        f"directional_accuracy={report.directional_accuracy:.4f}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_backtest(args)
    except UnreadableFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NowcastError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
