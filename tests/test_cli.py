import json
import subprocess
import sys
from pathlib import Path

import pytest

import nowcast

from nowcast.cli import main
from nowcast.ingest import validate

CLEAN_CLAIMS = """week_ending,initial_claims,continued_claims
2017-01-07,200000,1700000
2017-01-14,210000,1700000
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "claims.csv"
        path.write_text(CLEAN_CLAIMS)
        code, out, _ = run(["validate", str(path), "--schema", "claims"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_defective_file_exits_one_with_findings(self, tmp_path, capsys):
        path = tmp_path / "claims.csv"
        path.write_text(CLEAN_CLAIMS.replace("210000", ""))
        code, out, _ = run(["validate", str(path), "--schema", "claims"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and doc["findings"]

    def test_integer_column_with_a_decimal_point_exits_one(self, tmp_path, capsys):
        path = tmp_path / "claims.csv"
        path.write_text(CLEAN_CLAIMS.replace("210000", "3.0"))
        code, out, _ = run(["validate", str(path), "--schema", "claims"], capsys)
        assert code == 1
        [finding] = json.loads(out)["findings"]
        assert (finding["row"], finding["kind"]) == (3, "type_mismatch")

    def test_oversized_cell_exits_two_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text(f"month,value\n2020-01,{'9' * 200_000}\n")
        code, out, err = run(["validate", str(path), "--schema", "monthly-series"], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: cannot read {path}: field larger than field limit")

    def test_stdout_is_the_report_json_and_a_newline(self, tmp_path, capsys):
        path = tmp_path / "claims.csv"
        path.write_text(
            "week_ending,initial_claims,continued_claims\n"
            "2017-01-07,,1700000\n"
            "2017-01-14,210000,1700000\n"
            "2017-01-20,190000,1700000\n"  # a Friday
            "2017-01-28,9990000,1700000\n"
            "2017-02-04,200000,99999999\n"
            "2017-02-11,200000,1700000\n"
            "2017-02-18,200000,1700000\n"
            "2017-02-25,200000,1700000\n"
            "2017-02-25,200000,1700000\n"
        )
        report = validate(path, "claims")
        assert {f.kind for f in report.findings} == {
            "missing_value", "duplicate", "ordering", "outlier", "convention"
        }
        code, out, _ = run(["validate", str(path), "--schema", "claims"], capsys)
        assert code == 1
        assert out == report.to_json() + "\n"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(
            ["validate", str(tmp_path / "nope.csv"), "--schema", "claims"], capsys
        )
        assert code == 2
        assert "error" in err


def synth_args(out_dir, months=48, seed=3, extra=()):
    return [
        "synth",
        "--months",
        str(months),
        "--seed",
        str(seed),
        "--out-dir",
        str(out_dir),
        *extra,
    ]


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path, capsys):
        code, _, _ = run(synth_args(tmp_path / "d", extra=["--n-features", "3"]), capsys)
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert names == [
            "feature_01.csv",
            "feature_02.csv",
            "feature_03.csv",
            "target.csv",
            "truth.json",
        ]
        truth = json.loads((tmp_path / "d" / "truth.json").read_text())
        assert truth["schema_version"] == 1

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        run(synth_args(tmp_path / "a"), capsys)
        run(synth_args(tmp_path / "b"), capsys)
        for name in ["target.csv", "truth.json", "feature_01.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_below_minimum_months_exits_one(self, tmp_path, capsys):
        code, _, err = run(synth_args(tmp_path / "d", months=12), capsys)
        assert code == 1
        assert "36" in err


@pytest.fixture()
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(synth_args(out, months=48, seed=3, extra=["--n-features", "2"])) == 0
    capsys.readouterr()
    return out


def backtest_args(synth_dir, out_dir, approach="B", min_train="30", extra=()):
    return [
        "backtest",
        "--target",
        str(synth_dir / "target.csv"),
        "--features",
        str(synth_dir / "feature_01.csv"),
        str(synth_dir / "feature_02.csv"),
        "--approach",
        approach,
        "--min-train",
        min_train,
        "--seed",
        "3",
        "--out",
        str(out_dir),
        "--n-trees",
        "20",
        *extra,
    ]


class TestBacktestCommand:
    def test_writes_report_files(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(backtest_args(synth_dir, out), capsys)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert "r_squared_level" in doc["metrics"]
        assert "directional_accuracy" in doc["metrics"]
        assert (out / "predictions.csv").exists()
        plot_header = (out / "plot.csv").read_text().splitlines()[0]
        assert plot_header == "month,actual_level,predicted_level"
        assert "r_squared_level" in stdout

    def test_both_approaches_run(self, synth_dir, tmp_path, capsys):
        for approach in ["A", "B"]:
            out = tmp_path / approach
            code, _, _ = run(
                backtest_args(synth_dir, out, approach=approach), capsys
            )
            assert code == 0
            assert (out / "report.json").exists()

    def test_min_train_beyond_span_exits_one(self, synth_dir, tmp_path, capsys):
        code, _, err = run(
            backtest_args(synth_dir, tmp_path / "x", min_train="48"), capsys
        )
        assert code == 1
        assert "min_train_months + 1" in err

    def test_disjoint_inputs_exit_one(self, synth_dir, tmp_path, capsys):
        # a feature series that shares no months with the target
        (tmp_path / "far.csv").write_text(
            "month,value\n" + "\n".join(f"2000-{m:02d},1.0" for m in range(1, 13)) + "\n"
        )
        args = [
            "backtest",
            "--target",
            str(synth_dir / "target.csv"),
            "--features",
            str(tmp_path / "far.csv"),
            "--approach",
            "B",
            "--min-train",
            "30",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "y"),
        ]
        code, _, err = run(args, capsys)
        assert code == 1
        assert "common months" in err

    def test_targets_too_large_to_fit_exit_one(self, synth_dir, tmp_path, capsys):
        # finite levels whose differences square beyond the float range
        target = synth_dir / "target.csv"
        header, *rows = target.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        scaled = [f"{month},{float(value) * 1e151!r}" for month, value in cells]
        target.write_text("\n".join([header, *scaled]) + "\n")
        code, out, err = run(backtest_args(synth_dir, tmp_path / "x"), capsys)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: fit targets are too large")

    def test_feature_too_wide_to_split_exits_one(self, synth_dir, tmp_path):
        # a valid feature alternating 0 and 8.99e307: its differences span
        # more than the float range, and fit once redrew a threshold forever.
        # The command runs in a child process, killed after the timeout.
        months = [row.split(",")[0] for row in (synth_dir / "target.csv").read_text().split()[1:]]
        values = [f"{month},{8.99e307 * (i % 2)!r}" for i, month in enumerate(months)]
        (synth_dir / "wide.csv").write_text("\n".join(["month,value", *values]) + "\n")
        args = backtest_args(synth_dir, tmp_path / "x")
        features = slice(args.index("--features") + 1, args.index("--approach"))
        args[features] = [str(synth_dir / "wide.csv")]
        src = Path(nowcast.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nowcast", *args],
            capture_output=True, text=True, timeout=60, cwd=src,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line == "error: fit features are too wide: max - min overflows a float for wide"

    def test_malformed_target_exits_one_naming_file_and_line(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "target.csv").read_text().splitlines(keepends=True)
        lines[2] = lines[2].split(",")[0] + ",n/a\n"
        (synth_dir / "target.csv").write_text("".join(lines))
        code, _, err = run(backtest_args(synth_dir, tmp_path / "x"), capsys)
        assert code == 1
        assert "target.csv:3: value: not a number" in err

    def test_oversized_cell_in_target_exits_two_naming_the_file(self, synth_dir, tmp_path, capsys):
        target = synth_dir / "target.csv"
        lines = target.read_text().splitlines(keepends=True)
        lines[2] = lines[2].split(",")[0] + "," + "9" * 200_000 + "\n"
        target.write_text("".join(lines))
        code, _, err = run(backtest_args(synth_dir, tmp_path / "x"), capsys)
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith(f"error: cannot read {target}: field larger than field limit")

    def test_unreadable_target_exits_two_despite_an_earlier_bad_row(
        self, synth_dir, tmp_path, capsys, unreadable_after_bad_row
    ):
        target, error = unreadable_after_bad_row
        args = backtest_args(synth_dir, tmp_path / "x")
        args[args.index("--target") + 1] = str(target)
        code, _, err = run(args, capsys)
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith(f"error: cannot read {target}: {error}")

    def test_feature_named_like_a_month_indicator_exits_one(self, synth_dir, tmp_path, capsys):
        (synth_dir / "month_03.csv").write_bytes((synth_dir / "feature_02.csv").read_bytes())
        args = backtest_args(synth_dir, tmp_path / "x")
        args[args.index(str(synth_dir / "feature_02.csv"))] = str(synth_dir / "month_03.csv")
        code, _, err = run(args, capsys)
        assert code == 1
        assert "month_03" in err

    def test_noise_free_approach_a_reports_null_transformed_r2(self, tmp_path, capsys):
        # without noise the doubly differenced target is constant, so its
        # R-squared is undefined; the run still writes every prediction
        data = tmp_path / "clean"
        noise_free = ["--noise-sd", "0", "--feature-noise-sd", "0", "--n-features", "2"]
        assert main(synth_args(data, months=60, seed=1, extra=noise_free)) == 0
        out = tmp_path / "a"
        args = backtest_args(data, out, approach="A", min_train="36")
        code, _, _ = run(args, capsys)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["metrics"]["r_squared_transformed"] is None
        assert '"r_squared_transformed": null' in (out / "report.json").read_text()
        assert len(doc["predictions"]) == 24

    def test_thread_env_does_not_change_report(self, synth_dir, tmp_path, capsys, monkeypatch):
        outputs = []
        for threads in ["1", "4"]:
            monkeypatch.setenv("NOWCAST_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert run(backtest_args(synth_dir, out), capsys)[0] == 0
            outputs.append((out / "report.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_thread_env_is_not_read(self, synth_dir, tmp_path, capsys, monkeypatch):
        # fit builds its trees on one thread whatever the variable holds, so
        # even a value that is no number leaves the run and its bytes alone
        outputs = []
        for threads in [None, "abc"]:
            if threads is None:
                monkeypatch.delenv("NOWCAST_THREADS", raising=False)
            else:
                monkeypatch.setenv("NOWCAST_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert run(backtest_args(synth_dir, out), capsys)[0] == 0
            outputs.append((out / "report.json").read_bytes())
        assert outputs[0] == outputs[1]
