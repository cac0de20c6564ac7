import ast
import json
import os
import subprocess
import sys
import textwrap
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


def test_the_cli_imports_only_the_standard_library_numpy_and_itself():
    # the benchmark's setup_s times ``import nowcast.cli`` in fresh
    # interpreters, so a third-party import there is a cost on every run
    probe = (
        "import sys; before = set(sys.modules); import nowcast.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    src = Path(nowcast.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert {"nowcast", "numpy"} <= set(added)
    assert [m for m in added if m not in sys.stdlib_module_names | {"nowcast", "numpy"}] == []


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

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "claims.csv"
        path.write_bytes(b"")
        code, out, err = run(["validate", str(path), "--schema", "claims"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path} is empty (missing header)\n"


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

    def test_months_past_9999_12_exit_one(self, tmp_path, capsys):
        code, _, err = run(synth_args(tmp_path / "d", months=95_857), capsys)
        assert code == 1
        assert "95856" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--trend", "inf"], "trend_per_month must be a finite real number, got inf"),
            (["--noise-sd", "nan"], "noise_sd must be a finite real number, got nan"),
            (["--seasonal-amplitude", "nan"],
             "seasonal_amplitudes[0] must be a finite real number, got nan"),
            (["--trend", "1e308"], "generated values overflow a float: the config is too large"),
        ],
        ids=["inf-trend", "nan-noise", "nan-seasonal", "overflowing-trend"],
    )
    def test_sizes_generate_cannot_use_exit_one(self, tmp_path, capsys, extra, message):
        # without a numpy warning: under pytest a warning is an error
        code, _, err = run(synth_args(tmp_path / "d", months=40, seed=1, extra=extra), capsys)
        assert (code, err) == (1, f"error: {message}\n")
        assert not (tmp_path / "d").exists()


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

    def test_out_naming_a_regular_file_exits_two(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code, stdout, err = run(backtest_args(synth_dir, out), capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: [Errno 17] File exists:") and str(out) in err

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
        # more than the float range, so no threshold can be drawn inside it.
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

    @pytest.mark.parametrize(
        "target,feature,message",
        [
            # constant levels whose mean and sums of squares overflow
            ([1e308] * 30, [float(i % 5) for i in range(30)], "actual values have zero variance"),
            # a feature whose last first difference overflows
            (
                [100.0 + i * 1.5 + (i % 3) for i in range(30)],
                [float(i % 7) for i in range(28)] + [-sys.float_info.max, sys.float_info.max],
                "column 'feat' values contain NaN or infinite entries",
            ),
        ],
        ids=["constant-huge-target", "feature-difference-overflows"],
    )
    def test_values_at_the_float_limit_exit_one_without_warnings(
        self, tmp_path, target, feature, message
    ):
        # the command runs in a child process under Python's default warning
        # filters, where a numpy RuntimeWarning would print to stderr
        months = [f"{2020 + i // 12}-{i % 12 + 1:02d}" for i in range(30)]
        for name, values in (("target", target), ("feat", feature)):
            rows = [f"{month},{value!r}" for month, value in zip(months, values)]
            (tmp_path / f"{name}.csv").write_text("\n".join(["month,value", *rows]) + "\n")
        args = [
            "backtest", "--target", str(tmp_path / "target.csv"),
            "--features", str(tmp_path / "feat.csv"), "--approach", "B",
            "--min-train", "13", "--seed", "1", "--n-trees", "3", "--out", str(tmp_path / "out"),
        ]
        src = Path(nowcast.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "nowcast", *args],
            capture_output=True, text=True, timeout=60, cwd=src,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Warning" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line == f"error: {message}"

    def test_an_infinite_first_difference_exits_one_without_warnings(self, tmp_path):
        # under approach A the feature's first differences hold -inf twice,
        # 12 months apart, so its seasonal step meets inf - inf; the child
        # runs under Python's default warning filters, where a numpy
        # RuntimeWarning would print to stderr
        months = [f"{2020 + i // 12}-{i % 12 + 1:02d}" for i in range(25)]
        feature = [0.0] * 25
        feature[4:6] = feature[16:18] = [sys.float_info.max, -sys.float_info.max]
        target = [100.0 + i * 1.5 + (i % 3) for i in range(25)]
        for name, values in (("target", target), ("feature", feature)):
            rows = [f"{month},{value!r}" for month, value in zip(months, values)]
            (tmp_path / f"{name}.csv").write_text("\n".join(["month,value", *rows]) + "\n")
        args = [
            "backtest", "--target", str(tmp_path / "target.csv"),
            "--features", str(tmp_path / "feature.csv"), "--approach", "A",
            "--min-train", "24", "--seed", "0", "--n-trees", "3", "--out", str(tmp_path / "out"),
        ]
        src = Path(nowcast.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "nowcast", *args],
            capture_output=True, text=True, timeout=60, cwd=src,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Warning" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line == "error: column 'feature' values contain NaN or infinite entries"

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

    def test_any_well_formed_pair_exits_cleanly(self, tmp_path):
        # over pairs of well-formed monthly-series files (any finite values,
        # the largest floats and subnormals included, lengths around
        # --min-train) backtest exits 0, 1 or 2 and prints no traceback; the
        # child treats warnings as errors, so a numpy warning fails it too,
        # and a hang is caught by its timeout
        code = textwrap.dedent(
            """
            import contextlib
            import io
            import tempfile
            from pathlib import Path

            from hypothesis import given, settings, strategies as st

            from nowcast.backtest import MIN_TRAIN_FLOOR
            from nowcast.cli import main
            from nowcast.transforms import Approach

            EDGES = [1.7976931348623157e308, 8.98846567431158e307, 2.2250738585072014e-308, 5e-324, 0.0]
            extreme = st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(EDGES + [-v for v in EDGES]),
            )

            def series_file(draw, path, min_train):
                start, n = draw(st.integers(0, 2)), min_train + draw(st.integers(-1, 12))
                cells = draw(st.lists(draw(st.sampled_from([st.floats(-1e6, 1e6), extreme])), min_size=n, max_size=n))
                months = [f"{2020 + (start + i) // 12}-{(start + i) % 12 + 1:02d}" for i in range(n)]
                rows = [f"{month},{value!r}" for month, value in zip(months, cells)]
                path.write_text("\\n".join(["month,value", *rows]) + "\\n")

            @settings(max_examples=300, deadline=None, database=None)
            @given(st.data(), st.sampled_from(list(Approach)), st.integers(2, 6), st.integers(0, 2**32))
            def exits_cleanly(data, approach, min_split, seed):
                min_train = MIN_TRAIN_FLOOR[approach] + data.draw(st.integers(-1, 2))
                with tempfile.TemporaryDirectory() as tmp:
                    target, feature = Path(tmp, "target.csv"), Path(tmp, "feature.csv")
                    series_file(data.draw, target, min_train)
                    series_file(data.draw, feature, min_train)
                    argv = [
                        "backtest", "--target", str(target), "--features", str(feature),
                        "--approach", approach.value, "--min-train", str(min_train),
                        "--seed", str(seed), "--out", str(Path(tmp, "out")),
                        "--n-trees", "3", "--min-samples-split", str(min_split),
                    ]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        exit_code = main(argv)
                assert exit_code in (0, 1, 2) and "Traceback" not in err.getvalue()
                if exit_code:
                    assert err.getvalue().splitlines()[-1].startswith("error: ")

            exits_cleanly()
            print("held")
            """
        )
        # hypothesis keeps a cache in its working directory, so it runs in tmp_path
        src = Path(nowcast.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True, timeout=120,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "held\n")
