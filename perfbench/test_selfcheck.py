"""Fast self-check of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench

Runs every workload untraced and traced, checks that each run emits every
named metric with its unit, and that corrupting a pinned output value makes
the run fail its correctness check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spec  # noqa: E402

SEED = spec.DEFAULT_SEED


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, record = run.run_workload(workload, SEED, 0, trace, "tiny", tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0), record["problems"]
    assert result["attempted"] == len(record["op_walls_s"]) * (1 + trace) * {
        "paper-bench-b": 1,
        "naive-baseline-long": 2,
        "ingest-panel": 8,
    }[workload]
    if trace:
        expected = dict(spec.PER_LAYER)
    else:
        expected = {name: unit for name, unit, _, _ in spec.END_TO_END}
        extra = {"ingest-panel": {"rows_per_s", "ops_failed_frac"}}.get(
            workload, {"windows_per_s", "ops_failed_frac"}
        )
        assert extra <= set(record["metrics"])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


COUNTS = {
    "paper-bench-b": ("extratrees.nodes", "transforms.rows_transformed", "timeseries.slice_calls"),
    "naive-baseline-long": (
        "extratrees.nodes", "transforms.rows_transformed", "timeseries.slice_calls",
    ),
    "ingest-panel": ("ingest.rows", "ingest.findings"),
}


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    runs = [
        run.run_workload(workload, SEED, 0, 1, "tiny", tmp_path / str(i))[0]["metrics"]
        for i in range(2)
    ]
    for name in COUNTS[workload]:
        assert runs[0][name]["value"] == runs[1][name]["value"] > 0


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_a_corrupted_pin_fails_the_run(workload, tmp_path):
    pins = run.load_pins("tiny", SEED, workload)
    assert pins, "tiny pins are missing"
    corrupted = {op: "0" * 64 for op in pins}
    result, record = run.run_workload(workload, SEED, 0, 0, "tiny", tmp_path, pins=corrupted)
    assert result["correct"] is False
    assert result["failed"] == len(pins)
    assert all("pinned" in p for p in record["problems"])


def test_benchmark_json_is_generated_from_the_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-bench-b", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
