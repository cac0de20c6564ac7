"""The nowcast benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload paper-bench-b --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced and traced

A run makes the workload's inputs from ``--seed``, then repeats the user
operation through nowcast's public entry points for as long as the next
one is expected to end within ``--seconds`` (at least once), checking
every operation's outputs. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations
and reports per-layer metrics from the spans. Every metric is printed
with its unit; the last line of standard output is the result as one
JSON object. Spans and full results go to ``.perfbench/``.

``--workload all`` also rewrites BENCHMARK.json from ``spec.py``. Run it
from the root of a checkout; it imports nowcast from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

OUT = ROOT / ".perfbench"
# set-ups per trace-0 run, and fresh interpreters that time the import;
# setup_s is the median import time plus the median set-up time
SETUPS = 5
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import nowcast.cli; "
    "print(time.perf_counter() - t0)"
)


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _import_times(n: int) -> list[float]:
    """Seconds ``import nowcast.cli`` takes in each of ``n`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        times.append(float(proc.stdout))
    return times


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def machine_facts() -> dict:
    import numpy
    from nowcast import extratrees

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # the thread count fit resolves with NOWCAST_THREADS unset; None once fit
    # no longer has a thread pool to size
    resolve = getattr(extratrees, "_resolve_threads", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fit_threads": resolve(None) if resolve else None,
        "git_commit": _git_commit(),
    }


def load_pins(size: str, seed: int, workload: str):
    pins = json.loads((HERE / "pinned.json").read_text())
    return pins.get(size, {}).get(str(seed), {}).get(workload)


def run_workload(name, seed, seconds, trace, size="full", out=OUT, pins=None):
    """One benchmark run; returns (result line dict, full record dict).

    ``pins`` overrides the pinned fingerprint (the self-check corrupts it).
    """
    out = Path(out)
    workdir = out / "work" / name
    import spans as tracing
    import workloads

    wl = workloads.WORKLOADS[name](spec.SIZES[size][name], seed, workdir)
    pinned = load_pins(size, seed, name) if pins is None else pins

    setup_tracer = tracing.Tracer()
    setup_times = []
    for _ in range(1 if trace else SETUPS):
        wl.fresh_inputs()
        gc.collect()
        with setup_tracer.installed(tracing.entry_points() if trace else []):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    import_times = [] if trace else _import_times(SETUPS)

    tracer = tracing.Tracer()
    sub_ops = wl.sub_ops()
    walls, cpus, traced_walls = [], [], []
    attempted = failed = 0
    first_fingerprint = first_counts = None
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(walls) > len(traced_walls)
        gc.collect()
        counted = dict(tracer.counts)
        try:
            with tracer.installed(tracing.entry_points() if traced else []):
                c0, t0 = _cpu(), time.perf_counter()
                raw = wl.run()
                wall, cpu = time.perf_counter() - t0, _cpu() - c0
            fingerprint, failures = wl.check(raw)
        except Exception as exc:  # a failed operation is counted, not fatal
            attempted += len(sub_ops)
            failed += len(sub_ops)
            problems.append(f"operation raised {exc!r}")
        else:
            (traced_walls if traced else walls).append(wall)
            if not traced:
                cpus.append(cpu)
            # every operation must repeat the first one's outputs, and at the
            # default seed those must equal the pinned values
            for op, now in fingerprint.items():
                if op in failures:
                    continue
                if first_fingerprint is not None and first_fingerprint.get(op) != now:
                    failures[op] = "outputs differ from this run's first operation"
                if pinned is not None and pinned.get(op) != now:
                    failures[op] = f"outputs differ from the pinned values: {now}"
            if first_fingerprint is None:
                first_fingerprint = fingerprint
            # the traced counts (nodes, rows, findings) must repeat exactly
            if traced:
                counts = {k: v - counted.get(k, 0) for k, v in tracer.counts.items()}
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    failures.setdefault(
                        sub_ops[0], f"traced counts {counts} differ from the first {first_counts}"
                    )
            attempted += len(sub_ops)
            failed += len(failures)
            problems.extend(f"{op}: {msg}" for op, msg in sorted(failures.items()))
        # stop before an operation that would end past the deadline, once
        # there is a sample of each kind the run reports
        elapsed = time.perf_counter() - started
        sampled = walls and (traced_walls or not trace)
        if sampled and elapsed + statistics.median(walls + traced_walls) > seconds:
            break
        if failed and elapsed >= seconds:
            break

    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": int(bool(trace)),
        "machine": machine_facts(),
        "fingerprint": first_fingerprint,
        "problems": problems,
        "op_walls_s": walls,
        "traced_op_walls_s": traced_walls,
    }
    units = {}
    if trace:
        metrics = tracing.summarize(tracer, traced_walls) if traced_walls else {}
        metrics["synth.generate_s"] = float(sum(
            s[tracing.END] - s[tracing.START]
            for s in setup_tracer.spans
            if s[tracing.NAME] == "synth.generate"
        ))
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
            if walls and traced_walls
            else 0.0
        )
        units.update(dict(spec.PER_LAYER))
        record["layer_shares"] = tracing.layer_shares(tracer, traced_walls) if traced_walls else {}
        out.mkdir(parents=True, exist_ok=True)
        tracer.dump(out / f"spans-{name}-{size}-seed{seed}.jsonl")
        result_metrics = {n: metrics.get(n, 0.0) for n, _ in spec.PER_LAYER}
    else:
        wall = statistics.median(walls) if walls else 0.0
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": wall,
            "cpu_s": statistics.median(cpus) if cpus else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_failed_frac": failed / attempted if attempted else 1.0,
        }
        for rate, work in wl.work().items():
            metrics[rate] = work / wall if wall else 0.0
        for approach, scores in sorted(wl.scores.items()):
            metrics[f"r2_level.{approach}"] = scores["r_squared_level"]
            metrics[f"directional_accuracy.{approach}"] = scores["directional_accuracy"]
        units.update({n: u for n, u, _, _ in spec.END_TO_END})
        units.update(dict(spec.EXTRA_END_TO_END))
        record["import_s"] = import_times
        record["setup_runs_s"] = setup_times
        result_metrics = {n: metrics[n] for n, _, _, _ in spec.END_TO_END}
    record["metrics"] = {
        n: {"value": v, "unit": units.get(n, units.get(n.split(".")[0], ""))}
        for n, v in metrics.items()
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": v, "unit": record["metrics"][n]["unit"]} for n, v in result_metrics.items()
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{name}-{size}-seed{seed}-trace{int(bool(trace))}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return result, record


def _print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"# machine {json.dumps(record['machine'])}")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    for n, m in record["metrics"].items():
        print(f"{record['workload']} {n} {m['value']:.6g} {m['unit']}")
    for layer, share in record.get("layer_shares", {}).items():
        print(f"{record['workload']} share.{layer} {100 * share:.2f} %")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace={trace} exited with {proc.returncode}")
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{n}": m for n, m in result["metrics"].items()})
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nowcast" / "__init__.py").is_file():
        print(f"error: no nowcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # fit's thread count must be what a user gets by default
    os.environ.pop("NOWCAST_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_record(record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
