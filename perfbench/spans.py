"""Spans around the public entry points of each nowcast module.

The program is not changed: while a traced operation runs, each entry point
is replaced by a wrapper under the name its caller looks it up by (for
example ``nowcast.backtest.fit``, which ``run_backtest`` imported by name),
and the originals are put back afterwards. Spans live in memory and are
written out when the run ends. Counts that need extra work, such as tree
nodes, are taken after the wrapped call returns, inside a ``trace.count``
span, so they never land in a layer's time.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

# span fields
NAME, START, END, CPU_START, CPU_END, PARENT = range(6)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, time.process_time(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        span[CPU_END] = time.process_time()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` runs once it returned."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch ``(owner, attribute, span name, after)`` targets for the block."""
        saved = []
        try:
            for owner, attr, name, after in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """One JSON object per span: name, start, end, parent, window."""
        windows, _ = _windows(self.spans)
        with open(path, "w") as fh:
            for s, window in zip(self.spans, windows):
                span = {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
                fh.write(json.dumps({**span, "window": window}) + "\n")


def _count_rows_transformed(tracer, args, result):
    tracer.add("transforms.rows_transformed", len(args[0]))


def _count_nodes(tracer, args, result):
    from nowcast.extratrees import model_to_dict

    with tracer.span("trace.count"):
        pending = list(model_to_dict(result)["trees"])
        nodes = 0
        while pending:
            node = pending.pop()
            nodes += 1
            if node["kind"] == "split":
                pending.append(node["left"])
                pending.append(node["right"])
    tracer.add("extratrees.nodes", nodes)


def _count_validated(tracer, args, result):
    with tracer.span("trace.count"):
        with open(args[0], "rb") as fh:
            rows = sum(1 for _ in fh) - 1
    tracer.add("ingest.rows", rows)
    tracer.add("ingest.findings", len(result.findings))


def _count_read(tracer, args, result):
    tracer.add("ingest.rows", len(result))


def entry_points():
    """Every public entry point the workloads reach, under its caller's name."""
    from nowcast import backtest, cli, ingest, synth, timeseries

    report = backtest.BacktestReport
    return [
        (cli, "main", "cli.main", None),
        (synth, "generate", "synth.generate", None),
        (ingest, "validate", "ingest.validate", _count_validated),
        (ingest.ValidationReport, "to_json", "ingest.report_write", None),
        (ingest, "read_employer_csv", "ingest.read", _count_read),
        (ingest, "read_claims_csv", "ingest.read", _count_read),
        (ingest, "read_storm_csv", "ingest.read", _count_read),
        (ingest, "read_monthly_series_csv", "ingest.read", _count_read),
        (ingest, "matched_panel_aggregate", "ingest.aggregate", None),
        (ingest, "aggregate_claims_monthly", "ingest.aggregate", None),
        (ingest, "aggregate_storms_monthly", "ingest.aggregate", None),
        (ingest, "write_monthly_series_csv", "ingest.write", None),
        (cli, "align", "timeseries.align", None),
        (timeseries, "align", "timeseries.align", None),
        (timeseries.FeatureTable, "slice", "timeseries.slice", None),
        (backtest, "run_backtest", "backtest.run_backtest", None),
        (backtest, "apply_pipeline", "transforms.apply_pipeline", _count_rows_transformed),
        (backtest, "reconstruct_level", "transforms.reconstruct", None),
        (backtest, "fit", "extratrees.fit", _count_nodes),
        (backtest, "predict", "extratrees.predict", None),
        (report, "to_json", "backtest.report_write", None),
        (report, "write_csv", "backtest.report_write", None),
        (report, "write_plot_csv", "backtest.report_write", None),
    ]


def _windows(spans) -> tuple[list[int | None], list[float]]:
    """Window of each span inside a ``run_backtest`` span (else None), and
    the seconds each window took, net of the ``trace.count`` spans in it.

    A window ends when its ``reconstruct_level`` call returns; the next one
    starts there. Spans are stored in start order, so parents come first.
    """
    ids: list[int | None] = [None] * len(spans)
    latencies: list[float] = []
    open_windows: dict[int, list] = {}  # run_backtest span -> [window, start, counted]
    for i, s in enumerate(spans):
        if s[NAME] == "backtest.run_backtest":
            open_windows[i] = [0, s[START], 0.0]
        state = open_windows.get(s[PARENT])
        if state is None:
            ids[i] = ids[s[PARENT]] if s[PARENT] >= 0 else None
            continue
        ids[i] = state[0]
        if s[NAME] == "trace.count":
            state[2] += s[END] - s[START]
        elif s[NAME] == "transforms.reconstruct":
            latencies.append(s[END] - state[1] - state[2])
            state[:] = [state[0] + 1, s[END], 0.0]
    return ids, latencies


def _self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0


def summarize(tracer: Tracer, op_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics, each per traced operation."""
    import numpy as np

    spans = tracer.spans
    n_ops = len(op_walls)
    total: dict[str, float] = {}
    cpu: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for s, own in zip(spans, _self_times(spans)):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        cpu[name] = cpu.get(name, 0.0) + s[CPU_END] - s[CPU_START]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + own

    def per_op(value):
        return value / n_ops

    def layer_self(layer):
        return per_op(sum(v for k, v in self_time.items() if k.split(".")[0] == layer))

    count = tracer.counts.get
    _, latencies = _windows(spans)
    windows = len(latencies) / n_ops
    pct = tail_percentile(round(windows))
    fit_s = total.get("extratrees.fit", 0.0)
    return {
        "extratrees.fit_s": per_op(fit_s),
        "extratrees.fit_cpu_s": per_op(cpu.get("extratrees.fit", 0.0)),
        "extratrees.fit_calls": per_op(calls.get("extratrees.fit", 0)),
        "extratrees.nodes": per_op(count("extratrees.nodes", 0)),
        "extratrees.nodes_per_s": count("extratrees.nodes", 0) / fit_s if fit_s else 0.0,
        "extratrees.predict_s": per_op(total.get("extratrees.predict", 0.0)),
        "transforms.apply_pipeline_s": per_op(total.get("transforms.apply_pipeline", 0.0)),
        "transforms.apply_pipeline_calls": per_op(calls.get("transforms.apply_pipeline", 0)),
        "transforms.rows_transformed": per_op(count("transforms.rows_transformed", 0)),
        "transforms.reconstruct_s": per_op(total.get("transforms.reconstruct", 0.0)),
        "timeseries.align_s": per_op(total.get("timeseries.align", 0.0)),
        "timeseries.slice_s": per_op(total.get("timeseries.slice", 0.0)),
        "timeseries.slice_calls": per_op(calls.get("timeseries.slice", 0)),
        "backtest.self_s": per_op(self_time.get("backtest.run_backtest", 0.0)),
        "backtest.window_p50_ms": 1e3 * float(np.percentile(latencies, 50)) if latencies else 0.0,
        "backtest.window_tail_ms": 1e3 * float(np.percentile(latencies, pct)) if latencies else 0.0,
        "backtest.window_tail_pct": float(pct),
        "backtest.windows": windows,
        "backtest.report_write_s": per_op(total.get("backtest.report_write", 0.0)),
        "ingest.validate_s": per_op(total.get("ingest.validate", 0.0)),
        "ingest.read_s": per_op(total.get("ingest.read", 0.0)),
        "ingest.aggregate_s": per_op(total.get("ingest.aggregate", 0.0)),
        "ingest.write_s": per_op(total.get("ingest.write", 0.0)),
        "ingest.rows": per_op(count("ingest.rows", 0)),
        "ingest.findings": per_op(count("ingest.findings", 0)),
        "cli.self_s": per_op(self_time.get("cli.main", 0.0)),
        "extratrees.self_s": layer_self("extratrees"),
        "transforms.self_s": layer_self("transforms"),
        "timeseries.self_s": layer_self("timeseries"),
        "ingest.self_s": layer_self("ingest"),
        "trace.wall_s": per_op(sum(op_walls)),
        "trace.residual_s": per_op(sum(op_walls) - sum(self_time.values())),
    }


def layer_shares(tracer: Tracer, op_walls: list[float]) -> dict[str, float]:
    """Self time per layer (``trace`` is the tracer's own counting) and the
    untimed residual, as shares of the traced operations' wall time."""
    wall = sum(op_walls)
    shares: dict[str, float] = {}
    for s, own in zip(tracer.spans, _self_times(tracer.spans)):
        layer = s[NAME].split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own / wall
    shares["residual"] = 1.0 - sum(shares.values())
    return shares
