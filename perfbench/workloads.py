"""Workload inputs, the user operation each one times, and output checks.

A workload makes its inputs from a seed (``setup``), runs the operation a
user would run through the public entry points (``run``, the only timed
part) and checks what the operation produced (``check``). ``check`` returns
a fingerprint of the outputs, compared against pinned values at the default
seed and between operations of one run, and a failure message for each
sub-operation that went wrong. A sub-operation is one CLI command, or one
file validated or read.

Entry points are looked up on their modules at call time (``ingest.validate``,
``cli.main``) so the traced run sees the same calls as the untraced one.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from nowcast import cli, ingest, timeseries


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``nowcast <argv>`` in this process; returns exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class Workload:
    name = ""
    scores: dict = {}  # backtest metrics by approach, from the last check

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"

    def fresh_inputs(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, raw) -> tuple[dict, dict[str, str]]:
        raise NotImplementedError

    def sub_ops(self) -> list[str]:
        raise NotImplementedError

    def work(self) -> dict[str, int]:
        """Units of work one operation does, keyed by the rate metric they give."""
        raise NotImplementedError


# ---------------------------------------------------------------- backtests

# leading rows each approach's differencing drops: 1, plus 12 for approach A
LEAD_ROWS = {"A": 13, "B": 1}


class BacktestWorkload(Workload):
    """``nowcast synth`` inputs, then ``nowcast backtest`` once per approach."""

    approaches: tuple[str, ...] = ()
    extra_flags: tuple[str, ...] = ()

    def setup(self) -> None:
        code, _ = _cli(
            [
                "synth",
                "--months", str(self.size["months"]),
                "--seed", str(self.seed),
                "--n-features", str(self.size["features"]),
                "--out-dir", str(self.inputs),
            ]
        )
        if code != 0:
            raise RuntimeError(f"nowcast synth exited with {code}")

    def sub_ops(self) -> list[str]:
        return [f"backtest-{a}" for a in self.approaches]

    def _argv(self, approach: str) -> list[str]:
        features = sorted(str(p) for p in self.inputs.glob("feature_*.csv"))
        return [
            "backtest",
            "--target", str(self.inputs / "target.csv"),
            "--features", *features,
            "--approach", approach,
            "--min-train", str(self.size["min_train"]),
            "--seed", str(self.seed),
            "--out", str(self.outputs / approach),
            *self.extra_flags,
        ]

    def run(self):
        return {a: _cli(self._argv(a))[0] for a in self.approaches}

    def work(self):
        windows = self.size["months"] - self.size["min_train"]
        return {"windows_per_s": len(self.approaches) * windows}

    def check(self, raw):
        with open(self.inputs / "target.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        months = [r[0] for r in rows]
        levels = np.array([float(r[1]) for r in rows])
        fingerprint, failures, self.scores = {}, {}, {}
        for approach in self.approaches:
            op = f"backtest-{approach}"
            if raw[approach] != 0:
                failures[op] = f"exit code {raw[approach]}"
                continue
            out = self.outputs / approach
            fingerprint[op] = _sha256(out / "report.json")
            try:
                report = json.loads((out / "report.json").read_text())
                problem = self._check_report(approach, report, months, levels, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                failures[op] = problem
            else:
                self.scores[approach] = report["metrics"]
        return fingerprint, failures

    def _check_report(self, approach, report, months, levels, out) -> str | None:
        min_train = self.size["min_train"]
        preds = report["predictions"]
        if len(preds) != len(months) - min_train:
            return f"{len(preds)} predictions for {len(months) - min_train} test months"
        lead = LEAD_ROWS[approach]
        for i, p in enumerate(preds):
            t = min_train + i
            if (p["month"], p["actual_level"]) != (months[t], levels[t]):
                return f"prediction {i} ({p['month']}) is not the target at {months[t]}"
            if p["train_rows_used"] != t - lead:
                return f"{p['month']} trained on {p['train_rows_used']} rows, expected {t - lead}"
        predicted = np.array([p["predicted_level"] for p in preds])
        actual = levels[min_train:]
        prior = levels[min_train - 1 : -1]
        r2 = 1.0 - np.sum((actual - predicted) ** 2) / np.sum((actual - actual.mean()) ** 2)
        da = float(np.mean(np.sign(predicted - prior) == np.sign(actual - prior)))
        metrics = report["metrics"]
        if not _close(metrics["r_squared_level"], r2):
            return f"r_squared_level {metrics['r_squared_level']} != recomputed {r2}"
        if metrics["directional_accuracy"] != da:
            return f"directional_accuracy {metrics['directional_accuracy']} != recomputed {da}"
        with open(out / "predictions.csv", newline="") as fh:
            csv_rows = list(csv.reader(fh))[1:]
        if [(r[0], float(r[1])) for r in csv_rows] != [
            (p["month"], p["predicted_level"]) for p in preds
        ]:
            return "predictions.csv disagrees with report.json"
        return self._check_model(approach, preds, levels)

    def _check_model(self, approach, preds, levels) -> str | None:
        return None


class PaperBenchB(BacktestWorkload):
    name = "paper-bench-b"
    approaches = ("B",)

    @property
    def extra_flags(self):
        return ("--n-trees", str(self.size["n_trees"]))


class NaiveBaselineLong(BacktestWorkload):
    """One-leaf trees: each prediction is the training mean of the transformed target."""

    name = "naive-baseline-long"
    approaches = ("A", "B")
    extra_flags = ("--n-trees", "1", "--min-samples-split", "100000")

    def _check_model(self, approach, preds, levels) -> str | None:
        d1 = levels[1:] - levels[:-1]
        transformed = d1[12:] - d1[:-12] if approach == "A" else d1
        lead = LEAD_ROWS[approach]
        for i, p in enumerate(preds):
            t = self.size["min_train"] + i
            mean = float(np.mean(transformed[: t - lead]))
            level = mean + levels[t - 1]
            if approach == "A":
                level = mean + (levels[t - 12] - levels[t - 13]) + levels[t - 1]
            if not (
                _close(p["predicted_transformed"], mean) and _close(p["predicted_level"], level)
            ):
                return f"{p['month']}: predicted {p['predicted_level']}, naive baseline {level}"
        return None


# ----------------------------------------------------------------- ingest

PANEL_START = dt.date(2015, 1, 1)
CHURN = 0.05  # monthly chance a client employer leaves the provider
CORRUPT_SHARE = 0.01
SECTORS = ("construction", "manufacturing", "retail", "health", "education", "leisure")
EVENT_TYPES = ("Hail", "Thunderstorm Wind", "Flash Flood", "Tornado", "Winter Storm", "Heat")
STATES = tuple(f"S{k:02d}" for k in range(50))


def _month_text(index: int) -> str:
    return f"{PANEL_START.year + index // 12:04d}-{index % 12 + 1:02d}"


def _size_band(n: int) -> str:
    return "1-9" if n < 10 else "10-49" if n < 50 else "50-249" if n < 250 else "250+"


class IngestPanel(Workload):
    """Raw provider panels through ``nowcast validate``, the strict readers and aggregation."""

    name = "ingest-panel"
    FILES = (
        ("employer", "employer"),
        ("employer_dirty", "employer"),
        ("claims", "claims"),
        ("storms", "storm"),
    )

    def sub_ops(self) -> list[str]:
        return [f"validate-{f}" for f, _ in self.FILES] + [
            "read-employer",
            "read-claims",
            "read-storms",
            "aggregate",
        ]

    def setup(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        self._employer_files(rng)
        self._claims_file(rng)
        self._storm_file(rng)

    def _employer_files(self, rng) -> None:
        """A churning client panel and a copy with ~1% corrupted cells.

        Each slot holds one employer at a time; a leaving employer frees
        its slot for a month, then a new employer takes it.
        """
        slots, n_months = self.size["employers"], self.size["months"]
        ids = np.full((slots, n_months), -1, dtype=np.int64)
        staff = np.zeros((slots, n_months), dtype=np.int64)
        current = np.arange(slots)
        size = rng.lognormal(3.0, 1.2, slots)
        present = np.ones(slots, dtype=bool)
        next_id = slots
        for m in range(n_months):
            if m:
                joining = ~present
                n_new = int(joining.sum())
                current[joining] = np.arange(next_id, next_id + n_new)
                next_id += n_new
                size[joining] = rng.lognormal(3.0, 1.2, n_new)
                size *= np.exp(rng.normal(0.002, 0.03, slots))
                present = joining | (present & (rng.random(slots) >= CHURN))
            ids[:, m] = np.where(present, current, -1)
            staff[:, m] = np.where(present, np.rint(size), 0)
        sectors = rng.integers(0, len(SECTORS), next_id)

        n_rows = int((ids >= 0).sum())
        n_bad = round(CORRUPT_SHARE * 5 * n_rows)
        # only cells validate checks are corrupted, so each gives one error
        cells = rng.choice(3 * n_rows, size=n_bad, replace=False)
        kinds = rng.integers(0, 4, size=n_bad)
        bad: dict[int, list[tuple[int, int]]] = {}
        for cell, kind in zip(cells.tolist(), kinds.tolist()):
            bad.setdefault(cell // 3, []).append((cell % 3, kind))

        header = "employer_id,month,active_employees,sector,size_band\n"
        row = 0
        with open(self.inputs / "employer.csv", "w") as clean, open(
            self.inputs / "employer_dirty.csv", "w"
        ) as dirty:
            clean.write(header)
            dirty.write(header)
            for m in range(n_months):
                month = _month_text(m)
                lines = []
                for i, n in zip(ids[:, m].tolist(), staff[:, m].tolist()):
                    if i < 0:
                        continue
                    lines.append(f"E{i:06d},{month},{n},{SECTORS[sectors[i]]},{_size_band(n)}\n")
                clean.writelines(lines)
                for k in range(len(lines)):
                    for column, kind in bad.get(row + k, ()):
                        fields = lines[k].split(",")
                        if column == 0:
                            fields[0] = ""
                        elif column == 1:
                            fields[1] = month.replace("-", "/")
                        else:
                            n = int(fields[2])
                            fields[2] = ("", "n/a", f"-{n + 1}", f"{n}.5")[kind]
                        lines[k] = ",".join(fields)
                dirty.writelines(lines)
                row += len(lines)

        self.employer_rows = n_rows
        self.corrupted = n_bad
        same = (ids[:, 1:] == ids[:, :-1]) & (ids[:, 1:] >= 0)
        change = np.where(same, staff[:, 1:] - staff[:, :-1], 0)
        self.expected_panel = change.sum(axis=0).astype(float)

    def _claims_file(self, rng) -> None:
        last_day = dt.date.fromordinal(
            dt.date(PANEL_START.year + self.size["months"] // 12, 1, 1).toordinal() - 1
        )
        first = PANEL_START + dt.timedelta(days=(5 - PANEL_START.weekday()) % 7)
        weeks = [first + dt.timedelta(weeks=k) for k in range((last_day - first).days // 7 + 1)]
        initial = np.rint(rng.normal(220_000, 15_000, len(weeks))).astype(np.int64)
        continued = np.rint(rng.normal(1_600_000, 80_000, len(weeks))).astype(np.int64)
        with open(self.inputs / "claims.csv", "w") as fh:
            fh.write("week_ending,initial_claims,continued_claims\n")
            fh.writelines(
                f"{w.isoformat()},{a},{b}\n"
                for w, a, b in zip(weeks, initial.tolist(), continued.tolist())
            )
        by_month: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for w, a, b in zip(weeks, initial.tolist(), continued.tolist()):
            by_month.setdefault((w.year, w.month), []).append((a, b))
        self.claims_rows = len(weeks)
        self.expected_claims = [
            [float(sum(a for a, _ in v)) for v in by_month.values()],
            [float(sum(b for _, b in v)) / len(v) for v in by_month.values()],
        ]

    def _storm_file(self, rng) -> None:
        n = self.size["storms"]
        n_days = (dt.date(PANEL_START.year + self.size["months"] // 12, 1, 1) - PANEL_START).days
        days = np.sort(rng.integers(0, n_days, n))
        states = rng.integers(0, len(STATES), n)
        types = rng.integers(0, len(EVENT_TYPES), n)
        injuries = rng.poisson(0.05, n)
        damage = np.round(rng.lognormal(8.0, 2.0, n), 2)
        start = PANEL_START.toordinal()
        dates = [dt.date.fromordinal(start + d) for d in days.tolist()]
        with open(self.inputs / "storms.csv", "w") as fh:
            fh.write("state,event_type,begin_date,injuries,damage_usd\n")
            fh.writelines(
                f"{STATES[s]},{EVENT_TYPES[t]},{d.isoformat()},{i},{x!r}\n"
                for s, t, d, i, x in zip(
                    states.tolist(), types.tolist(), dates, injuries.tolist(), damage.tolist()
                )
            )
        month_index = np.array([(d.year - PANEL_START.year) * 12 + d.month - 1 for d in dates])
        month_index -= month_index.min()
        counts = np.zeros(month_index.max() + 1)
        total = np.zeros(month_index.max() + 1)
        np.add.at(counts, month_index, 1.0)
        np.add.at(total, month_index, damage)
        self.storm_rows = n
        self.expected_storms = (counts, total)

    def work(self):
        # CSV data rows validated or read
        return {"rows_per_s": 3 * self.employer_rows + 2 * (self.claims_rows + self.storm_rows)}

    def run(self):
        validated = [
            _cli(["validate", str(self.inputs / f"{f}.csv"), "--schema", schema])
            for f, schema in self.FILES
        ]
        employers = ingest.read_employer_csv(self.inputs / "employer.csv")
        panel = ingest.matched_panel_aggregate(employers)
        claims = ingest.read_claims_csv(self.inputs / "claims.csv")
        initial, continued = ingest.aggregate_claims_monthly(claims)
        storms = ingest.read_storm_csv(self.inputs / "storms.csv")
        events, damage = ingest.aggregate_storms_monthly(storms)
        series = [panel, initial, continued, events, damage]
        table = timeseries.align(series)
        self.outputs.mkdir(parents=True, exist_ok=True)
        for s in series:
            ingest.write_monthly_series_csv(s, self.outputs / f"{s.name}.csv")
        rows_read = {"employer": len(employers), "claims": len(claims), "storms": len(storms)}
        return validated, rows_read, series, table

    def check(self, raw):
        validated, rows_read, series, table = raw
        failures: dict[str, str] = {}
        fingerprint = {}
        for (f, _), (code, text) in zip(self.FILES, validated):
            findings = json.loads(text)["findings"]
            errors = sum(1 for x in findings if x["severity"] == "error")
            fingerprint[f"validate-{f}"] = [code, errors, len(findings) - errors]
            want = (1, self.corrupted) if f == "employer_dirty" else (0, 0)
            if (code, errors) != want:
                failures[f"validate-{f}"] = f"exit {code} with {errors} errors, expected {want}"
        generated = {
            "employer": self.employer_rows,
            "claims": self.claims_rows,
            "storms": self.storm_rows,
        }
        for f, n in rows_read.items():
            if n != generated[f]:
                failures[f"read-{f}"] = f"{n} records read of {generated[f]}"

        panel, initial, continued, events, damage = series
        counts_want, damage_want = self.expected_storms
        if panel.values.tolist() != self.expected_panel.tolist():
            failures["aggregate"] = "matched-panel change differs from the generated panel"
        elif [initial.values.tolist(), continued.values.tolist()] != self.expected_claims:
            failures["aggregate"] = "monthly claims differ from the generated weeks"
        elif events.values.tolist() != counts_want.tolist() or not np.allclose(
            damage.values, damage_want, rtol=1e-9, atol=0.0
        ):
            failures["aggregate"] = "monthly storm totals differ from the generated events"
        first, last = max(s.start for s in series), min(s.end for s in series)
        if table.column_names != tuple(s.name for s in series) or any(
            table.column(s.name).tolist() != s.window(first, last).values.tolist() for s in series
        ):
            failures["aggregate"] = "aligned table differs from its series"
        digest = hashlib.sha256()
        for s in series:
            path = self.outputs / f"{s.name}.csv"
            with open(path, newline="") as fh:
                written = [float(r[1]) for r in list(csv.reader(fh))[1:]]
            if written != s.values.tolist():
                failures["aggregate"] = f"{path.name} does not hold its series"
            digest.update(path.read_bytes())
        fingerprint["aggregate"] = digest.hexdigest()
        return fingerprint, failures


WORKLOADS = {w.name: w for w in (PaperBenchB, NaiveBaselineLong, IngestPanel)}
