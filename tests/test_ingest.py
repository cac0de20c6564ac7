import collections
import contextlib
import csv
import dataclasses
import datetime as dt
import gc
import io
import json
import random
import sys
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nowcast import ingest
from nowcast.cli import main
from nowcast.errors import (
    EmptyInputError,
    MalformedFileError,
    NowcastError,
    TooShortError,
    UnreadableFileError,
)
from nowcast.ingest import (
    SCHEMAS,
    EmployerRecord,
    Finding,
    StormEvent,
    ValidationReport,
    WeeklyClaims,
    aggregate_claims_monthly,
    aggregate_storms_monthly,
    matched_panel_aggregate,
    read_claims_csv,
    read_employer_csv,
    read_monthly_series_csv,
    read_storm_csv,
    validate,
    write_monthly_series_csv,
)
from nowcast.timeseries import MonthKey, MonthlySeries

from reference_scan import reference_read, reference_validate

DATA_DIR = Path(__file__).parent / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


CLEAN_CLAIMS = """week_ending,initial_claims,continued_claims
2017-01-07,200000,1700000
2017-01-14,210000,1700000
2017-01-21,190000,1700000
2017-01-28,205000,1700000
"""


class TestValidate:
    def test_clean_claims_file_passes(self, tmp_path):
        report = validate(write(tmp_path, "claims.csv", CLEAN_CLAIMS), "claims")
        assert report.passed and not report.findings

    def test_blank_cell_is_missing_value_error(self, tmp_path):
        text = CLEAN_CLAIMS.replace("2017-01-14,210000", "2017-01-14,")
        report = validate(write(tmp_path, "claims.csv", text), "claims")
        assert not report.passed
        assert [f.kind for f in report.findings] == ["missing_value"]
        assert report.findings[0].column == "initial_claims"
        assert report.findings[0].row == 3

    def test_spike_fifty_mads_out_is_warning_only(self, tmp_path):
        # alternating 100/101 plus the spike gives median 101 and MAD 1, so
        # the final value sits exactly 50 MADs from the median
        months = [str(MonthKey(2019, 1).shift(i)) for i in range(13)]
        values = [100 if i % 2 == 0 else 101 for i in range(12)] + [151.0]
        rows = "\n".join(f"{m},{v}" for m, v in zip(months, values))
        path = write(tmp_path, "series.csv", f"month,value\n{rows}\n")
        report = validate(path, "monthly-series")
        assert report.passed
        outliers = [f for f in report.findings if f.kind == "outlier"]
        assert len(outliers) == 1
        assert outliers[0].severity == "warning"
        assert outliers[0].row == 14

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            validate(tmp_path / "missing.csv", "claims")

    def test_unknown_schema_rejected(self, tmp_path):
        path = write(tmp_path, "x.csv", CLEAN_CLAIMS)
        with pytest.raises(ValueError):
            validate(path, "nope")

    def test_header_mismatch_fails(self, tmp_path):
        path = write(tmp_path, "x.csv", "a,b,c\n1,2,3\n")
        report = validate(path, "claims")
        assert not report.passed
        assert report.findings[0].kind == "header_mismatch"

    def test_duplicate_employer_month_is_error(self, tmp_path):
        text = (
            "employer_id,month,active_employees,sector,size_band\n"
            "X,2021-01,10,services,small\n"
            "X,2021-01,12,services,small\n"
        )
        report = validate(write(tmp_path, "e.csv", text), "employer")
        assert not report.passed
        assert any(f.kind == "duplicate" for f in report.findings)

    def test_negative_count_is_out_of_range(self, tmp_path):
        text = CLEAN_CLAIMS.replace("200000,1700000\n2017-01-14", "-5,1700000\n2017-01-14")
        report = validate(write(tmp_path, "c.csv", text), "claims")
        assert any(f.kind == "out_of_range" for f in report.findings)

    def test_non_saturday_week_is_warning(self, tmp_path):
        text = CLEAN_CLAIMS.replace("2017-01-14", "2017-01-13")
        report = validate(write(tmp_path, "c.csv", text), "claims")
        assert report.passed  # warnings only
        assert any(f.kind == "convention" for f in report.findings)

    def test_out_of_order_weeks_are_errors(self, tmp_path):
        lines = CLEAN_CLAIMS.splitlines()
        swapped = "\n".join([lines[0], lines[2], lines[1], lines[3], lines[4]]) + "\n"
        report = validate(write(tmp_path, "c.csv", swapped), "claims")
        assert any(f.kind == "ordering" for f in report.findings)

    def test_month_gap_is_error(self, tmp_path):
        path = write(tmp_path, "s.csv", "month,value\n2020-01,1\n2020-03,2\n")
        report = validate(path, "monthly-series")
        assert any(f.kind == "gap" for f in report.findings)

    def test_idempotent(self, tmp_path):
        path = write(tmp_path, "c.csv", CLEAN_CLAIMS.replace("190000", "oops"))
        assert validate(path, "claims") == validate(path, "claims")

    def test_report_json_shape(self, tmp_path):
        path = write(tmp_path, "c.csv", CLEAN_CLAIMS.replace("190000", ""))
        doc = json.loads(validate(path, "claims").to_json())
        assert doc["schema_version"] == 1
        assert doc["passed"] is False
        assert doc["column_summary"]["initial_claims"]["missing_value"] == 1


def outliers_of(*columns):
    return [
        tuple(f)
        for f in ingest._outliers(
            [(name, array("q", lines), array("d", values)) for name, lines, values in columns]
        )
    ]


def test_outlier_messages_keep_their_wording():
    # alternating 100/101 plus a spike: median 101, MAD 1, the spike 50 MADs out
    spiky = [100.0 if i % 2 == 0 else 101.0 for i in range(12)] + [151.00000000000003]
    # a zero MAD puts any deviation infinitely many MADs out; the median's
    # repr needs 17 digits
    flat = [0.1 + 0.2] * 6 + [1.0, 0.30000000000000004, 1e-300]
    found = outliers_of(("spiky", range(2, 15), spiky), ("flat", range(20, 29), flat))
    assert [f[:2] for f in found] == [("spiky", 14), ("flat", 26), ("flat", 28)]
    assert all(f[2:4] == ("outlier", "warning") and type(f[1]) is int for f in found)
    assert [f[4] for f in found] == [
        "value 151.00000000000003 is 50.0 MADs from the median 101.0",
        "value 1.0 is inf MADs from the median 0.30000000000000004",
        "value 1e-300 is inf MADs from the median 0.30000000000000004",
    ]


class TestReaders:
    def test_employer_reader(self):
        records = read_employer_csv(DATA_DIR / "employer_panel.csv")
        assert records[0] == EmployerRecord("X", MonthKey(2021, 1), 10, "services", "small")
        assert len(records) == 4

    def test_claims_reader(self):
        claims = read_claims_csv(DATA_DIR / "claims_jan2017.csv")
        assert claims[0] == WeeklyClaims(dt.date(2017, 1, 7), 200000, 1700000)

    def test_storm_reader(self, tmp_path):
        path = write(
            tmp_path,
            "storms.csv",
            "state,event_type,begin_date,injuries,damage_usd\n"
            "TX,hail,2017-09-02,3,1000000\n",
        )
        events = read_storm_csv(path)
        assert events[0] == StormEvent("TX", "hail", dt.date(2017, 9, 2), 3, 1e6)

    def test_monthly_series_round_trip(self, tmp_path):
        series = MonthlySeries(MonthKey(2020, 11), np.array([1.5, 2.5, 3.5]), name="x")
        path = tmp_path / "x.csv"
        write_monthly_series_csv(series, path)
        back = read_monthly_series_csv(path)
        assert back.start == series.start
        np.testing.assert_array_equal(back.values, series.values)
        assert back.name == "x"

    def test_monthly_series_round_trip_to_the_last_month(self, tmp_path):
        # 9999-12 is the last month YYYY-MM writes, and it reads back
        series = MonthlySeries(MonthKey(9999, 10), np.array([1.0, 2.0, 3.0]), name="x")
        path = tmp_path / "x.csv"
        write_monthly_series_csv(series, path)
        assert path.read_text().splitlines()[-1] == "9999-12,3.0"
        assert read_monthly_series_csv(path) == series

    def test_monthly_series_gap_rejected(self, tmp_path):
        path = write(tmp_path, "s.csv", "month,value\n2020-01,1\n2020-03,2\n")
        with pytest.raises(ValueError):
            read_monthly_series_csv(path)

    def test_oversized_field_is_unreadable(self, tmp_path):
        # the csv module's field limit (131,072 characters) stays in force
        path = write(tmp_path, "s.csv", f"month,value\n2020-01,{'9' * 200_000}\n")
        for read in (read_monthly_series_csv, lambda p: validate(p, "monthly-series")):
            with pytest.raises(UnreadableFileError, match="field larger than field limit") as info:
                read(path)
            assert str(info.value).startswith(f"cannot read {path}: ")

    def test_a_read_failure_anywhere_wins_over_an_earlier_bad_row(self, unreadable_after_bad_row):
        # the scan streams rows, yet a file that cannot be read to its end is
        # unreadable (exit 2) before it is malformed, by a row or its header
        path, error = unreadable_after_bad_row
        wrong_header = path.with_name("header.csv")
        wrong_header.write_bytes(path.read_bytes().replace(b"month,value", b"month,level", 1))
        for read in (read_monthly_series_csv, lambda p: validate(p, "monthly-series")):
            for bad in (path, wrong_header):
                with pytest.raises(UnreadableFileError) as info:
                    read(bad)
                assert str(info.value).startswith(f"cannot read {bad}: {error}")

    def test_bad_row_raises_with_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "c.csv",
            "week_ending,initial_claims,continued_claims\n2017-01-07,abc,1\n",
        )
        with pytest.raises(ValueError):
            read_claims_csv(path)


# a claims file that reads, one with a bad cell and one that cannot be
# decoded, with what reading each raises
READ_OUTCOMES = {
    "records": (CLEAN_CLAIMS.encode(), None),
    "malformed": (CLEAN_CLAIMS.encode() + b"2017-02-04,x,1\n", MalformedFileError),
    "unreadable": (CLEAN_CLAIMS.encode() + b"2017-02-04,\xff,1\n", UnreadableFileError),
}


@pytest.mark.parametrize("outcome", sorted(READ_OUTCOMES))
@pytest.mark.parametrize("enabled", [True, False])
def test_a_read_leaves_the_collector_as_it_found_it(tmp_path, outcome, enabled):
    data, error = READ_OUTCOMES[outcome]
    path = tmp_path / "claims.csv"
    path.write_bytes(data)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(error) if error else contextlib.nullcontext():
            read_claims_csv(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_read_builds_its_records_with_the_collector_paused(tmp_path):
    # validate keeps no records, so it leaves the collector running
    path = write(tmp_path, "claims.csv", CLEAN_CLAIMS)
    spec = SCHEMAS["claims"]
    states = []

    def parse(text):
        states.append(gc.isenabled())
        return ingest._integer(text)

    columns = tuple(
        dataclasses.replace(c, parse=parse) if c.parse is ingest._integer else c
        for c in spec.columns
    )
    assert gc.isenabled()
    with mock.patch.dict(SCHEMAS, {"claims": dataclasses.replace(spec, columns=columns)}):
        read_claims_csv(path)
        paused = len(states)
        validate(path, "claims")
    assert paused == 8 and states == [False] * 8 + [True] * 8


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_read_leaves_no_cycles_behind(tmp_path, schema):
    # the collector is paused while a read runs, so garbage in cycles would
    # outlive it; a read of good rows and one of a file with bad cells in
    # every parsed column leave nothing for the collector to free
    spec = SCHEMAS[schema]
    rows = [good_row(schema, i, i % 40) for i in range(3 * ingest._BLOCK)]
    good = ",".join(spec.header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    for k, c in enumerate(spec.columns):
        rows[5 * k + 70][spec.header.index(c.name)] = "" if c.parse is str else " ?x "
    bad = ",".join(spec.header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    for name, text in (("good.csv", good), ("bad.csv", bad)):
        path = write(tmp_path, name, text)
        gc.collect()
        try:
            READERS[schema](path)
        except MalformedFileError:
            assert name == "bad.csv"
        else:
            assert name == "good.csv"
        assert gc.collect() == 0, name


READERS = {
    "employer": read_employer_csv,
    "storm": read_storm_csv,
    "claims": read_claims_csv,
    "monthly-series": read_monthly_series_csv,
}

STORM_HEADER = "state,event_type,begin_date,injuries,damage_usd\n"
EMPLOYER_HEADER = "employer_id,month,active_employees,sector,size_band\n"
CLAIMS_HEADER = "week_ending,initial_claims,continued_claims\n"

RECORDS = [
    ("employer", EmployerRecord, ("X", MonthKey(2021, 1), 10, "services", "small")),
    ("storm", StormEvent, ("TX", "hail", dt.date(2017, 9, 2), 3, 1e6)),
    ("claims", WeeklyClaims, (dt.date(2017, 1, 7), 200000, 1700000)),
]


@pytest.mark.parametrize("schema,record,values", RECORDS)
def test_records_are_named_tuples_of_the_schema_columns(schema, record, values):
    r = record(*values)
    assert r == values and tuple(r) == values
    assert r._fields == SCHEMAS[schema].header
    assert [getattr(r, name) for name in r._fields] == list(values)
    with pytest.raises(AttributeError):
        setattr(r, r._fields[0], values[0])


def test_validate_memory_is_bounded_per_row(tmp_path):
    # a scan holds one block of rows at a time; what grows with the file is
    # the outlier buffers (a line and a float per watched cell) and the findings
    rng = random.Random(0)
    n = 100_000
    rows = [
        f"S{rng.randrange(50):02d},{rng.choice(['Hail', 'Tornado', 'Heat'])},"
        f"{dt.date(2015, 1, 1) + dt.timedelta(days=i * 3000 // n)},{rng.randrange(3)},"
        f"{round(rng.lognormvariate(8, 2), 2)!r}\n"
        for i in range(n)
    ]
    path = write(tmp_path, "storms.csv", STORM_HEADER + "".join(rows))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        report = validate(path, "storm")
        _, peak = tracemalloc.get_traced_memory()
        del report
        tracemalloc.reset_peak()
        # nowcast validate writes the report as it goes: beyond the report
        # itself, it holds far less than the document it writes
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            code = main(["validate", str(path), "--schema", "storm"])
        _, cli_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = validate(path, "storm")
    assert report.passed and code == 0
    assert peak < 128 * n, f"{peak / n:.0f} bytes per row"
    document = out.read_text()
    assert document == report.to_json() + "\n" and len(report.findings) > 1000
    assert cli_peak - peak < len(document) // 8, f"{cli_peak - peak} bytes beyond validate"


# on each of these files validate and the strict reader once disagreed
DISAGREEMENTS = [
    ("claims", CLEAN_CLAIMS.replace("210000", "3.0"), 3, "initial_claims", "type_mismatch"),
    ("storm", STORM_HEADER + "TX,hail,2017-09-02,1e2,5\n", 2, "injuries", "type_mismatch"),
    ("monthly-series", "month,value\n2020-01,1\n2020-02,nan\n", 3, "value", "non_finite"),
    ("monthly-series", "month,value\n2020-01,inf\n2020-02,1\n", 2, "value", "non_finite"),
    ("monthly-series", "month,value\n", 1, "<file>", "no_data"),
    ("storm", STORM_HEADER + "TX,hail,2017-09-02,0,-5\n", 2, "damage_usd", "out_of_range"),
    ("employer", EMPLOYER_HEADER + ",2021-01,10,s,a\n", 2, "employer_id", "missing_value"),
    ("employer", EMPLOYER_HEADER + "X,2021-01,10,s,a\nX,2021-01,12,s,a\n", 3, "employer_id", "duplicate"),
    ("claims", CLAIMS_HEADER + "2017-01-14,1,1\n2017-01-07,1,1\n", 3, "week_ending", "ordering"),
]


@pytest.mark.parametrize("schema,text,row,column,kind", DISAGREEMENTS)
def test_validate_and_reader_agree_on_former_disagreements(tmp_path, schema, text, row, column, kind):
    path = write(tmp_path, "f.csv", text)
    report = validate(path, schema)
    first = next(f for f in report.findings if f.severity == "error")
    assert (first.row, first.column, first.kind) == (row, column, kind)
    with pytest.raises(MalformedFileError) as raised:
        READERS[schema](path)
    assert str(raised.value).startswith(f"{path}:{row}: {column}: ")


# month and date cells that Python's int() or date.fromisoformat() take,
# but that are not the documented YYYY-MM and YYYY-MM-DD
NON_CANONICAL = [
    ("monthly-series", "month,value\n2020-01,1\n2_020-02,2\n", 3, "month"),
    ("monthly-series", "month,value\n2020-01,1\n2020-+2,2\n", 3, "month"),
    ("monthly-series", "month,value\n2020-01,1\n2020-2,2\n", 3, "month"),
    ("monthly-series", "month,value\n2020 - 01,1\n2020-02,2\n", 2, "month"),
    ("monthly-series", "month,value\n\uff12\uff10\uff12\uff10-01,1\n", 2, "month"),
    ("employer", EMPLOYER_HEADER + "X,+2021-01,10,s,a\n", 2, "month"),
    ("claims", CLAIMS_HEADER + "20170107,1,1\n", 2, "week_ending"),
    ("claims", CLAIMS_HEADER + "2017-01-07,1,1\n2017-W02-6,1,1\n", 3, "week_ending"),
    ("storm", STORM_HEADER + "TX,hail,2017W356,1,5\n", 2, "begin_date"),
]


@pytest.mark.parametrize("schema,text,row,column", NON_CANONICAL)
def test_only_documented_month_and_date_forms_are_read(tmp_path, schema, text, row, column):
    path = write(tmp_path, "f.csv", text)
    first = next(f for f in validate(path, schema).findings if f.severity == "error")
    assert (first.row, first.column, first.kind) == (row, column, "non_parseable")
    with pytest.raises(MalformedFileError) as raised:
        READERS[schema](path)
    assert str(raised.value).startswith(f"{path}:{row}: {column}: not a YYYY-MM")


CELL_DEFECTS = [
    "", "  ", "abc", "-3", "3.0", "1e2", "12.5", "nan", "inf", "-inf", " 7 ", "1_000",
    "9" * 30, "2021-13", "2021/01", "2017-02-30", "2017-01-13", "2021-1", "20170107",
]


def good_row(schema: str, i: int, n: int) -> list[str]:
    """Row ``i`` of a file that passes: unique keys, consecutive weeks and months."""
    if schema == "employer":
        return [f"E{i % 3}", str(MonthKey(2021, 1).shift(i // 3)), str(n), "retail", "1-9"]
    if schema == "storm":
        return ["TX", "Hail", str(dt.date(2017, 1, 1) + dt.timedelta(days=i)), str(n % 7), f"{n}.25"]
    if schema == "claims":
        return [str(dt.date(2017, 1, 7) + dt.timedelta(weeks=i)), str(n), str(n + 1)]
    return [str(MonthKey(2019, 12).shift(i)), f"{n / 4}"]


# padding that str.strip removes, and cells in other scripts and digit
# systems or that need quoting, some of which parse as numbers
PADDING = [" ", "  ", "\t", "\u00a0", "\u3000"]
ODD_CELLS = [
    "Zürich", "東京", "Ω", "😀", "٣", "𝟕", "١٢٣", "½", "２０１７-０１-０７", "٢٠٢١-٠١",
    "1,000", "a,b", 'say "hi"', "back\\slash", "tab\there",
]


def csv_cell(text: str) -> str:
    """``text`` as a CSV field: quoted when it holds a comma or a quote."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


@st.composite
def csv_files(draw):
    """A schema and a file mixing good rows with cell, row and file defects."""
    schema = draw(st.sampled_from(sorted(SCHEMAS)))
    # one cell defect a file tends to repeat, so that a bad text recurs in
    # its column, as it does in real files
    width = len(SCHEMAS[schema].header)
    usual = (draw(st.integers(0, width - 1)), draw(st.sampled_from(CELL_DEFECTS)))
    rows: list[list[str]] = []
    for i in range(draw(st.integers(0, 7))):
        row = good_row(schema, i, draw(st.integers(0, 40)))
        kinds = ["cell", "pad", "odd", "fields", "repeat", "swap", "skip"]
        defect = draw(st.sampled_from(["none"] * 6 + kinds))
        if defect == "cell":
            j, text = usual if draw(st.booleans()) else (draw(st.integers(0, width - 1)), None)
            row[j] = text or draw(st.sampled_from(CELL_DEFECTS))
        elif defect == "pad":
            if rows and draw(st.booleans()):  # the last row again, padded
                row = list(rows[-1])
            j = draw(st.integers(0, len(row) - 1))
            row[j] = draw(st.sampled_from(PADDING)) + row[j] + draw(st.sampled_from(["", *PADDING]))
        elif defect == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif defect == "fields":
            row = row[:-1] if draw(st.booleans()) else row + ["x"]
        elif defect == "repeat" and rows:
            row = list(rows[-1])
        elif defect == "swap" and rows:
            rows[-1], row = row, rows[-1]
        elif defect == "skip":
            continue
        rows.append(row)
    header = ",".join(SCHEMAS[schema].header)
    return schema, "\n".join([header] + [",".join(map(csv_cell, r)) for r in rows]) + "\n"


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_a_file_reads_exactly_when_it_validates(tmp_path_factory, case):
    schema, text = case
    path = tmp_path_factory.mktemp("agree") / f"{schema}.csv"
    path.write_text(text, encoding="utf-8")
    report = validate(path, schema)
    try:
        READERS[schema](path)
    except NowcastError as exc:
        assert isinstance(exc, MalformedFileError) and isinstance(exc, ValueError)
        assert not report.passed
        first = next(f for f in report.findings if f.severity == "error")
        assert str(exc).startswith(f"{path}:{first.row}:")
    else:
        assert report.passed


def records_or_error(read, path):
    try:
        return repr(read(path))  # the repr tells an int from an equal float
    except MalformedFileError as exc:
        return f"MalformedFileError: {exc}"


def column(schema: str, name: str) -> ingest.Column:
    return next(c for c in SCHEMAS[schema].columns if c.name == name)


def column_caches() -> list:
    """The cached cell rules of the schemas' columns, each once."""
    reads = {id(c.read): c.read for spec in SCHEMAS.values() for c in spec.columns}
    return [read for read in reads.values() if hasattr(read, "cache_info")]


def clear_parser_caches():
    for read in column_caches():
        read.cache_clear()


@settings(max_examples=400, deadline=None)
@given(csv_files())
# a row is keyed by its stripped texts even where the second key cell is bad
@example(("employer", EMPLOYER_HEADER + "X,2021/01,1,s,a\nX, 2021/01 ,2,s,a\n"))
# an empty padded second key cell is keyed by its stripped text too
@example(("employer", EMPLOYER_HEADER + "X, ,1,s,a\nX,  ,2,s,a\n"))
# a cached padded key cell is still keyed by its stripped text
@example(("employer", EMPLOYER_HEADER + "X, 2021-01 ,1,s,a\nX, 2021-01 ,2,s,a\n"))
# a count that parses but is out of range stays bad when it comes again
@example(("claims", CLAIMS_HEADER + "2017-01-07,-3,1\n2017-01-14,-3,1\n"))
# padding that str.strip removes but int() and float() do not
@example(("storm", STORM_HEADER + "TX,Hail,\x1c2017-01-01,\x1c3,\x1f1.5\n"))
# a wrong-width row between two outlier rows of one block
@example(("storm", STORM_HEADER + "TX,hail,2017-01-01,1,5\n" * 5 + "TX,hail,2017-01-01,90,5\n"
          "TX,hail\n" "TX,hail,2017-01-01,90,5\n"))
# a wrong-width last row of a block, then a padded bad cell in the next
@example(("storm", STORM_HEADER + "TX,hail,2017-01-01,1,5\n" * (ingest._BLOCK - 2)
          + "TX,hail\n" + "TX,hail, 2017-01-0x ,1,5\n"))
def test_the_scan_gives_what_the_per_cell_scan_gave(tmp_path_factory, case):
    # every finding field in the same order, and the same records or error,
    # from parsers whose caches start empty
    schema, text = case
    path = tmp_path_factory.mktemp("oracle") / f"{schema}.csv"
    path.write_text(text, encoding="utf-8")
    spec = SCHEMAS[schema]
    clear_parser_caches()
    assert validate(path, schema) == reference_validate(path, schema)
    got = records_or_error(READERS[schema], path)
    want = records_or_error(lambda p: reference_read(p, spec), path)
    if schema == "monthly-series" and not want.startswith("MalformedFileError"):
        rows = reference_read(path, spec)
        want = repr(MonthlySeries(rows[0].month, np.array([r.value for r in rows]), path.stem))
    assert got == want


def reference_outcome(path, schema):
    """The oracle's report and records (or error) for a file."""
    spec = SCHEMAS[schema]
    want = records_or_error(lambda p: reference_read(p, spec), path)
    if schema == "monthly-series" and not want.startswith("MalformedFileError"):
        rows = reference_read(path, spec)
        want = repr(MonthlySeries(rows[0].month, np.array([r.value for r in rows]), path.stem))
    return reference_validate(path, schema), want


@settings(max_examples=300, deadline=None)
@given(csv_files(), st.sampled_from([1, 2, 3, ingest._BLOCK]))
def test_blocks_of_any_size_give_what_the_per_cell_scan_gave(tmp_path_factory, case, block):
    # blocks of 1 to 3 rows cut the oracle's files of up to 7 rows anywhere,
    # the header's block included
    schema, text = case
    path = tmp_path_factory.mktemp("blocks") / f"{schema}.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(ingest, "_BLOCK", block):
        got = validate(path, schema), records_or_error(READERS[schema], path)
    assert got == reference_outcome(path, schema)


def block_lines(rows: int) -> tuple[int, int]:
    """The file lines of the first and the last row of data block ``rows // _BLOCK``:
    the header fills the first block's first row."""
    first = rows // ingest._BLOCK * ingest._BLOCK + 1
    return first, first + ingest._BLOCK - 1


def test_rules_across_rows_hold_across_block_boundaries(tmp_path):
    # files of 2.5 blocks whose row rules meet rows of an earlier block
    n = ingest._BLOCK * 5 // 2
    second_first, second_last = block_lines(ingest._BLOCK)
    third_first, _ = block_lines(2 * ingest._BLOCK)

    employer = [f"E{i},2021-01,{i},retail,1-9" for i in range(n)]
    employer[second_first + 3 - 2] = "E1,2021-01,5,retail,1-9"  # E1 is on line 3
    employer[second_first - 2] += ",extra"  # a block's first row
    employer[second_last - 2] = "E9,2021-01"  # and its last
    weeks = [dt.date(2017, 1, 7) + dt.timedelta(weeks=i) for i in range(n)]
    swap = slice(second_first - 3, second_first - 1)  # a block's last row and the next one's first
    weeks[swap] = weeks[swap][::-1]
    weeks[third_first - 2] = weeks[2]  # a week of the first block again
    claims = [f"{w},{i},{i + 1}" for i, w in enumerate(weeks)]
    months = [MonthKey(2000, 1).shift(i + (i >= third_first - 2)) for i in range(n)]
    series = [f"{m},{i}.5" for i, m in enumerate(months)]
    files = {
        "employer": (EMPLOYER_HEADER, employer),
        "claims": (CLAIMS_HEADER, claims),
        "monthly-series": ("month,value\n", series),
    }
    want = {
        "employer": {
            (second_first, "field_count"), (second_last, "field_count"),
            (second_first + 3, "duplicate"),
        },
        "claims": {
            (second_first, "ordering"), (third_first, "duplicate"), (third_first, "ordering"),
        },
        "monthly-series": {(third_first, "gap")},
    }
    for schema, (header, rows) in files.items():
        path = write(tmp_path, f"{schema}.csv", header + "\n".join(rows) + "\n")
        report = validate(path, schema)
        errors = {(f.row, f.kind) for f in report.findings if f.severity == "error"}
        assert errors == want[schema], schema
        assert (report, records_or_error(READERS[schema], path)) == reference_outcome(path, schema)


def test_an_undecodable_last_line_wins_over_a_bad_row_blocks_before(tmp_path):
    n = ingest._BLOCK * 5 // 2
    rows = "".join(f"{MonthKey(2000, 1).shift(i)},{'x' if i == 1 else i}\n" for i in range(n))
    path = tmp_path / "series.csv"
    path.write_bytes(f"month,value\n{rows}".encode() + b"2099-01,\xff\n")
    for read in (read_monthly_series_csv, lambda p: validate(p, "monthly-series")):
        with pytest.raises(UnreadableFileError, match="can't decode byte 0xff"):
            read(path)


def test_a_parser_cache_keeps_at_most_known_cells_values(tmp_path):
    months = [MonthKey(1700, 1).shift(i) for i in range(ingest._KNOWN_CELLS + 100)]
    text = "month,value\n" + "".join(f"{m},{i}\n" for i, m in enumerate(months))
    clear_parser_caches()
    read_monthly_series_csv(write(tmp_path, "s.csv", text))
    assert column("monthly-series", "month").read.cache_info().currsize == ingest._KNOWN_CELLS


def test_a_month_read_for_one_schema_is_a_cache_hit_for_another(tmp_path):
    employer, series = column("employer", "month"), column("monthly-series", "month")
    assert employer.parse is series.parse is ingest._month
    assert employer.read is series.read
    clear_parser_caches()
    read_monthly_series_csv(write(tmp_path, "s.csv", "month,value\n2020-01,1\n"))
    read_employer_csv(write(tmp_path, "e.csv", EMPLOYER_HEADER + "X,2020-01,1,s,a\n"))
    assert employer.read.cache_info()[:2] == (1, 1)  # hits, misses


def test_threads_sharing_the_parser_caches_get_the_serial_results(tmp_path):
    # the caches are shared by every scan in the process; the files hold
    # more distinct months than a cache keeps, so threads evict each
    # other's values while they read
    paths = []
    for k in range(6):
        months = [MonthKey(1000 + 100 * k, 1).shift(i) for i in range(800)]
        text = "month,value\n" + "".join(f"{m},{i}\n" for i, m in enumerate(months))
        paths.append(write(tmp_path, f"s{k}.csv", text))

    def scans(path):
        return [(validate(path, "monthly-series"), read_monthly_series_csv(path)) for _ in range(3)]

    want = [scans(p) for p in paths]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(scans, p) for p in paths * 2]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert got == want * 2
    for read in column_caches():
        assert read.cache_info().currsize <= read.cache_info().maxsize


def counting(parse, calls: list):
    """``parse``, counting its calls in ``calls[0]``."""

    def counted(text):
        calls[0] += 1
        return parse(text)

    return counted


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_bad_cell_costs_one_more_parse_not_a_block(tmp_path, schema):
    # 2.5 blocks, with one bad cell per block in each parsed column: the
    # first parsed column's are at the first row of blocks 0 and 2 and at
    # the last row of block 1, and each further column's one row inwards
    spec = SCHEMAS[schema]
    n = ingest._BLOCK * 5 // 2
    rows = [good_row(schema, i, i % 40) for i in range(n)]
    first_line, last_line = 2, ingest._BLOCK  # block 0; the header is line 1
    parsed = [(spec.header.index(c.name), c) for c in spec.columns if c.parse is not str]
    bad = 0
    for j, (i, c) in enumerate(parsed):
        # where the column has a minimum, a cell its parser takes but the column does not
        low = f"-{j + 1}" if c.minimum is not None else f"?{j}?"
        for line, text in (
            (first_line + j, f"?{j}"),
            (last_line + ingest._BLOCK - j, low),
            (last_line + 1 + j, f"{j}?"),
        ):
            rows[line - 2][i] = text
            bad += 1
    body = "".join(",".join(r) + "\n" for r in rows)
    path = write(tmp_path, f"{schema}.csv", ",".join(spec.header) + "\n" + body)
    calls = {c.name: [0] for _, c in parsed}
    columns = tuple(
        c if c.parse is str else dataclasses.replace(c, parse=counting(c.parse, calls[c.name]))
        for c in spec.columns
    )
    with mock.patch.dict(SCHEMAS, {schema: dataclasses.replace(spec, columns=columns)}):
        report = validate(path, schema)
    assert report == reference_validate(path, schema)
    errors = [f for f in report.findings if f.kind in ("non_parseable", "out_of_range")]
    assert len(errors) == bad
    for name, (count,) in calls.items():
        assert count == n, name  # one call per cell, bad cells included


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_rejected_cell_without_padding_is_parsed_once(tmp_path, schema):
    # in each parsed column, a bad cell, padded or not, is parsed once, as
    # its stripped text, and an empty cell gets missing_value without a parse
    spec = SCHEMAS[schema]
    n = 40
    rows = [good_row(schema, i, i % 40) for i in range(n)]
    parsed = [(spec.header.index(c.name), c) for c in spec.columns if c.parse is not str]
    for j, (i, _) in enumerate(parsed):
        rows[3 * j][i], rows[3 * j + 1][i], rows[3 * j + 2][i] = f"?{j}", f" ?{j} ", ""
    body = "".join(",".join(r) + "\n" for r in rows)
    path = write(tmp_path, f"{schema}.csv", ",".join(spec.header) + "\n" + body)
    calls = {c.name: [0] for _, c in parsed}
    columns = tuple(
        c if c.parse is str else dataclasses.replace(c, parse=counting(c.parse, calls[c.name]))
        for c in spec.columns
    )
    with mock.patch.dict(SCHEMAS, {schema: dataclasses.replace(spec, columns=columns)}):
        report = validate(path, schema)
        error = records_or_error(READERS[schema], path)
    assert report == reference_validate(path, schema)
    assert error == records_or_error(lambda p: reference_read(p, spec), path)
    kinds = collections.Counter(f.kind for f in report.findings if f.severity == "error")
    assert kinds["non_parseable"] == 2 * len(parsed) and kinds["missing_value"] == len(parsed)
    for _, c in parsed:
        # the validate and the read each parse every non-empty cell once
        assert calls[c.name][0] == 2 * (n - 1), c.name


# what a real cell may hold: padding that ``str.strip`` removes (the ASCII
# and Unicode spaces, and the separators U+001C-U+001F, which ``float``
# refuses), and texts that ``float`` reads, refuses or reads as non-finite
SPACES = st.lists(st.sampled_from([*PADDING, "\u2003", "\x1c", "\x1d", "\x1e", "\x1f"]), max_size=2)
GOOD_REALS = ["1", "0.5", "-0", "0", "1e5", "1e-400", "\uff11\uff12", "\u0661\u0662\u0663", "1_0"]
REALS = GOOD_REALS + ["-1", "1__0", "nan", "-nan", "inf", "-inf", "1e309", "-1e309", "", "x", "1 0"]


def real_cells(texts):
    cell = st.tuples(SPACES.map("".join), st.sampled_from(texts), SPACES.map("".join))
    return st.lists(cell.map("".join), max_size=70)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from([("monthly-series", "value"), ("storm", "damage_usd")]),
    cells=st.one_of(real_cells(GOOD_REALS), real_cells(REALS)),
)
# a block that ``float`` takes whole but that holds a value below the minimum
@example(name=("storm", "damage_usd"), cells=["1", " -1", "2"])
def test_a_real_column_takes_a_block_as_its_rule_takes_each_cell(name, cells):
    # a block of a real column's cells that ``float`` takes whole skips the
    # rule; every value and finding must still be the rule's, bit for bit
    c = column(*name)
    lines = range(2, 2 + len(cells))
    want_values, want_found = [], []
    for at, cell in zip(lines, cells):
        try:
            want_values.append(c.read(cell).hex())
        except ingest._BadCell as bad:
            want_values.append(None)
            want_found.append((at, 3, Finding(c.name, at, bad.args[0], "error", bad.args[1])))
    found: list = []
    values = ingest._column(c, 3)(cells, lines, found)
    assert [None if v is None else v.hex() for v in values] == want_values
    assert found == want_found


def test_ingest_keeps_no_module_state_but_its_schemas_and_parser_caches():
    # a value that outlives a scan lives in a column's bounded cache, not in
    # a container of the module's own
    containers = (dict, list, set, array, bytearray, collections.deque)
    held = [
        name
        for name, value in vars(ingest).items()
        if not name.startswith("__") and isinstance(value, containers)
    ]
    assert held == ["SCHEMAS"]
    assert not [name for name, value in vars(ingest).items() if hasattr(value, "cache_info")]
    # a month, date or count column keeps one bounded cache, any other none
    recurring = (ingest._month, ingest._date, ingest._integer)
    for spec in SCHEMAS.values():
        for c in spec.columns:
            assert set(vars(c)) <= {*(f.name for f in dataclasses.fields(c)), "read"}
            if c.parse in recurring:
                assert c.read.cache_info().maxsize == ingest._KNOWN_CELLS, c.name
            else:
                assert not hasattr(c.read, "cache_info"), c.name


def echo(text: str, schema: str, rotation: int) -> str:
    """A ``schema`` file whose rows cycle the cells of the rows of ``text``,
    starting at ``rotation``: the same texts, met first in other columns."""
    width = len(SCHEMAS[schema].header)
    rows = [row for row in list(csv.reader(io.StringIO(text)))[1:] if row]
    cycled = [[row[(j + rotation) % len(row)] for j in range(width)] for row in rows]
    lines = [",".join(SCHEMAS[schema].header)] + [",".join(map(csv_cell, r)) for r in cycled]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(csv_files(), max_size=3),
    csv_files(),
    st.one_of(st.none(), st.tuples(st.sampled_from(sorted(SCHEMAS)), st.integers(0, 4))),
)
# the employer and monthly-series month columns share one cached parser
@example([], ("monthly-series", "month,value\n2020-01,1\n 2020-02,2\n"), ("employer", 1))
@example([], ("employer", EMPLOYER_HEADER + "X, 2021-01 ,1,s,a\n"), ("monthly-series", 1))
def test_a_files_report_and_records_do_not_depend_on_earlier_scans(
    tmp_path_factory, earlier, case, echoed
):
    # the parsers' caches live for the process; whatever files were scanned
    # before, of any schema, a file gives what it gives to a process whose
    # caches start empty
    folder = tmp_path_factory.mktemp("history")
    schema, text = case
    path = folder / f"{schema}.csv"
    path.write_text(text, encoding="utf-8")

    def outcome():
        return validate(path, schema), records_or_error(READERS[schema], path)

    if echoed:
        earlier = [*earlier, (echoed[0], echo(text, *echoed))]
    clear_parser_caches()
    want = outcome()
    clear_parser_caches()
    for k, (before, before_text) in enumerate(earlier):
        before_path = folder / f"before{k}.csv"
        before_path.write_text(before_text, encoding="utf-8")
        validate(before_path, before)
        records_or_error(READERS[before], before_path)
    assert outcome() == want


# quotes, backslashes, control characters, BMP and astral characters and
# a lone surrogate, all of which JSON escapes
ODD_CHARACTERS = [
    '"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "€", "\uffff", "😀", "\U0010ffff", "\ud800"
]
finding_texts = st.one_of(st.text(), st.text(st.sampled_from(ODD_CHARACTERS)))


@st.composite
def reports(draw):
    """A report of any findings, file-level ones and odd texts included."""
    column = st.one_of(st.sampled_from(["<header>", "<row>", "<file>", "value"]), finding_texts)
    finding = st.builds(
        Finding,
        column=column,
        row=st.integers(0, 2**70),
        kind=st.one_of(st.sampled_from(["no_data", "outlier"]), finding_texts),
        severity=st.sampled_from(["error", "warning"]),
        message=finding_texts,
    )
    findings = tuple(draw(st.lists(finding, max_size=6)))
    return ValidationReport(draw(finding_texts), draw(finding_texts), findings)


@settings(max_examples=300, deadline=None)
@given(reports())
@example(ValidationReport("claims", "c.csv", ()))
@example(ValidationReport("s", "s.csv", (Finding("<file>", 1, "no_data", "error", "no rows"),)))
def test_report_json_is_json_dumps_of_its_dict(report):
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


@settings(max_examples=100, deadline=None)
@given(csv_files(), st.sampled_from(["plain", 'q"uote', "back\\slash", "ctl\x01", "é€", "😀"]))
def test_validate_command_writes_json_dumps_of_the_report(tmp_path_factory, case, name):
    schema, text = case
    path = tmp_path_factory.mktemp("cli") / f"{name}.csv"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", str(path), "--schema", schema])
    report = validate(path, schema)
    assert code == (0 if report.passed else 1)
    assert out.getvalue() == json.dumps(report.to_dict(), indent=2) + "\n"


class TestMatchedPanel:
    def make_records(self):
        return read_employer_csv(DATA_DIR / "employer_panel.csv")

    def test_worked_example(self):
        series = matched_panel_aggregate(self.make_records())
        # panel is {X} only: Y exits, Z enters; change = 12 - 10
        assert series.start == MonthKey(2021, 2)
        np.testing.assert_array_equal(series.values, [2.0])
        assert series.units == "persons (matched-panel change)"

    def test_constant_panel_has_zero_change(self):
        records = [
            EmployerRecord("X", MonthKey(2021, 1), 10, "s", "a"),
            EmployerRecord("Y", MonthKey(2021, 1), 20, "s", "a"),
            EmployerRecord("X", MonthKey(2021, 2), 10, "s", "a"),
            EmployerRecord("Y", MonthKey(2021, 2), 20, "s", "a"),
        ]
        np.testing.assert_array_equal(matched_panel_aggregate(records).values, [0.0])

    def test_no_records(self):
        with pytest.raises(TooShortError, match="^no employer records$"):
            matched_panel_aggregate([])

    def test_single_month_too_short(self):
        with pytest.raises(TooShortError):
            matched_panel_aggregate(
                [EmployerRecord("X", MonthKey(2021, 1), 10, "s", "a")]
            )

    def test_no_spanning_employer_emits_zero(self):
        records = [
            EmployerRecord("X", MonthKey(2021, 1), 10, "s", "a"),
            EmployerRecord("Y", MonthKey(2021, 2), 99, "s", "a"),
        ]
        np.testing.assert_array_equal(matched_panel_aggregate(records).values, [0.0])

    def test_single_month_employers_never_affect_output(self):
        base = [
            EmployerRecord("X", MonthKey(2021, 1), 10, "s", "a"),
            EmployerRecord("X", MonthKey(2021, 2), 14, "s", "a"),
        ]
        extra = base + [EmployerRecord("ONCE", MonthKey(2021, 2), 1234, "s", "a")]
        np.testing.assert_array_equal(
            matched_panel_aggregate(base).values,
            matched_panel_aggregate(extra).values,
        )

    def test_order_invariant(self):
        records = self.make_records()
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        assert matched_panel_aggregate(records) == matched_panel_aggregate(shuffled)

    def test_duplicate_employer_month_rejected(self):
        records = [
            EmployerRecord("X", MonthKey(2021, 1), 10, "s", "a"),
            EmployerRecord("X", MonthKey(2021, 1), 11, "s", "a"),
            EmployerRecord("X", MonthKey(2021, 2), 12, "s", "a"),
        ]
        with pytest.raises(ValueError):
            matched_panel_aggregate(records)

    def test_a_repeat_in_a_later_run_of_its_month_is_named(self):
        # January comes in two runs with February between them, and only the
        # second January run repeats an employer of the first
        jan, feb = MonthKey(2021, 1), MonthKey(2021, 2)
        records = [
            EmployerRecord("X", jan, 10, "s", "a"),
            EmployerRecord("Y", jan, 5, "s", "a"),
            EmployerRecord("X", feb, 12, "s", "a"),
            EmployerRecord("Z", jan, 7, "s", "a"),
            EmployerRecord("Y", jan, 6, "s", "a"),
        ]
        with pytest.raises(ValueError, match=r"^duplicate record for employer 'Y' in 2021-01$"):
            matched_panel_aggregate(records)
        # without the repeat, the split month is one panel month
        series = matched_panel_aggregate(records[:4])
        np.testing.assert_array_equal(series.values, [2.0])

    @given(
        st.lists(
            st.tuples(st.sampled_from("XYZ"), st.integers(1, 3), st.integers(0, 50)),
            min_size=1,
            max_size=12,
        )
    )
    def test_months_by_runs_match_a_per_record_walk(self, cells):
        # interleaved months and repeats: each month's counts, or the first
        # repeat in file order, as a walk over the records one at a time
        records = [EmployerRecord(e, MonthKey(2021, m), n, "s", "a") for e, m, n in cells]
        want, repeat = {}, None
        for r in records:
            counts = want.setdefault(r.month, {})
            if r.employer_id in counts:
                repeat = f"duplicate record for employer {r.employer_id!r} in {r.month}"
                break
            counts[r.employer_id] = r.active_employees
        if repeat:
            with pytest.raises(ValueError, match=f"^{repeat}$"):
                ingest._by_month(records)
        else:
            got = ingest._by_month(records)
            assert got == want and list(got) == list(want)
            assert [list(counts) for counts in got.values()] == [list(c) for c in want.values()]


class TestClaimsAggregation:
    def january_weeks(self):
        return read_claims_csv(DATA_DIR / "claims_jan2017.csv")

    def test_initial_claims_summed(self):
        initial, _ = aggregate_claims_monthly(self.january_weeks())
        assert initial.start == MonthKey(2017, 1)
        np.testing.assert_array_equal(initial.values, [800000.0])

    def test_continued_claims_averaged(self):
        _, continued = aggregate_claims_monthly(self.january_weeks())
        np.testing.assert_array_equal(continued.values, [1700000.0])

    def test_partial_boundary_months_dropped(self):
        weeks = (
            [WeeklyClaims(dt.date(2016, 12, 31), 150000, 1600000)]
            + self.january_weeks()
            + [WeeklyClaims(dt.date(2017, 2, 4), 180000, 1650000)]
        )
        initial, continued = aggregate_claims_monthly(weeks)
        # December 2016 has five Saturdays and February 2017 four; only one
        # of each is present, so both months are dropped as partial
        assert initial.months() == (MonthKey(2017, 1),)
        np.testing.assert_array_equal(initial.values, [800000.0])

    def test_two_mid_month_weeks_cover_nothing(self):
        weeks = [
            WeeklyClaims(dt.date(2020, 1, 18), 200000, 1700000),
            WeeklyClaims(dt.date(2020, 1, 25), 210000, 1700000),
        ]
        with pytest.raises(EmptyInputError):
            aggregate_claims_monthly(weeks)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            aggregate_claims_monthly([])

    def test_order_invariant_and_sum_preserved(self):
        weeks = self.january_weeks()
        shuffled = weeks[:]
        random.Random(9).shuffle(shuffled)
        a, _ = aggregate_claims_monthly(weeks)
        b, _ = aggregate_claims_monthly(shuffled)
        assert a == b
        assert a.values.sum() == sum(w.initial_claims for w in weeks)

    def test_duplicate_weeks_rejected(self):
        weeks = self.january_weeks()
        with pytest.raises(ValueError):
            aggregate_claims_monthly(weeks + [weeks[0]])

    def test_covered_months_that_skip_one_rejected(self):
        # every Saturday of January and of March 2017, none of February
        march = [WeeklyClaims(dt.date(2017, 3, day), 1, 1) for day in (4, 11, 18, 25)]
        gap = "^covered months have a gap between 2017-01 and 2017-03"
        with pytest.raises(ValueError, match=gap):
            aggregate_claims_monthly(self.january_weeks() + march)


class TestStormAggregation:
    def test_counts_and_damage_summed(self):
        events = [
            StormEvent("TX", "hail", dt.date(2017, 9, 2), 0, 1e6),
            StormEvent("FL", "hurricane", dt.date(2017, 9, 10), 4, 2e6),
            StormEvent("OK", "tornado", dt.date(2017, 9, 28), 1, 0.0),
        ]
        counts, damage = aggregate_storms_monthly(events)
        np.testing.assert_array_equal(counts.values, [3.0])
        np.testing.assert_array_equal(damage.values, [3e6])

    def test_eventless_months_are_zero(self):
        events = [
            StormEvent("TX", "hail", dt.date(2017, 9, 2), 0, 1e6),
            StormEvent("TX", "flood", dt.date(2017, 11, 20), 0, 5e5),
        ]
        counts, damage = aggregate_storms_monthly(events)
        assert counts.months() == (MonthKey(2017, 9), MonthKey(2017, 10), MonthKey(2017, 11))
        np.testing.assert_array_equal(counts.values, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(damage.values, [1e6, 0.0, 5e5])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            aggregate_storms_monthly([])

    def test_order_invariant(self):
        events = [
            StormEvent("TX", "hail", dt.date(2017, 9, 2), 0, 1e6),
            StormEvent("FL", "hurricane", dt.date(2017, 10, 10), 4, 2e6),
            StormEvent("OK", "tornado", dt.date(2017, 9, 28), 1, 3e5),
        ]
        shuffled = events[::-1]
        a, b = aggregate_storms_monthly(events)
        c, d = aggregate_storms_monthly(shuffled)
        assert a == c and b == d


def storms_by_event(events):
    """The start month, counts and damage, added one event at a time."""
    months = [MonthKey(e.begin_date.year, e.begin_date.month) for e in events]
    first = min(months)
    counts = np.zeros(max(months) - first + 1)
    damage = np.zeros_like(counts)
    for e, month in zip(events, months):
        counts[month - first] += 1
        damage[month - first] += e.damage_usd
    return first, counts, damage


def storm(year, month, damage, day=1):
    return StormEvent("TX", "hail", dt.date(year, month, day), 0, damage)


# 1e16 + 1 + 1 and 1 + 1 + 1e16 differ in the last bit
ORDER_DEPENDENT = [storm(2017, 3, 1e16), storm(2017, 3, 1.0), storm(2017, 3, 1.0, day=9)]


@st.composite
def storm_events(draw):
    """Events over a few months in any order; damages of either sign whose
    sums stay finite, as a series' values must."""
    year = draw(st.integers(1, 9000))
    months = st.integers(0, draw(st.integers(0, 30)))
    damages = st.one_of(
        st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 0.1, 1.0, 1e16, 5e-324])
    )
    offsets = draw(st.lists(st.tuples(months, st.integers(1, 28), damages), min_size=1, max_size=60))
    return [storm(year + m // 12, m % 12 + 1, d, day) for m, day, d in offsets]


@settings(max_examples=300, deadline=None)
@given(storm_events())
@example(ORDER_DEPENDENT)
@example(ORDER_DEPENDENT[::-1])
@example([storm(2017, 12, 2.5), storm(2017, 12, 0.5, day=3)])  # a single month
@example([storm(2018, 5, 1.0), storm(2017, 1, 3.0), storm(2017, 9, 0.1)])  # unsorted, empty months
def test_storm_months_equal_the_per_event_sums_bit_for_bit(events):
    first, counts, damage = storms_by_event(events)
    got_counts, got_damage = aggregate_storms_monthly(events)
    assert got_counts.start == got_damage.start == first
    assert got_counts.values.dtype == got_damage.values.dtype == np.float64
    assert got_counts.values.tobytes() == counts.tobytes()
    assert got_damage.values.tobytes() == damage.tobytes()


def test_the_order_dependent_storm_sums_do_depend_on_order():
    forward = aggregate_storms_monthly(ORDER_DEPENDENT)[1].values
    backward = aggregate_storms_monthly(ORDER_DEPENDENT[::-1])[1].values
    assert forward.tolist() == [1e16] and backward.tolist() == [1e16 + 2]
