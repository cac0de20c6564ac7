import contextlib
import dataclasses
import datetime as dt
import io
import json
import random
import tracemalloc
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
    # a scan holds one row at a time; what grows with the file is the outlier
    # buffers (a line and a float per watched cell) and the findings
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


@settings(max_examples=400, deadline=None)
@given(csv_files(), st.sampled_from([1, 2, ingest._KNOWN_CELLS]), st.booleans())
# a row is keyed by its stripped texts even where the second key cell is bad
@example(("employer", EMPLOYER_HEADER + "X,2021/01,1,s,a\nX, 2021/01 ,2,s,a\n"), 2, True)
# an empty padded second key cell is keyed by its stripped text too
@example(("employer", EMPLOYER_HEADER + "X, ,1,s,a\nX,  ,2,s,a\n"), 2, False)
# a remembered padded key cell is still keyed by its stripped text
@example(("employer", EMPLOYER_HEADER + "X, 2021-01 ,1,s,a\nX, 2021-01 ,2,s,a\n"), 4096, False)
# a count that parses but is out of range stays bad when it comes again
@example(("claims", CLAIMS_HEADER + "2017-01-07,-3,1\n2017-01-14,-3,1\n"), 4096, True)
def test_the_scan_gives_what_the_per_cell_scan_gave(tmp_path_factory, case, known_cells, every):
    # every finding field in the same order, and the same records or error,
    # also when the columns remember so few good cells that they start over,
    # and whichever columns remember their cells
    schema, text = case
    path = tmp_path_factory.mktemp("oracle") / f"{schema}.csv"
    path.write_text(text, encoding="utf-8")
    spec = SCHEMAS[schema]
    if every:
        columns = tuple(dataclasses.replace(c, repeats=True) for c in spec.columns)
        patched = {schema: dataclasses.replace(spec, columns=columns)}
    else:
        patched = {}
    with mock.patch.object(ingest, "_KNOWN_CELLS", known_cells), mock.patch.dict(SCHEMAS, patched):
        assert validate(path, schema) == reference_validate(path, schema)
        got = records_or_error(READERS[schema], path)
    want = records_or_error(lambda p: reference_read(p, spec), path)
    if schema == "monthly-series" and not want.startswith("MalformedFileError"):
        rows = reference_read(path, spec)
        want = repr(MonthlySeries(rows[0].month, np.array([r.value for r in rows]), path.stem))
    assert got == want


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
