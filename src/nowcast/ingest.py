"""CSV ingestion, schema validation, and monthly aggregation.

Four file schemas are supported (UTF-8, comma-separated, one header row,
months as YYYY-MM, dates as YYYY-MM-DD):

* employer  — ``employer_id,month,active_employees,sector,size_band``
* storm     — ``state,event_type,begin_date,injuries,damage_usd``
* claims    — ``week_ending,initial_claims,continued_claims``
* monthly-series — ``month,value``

Each schema is one :class:`Schema` in :data:`SCHEMAS`: record type,
column parsers and bounds, and the rules across rows. One scan walks a
file against it. ``validate`` reports what the scan finds plus robust
outliers and never raises on bad rows; the ``read_*`` functions enforce
the same spec, raising its first error as :class:`MalformedFileError`.
Their records (:class:`EmployerRecord`, :class:`StormEvent`,
:class:`WeeklyClaims`) and ``validate``'s findings (:class:`Finding`) are
named tuples (``typing.NamedTuple``), so each also equals the plain tuple
of its values, and a schema's header is its record type's fields.

A scan holds one block of ``_BLOCK`` rows at a time. Each column of a
block maps its parser over its cells once, and only the cells the parser
or the column rejects are checked one at a time, so a good row builds no
:class:`Finding` and a bad row gets one per bad cell, in column order. The
month, date and count parsers keep the last ``_KNOWN_CELLS`` values they
returned for the process, so the months of every file of a run are parsed
once. Across blocks a scan keeps only the unique keys seen so far, the
last ordered value and, for ``validate``, one buffer of lines and values
per outlier column. A scan reads the file to its end, so a file that fails
to decode or to split into CSV fields anywhere raises
:class:`UnreadableFileError`, even when an earlier row is bad.
:meth:`ValidationReport.write_json` writes a report's JSON one finding at
a time, in the layout of ``json.dumps(report.to_dict(), indent=2)``.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import io
import json
import logging
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress, groupby, islice, repeat
from operator import attrgetter, getitem, is_not, itemgetter, ne
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import EmptyInputError, MalformedFileError, TooShortError, UnreadableFileError
from .timeseries import MonthKey, MonthlySeries

logger = logging.getLogger(__name__)

VALIDATION_SCHEMA_VERSION = 1

# robust z-score threshold: values more than this many MADs from the
# column median are flagged (as warnings, not errors)
OUTLIER_MAD_THRESHOLD = 5.0


class EmployerRecord(NamedTuple):
    employer_id: str
    month: MonthKey
    active_employees: int
    sector: str
    size_band: str


class StormEvent(NamedTuple):
    state: str
    event_type: str
    begin_date: dt.date
    injuries: int
    damage_usd: float


class WeeklyClaims(NamedTuple):
    week_ending: dt.date
    initial_claims: int
    continued_claims: int


class _Observation(NamedTuple):
    month: MonthKey
    value: float


class _BadCell(Exception):
    """A cell its column rejects; ``args`` are the finding's kind and message."""


# texts each cached parser keeps with its value: those whose texts recur
# within a process; a text it rejects raises ``_BadCell`` and is not kept
_KNOWN_CELLS = 4096


@lru_cache(_KNOWN_CELLS)
def _month(text: str) -> MonthKey:
    try:
        return MonthKey.parse(text)
    except ValueError:
        raise _BadCell("non_parseable", f"not a YYYY-MM month: {text!r}") from None


@lru_cache(_KNOWN_CELLS)
def _date(text: str) -> dt.date:
    text = text.strip()
    try:
        if (value := dt.date.fromisoformat(text)).isoformat() == text:  # not 20200104, 2020-W02-6
            return value
    except ValueError:
        pass
    raise _BadCell("non_parseable", f"not a YYYY-MM-DD date: {text!r}")


@lru_cache(_KNOWN_CELLS)
def _integer(text: str) -> int:
    """Exactly what ``int()`` takes; a number it refuses is a type mismatch."""
    text = text.strip()
    try:
        value = int(text)
        float(value)  # beyond the float range is no count either
        return value
    except (ValueError, OverflowError):
        pass
    try:
        float(text)
    except ValueError:
        raise _BadCell("non_parseable", f"not a number: {text!r}") from None
    raise _BadCell("type_mismatch", f"expected an integer: {text!r}")


def _real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _BadCell("non_parseable", f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _BadCell("non_finite", f"not a finite number: {text!r}")
    return value


@dataclass(frozen=True)
class Column:
    """How one column's cells are read: parsed, then bounded."""

    name: str
    parse: Callable[[str], Any]  # raises _BadCell
    required: bool = True  # an empty cell is a missing_value error
    minimum: int | None = None
    outliers: bool = False  # joins the robust-outlier pass


@dataclass(frozen=True)
class Schema:
    """One file schema: its columns, its record type and its rules across rows."""

    columns: tuple[Column, ...]  # each header column, in the order a row's cells are checked
    record: type  # a NamedTuple, built from a good row's values in header order
    # key columns whose stripped texts may not repeat; a repeat is named on
    # the first, and a row is keyed only when that first cell is good
    unique: tuple[str, ...] = ()
    duplicate: str = ""  # message for a repeat, formatted with the key texts
    increasing: str | None = None  # each good value must exceed the last
    contiguous: str | None = None  # each good month must follow the last
    saturdays: str | None = None  # a date off a Saturday is a warning
    needs_rows: bool = False  # a header-only file is an error

    @property
    def header(self) -> tuple[str, ...]:
        """The file's header row: the record type's fields, in order."""
        return self.record._fields


SCHEMAS: dict[str, Schema] = {
    "employer": Schema(
        columns=(
            Column("month", _month),
            Column("active_employees", _integer, minimum=0, outliers=True),
            Column("employer_id", str),
            Column("sector", str, required=False),
            Column("size_band", str, required=False),
        ),
        record=EmployerRecord,
        unique=("employer_id", "month"),
        duplicate="employer {0!r} repeated for {1}",
    ),
    "storm": Schema(
        columns=(
            Column("state", str, required=False),
            Column("event_type", str, required=False),
            Column("begin_date", _date),
            Column("injuries", _integer, minimum=0, outliers=True),
            Column("damage_usd", _real, minimum=0, outliers=True),
        ),
        record=StormEvent,
    ),
    "claims": Schema(
        columns=(
            Column("week_ending", _date),
            Column("initial_claims", _integer, minimum=0, outliers=True),
            Column("continued_claims", _integer, minimum=0, outliers=True),
        ),
        record=WeeklyClaims,
        unique=("week_ending",),
        duplicate="week {0} repeated",
        increasing="week_ending",
        saturdays="week_ending",
    ),
    "monthly-series": Schema(
        columns=(Column("value", _real, outliers=True), Column("month", _month)),
        record=_Observation,
        contiguous="month",
        needs_rows=True,
    ),
}


class Finding(NamedTuple):
    """One validation issue. ``row`` is the 1-based file line (header = 1)."""

    column: str
    row: int
    kind: str
    severity: str  # "error" | "warning"
    message: str


# one finding as ``json.dumps(report.to_dict(), indent=2)`` lays it out
_FINDING_JSON = (
    '    {\n      "column": %s,\n      "row": %d,\n      "kind": %s,\n'
    '      "severity": %s,\n      "message": %s\n    }'
)


@dataclass(frozen=True)
class ValidationReport:
    schema: str
    path: str
    findings: tuple[Finding, ...]

    @property
    def passed(self) -> bool:
        """True iff no error-severity findings (warnings do not fail a file)."""
        return not any(f.severity == "error" for f in self.findings)

    def column_summary(self) -> dict[str, dict[str, int]]:
        """Finding counts per column, keyed by finding kind."""
        out: dict[str, dict[str, int]] = {}
        for f in self.findings:
            kinds = out.setdefault(f.column, {})
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "schema_version": VALIDATION_SCHEMA_VERSION,
            "schema": self.schema,
            "path": self.path,
            "passed": self.passed,
            "findings": [f._asdict() for f in self.findings],
            "column_summary": self.column_summary(),
        }

    def to_json(self) -> str:
        out = io.StringIO()
        self.write_json(out)
        return out.getvalue()

    def write_json(self, fh: TextIO) -> None:
        """Write :meth:`to_dict` to ``fh`` as ``json.dumps(..., indent=2)``
        lays it out, one finding at a time."""
        quote = json.encoder.encode_basestring_ascii
        head = (
            ("schema_version", VALIDATION_SCHEMA_VERSION),
            ("schema", self.schema),
            ("path", self.path),
            ("passed", self.passed),
        )
        fh.write("{\n" + "".join(f"  {quote(k)}: {json.dumps(v)},\n" for k, v in head))
        fh.write('  "findings": [')
        separator = "\n"
        for f in self.findings:
            fields = (quote(f.column), f.row, quote(f.kind), quote(f.severity), quote(f.message))
            fh.write(separator + _FINDING_JSON % fields)
            separator = ",\n"
        fh.write("\n  ]" if self.findings else "]")
        summary = json.dumps(self.column_summary(), indent=2).replace("\n", "\n  ")
        fh.write(f',\n  "column_summary": {summary}\n}}')


# rows a scan reads and checks at a time: peak memory grows with it, and
# larger blocks read the employer panel no faster
_BLOCK = 64


def _blocks(path) -> Iterator[list[list[str]]]:
    """The file's CSV rows, read and decoded ``_BLOCK`` at a time."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            while block := list(islice(reader, _BLOCK)):
                yield block
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc}") from exc


def _rows(path) -> Iterator[list[str]]:
    """The file's CSV rows, one at a time."""
    return chain.from_iterable(_blocks(path))


_FINDING = itemgetter(2)
_PRESENT = partial(is_not, None)


def _column(c: Column, order: int) -> Callable:
    """How column ``c`` of a block is taken: ``take(cells, lines, found)``
    gives the cells' values, ``None`` at a bad cell, and appends ``(line,
    order, finding)`` to ``found`` for each bad cell.

    Text and key columns are given the block's stripped texts, which are a
    text column's values. Any other column maps its parser over the cells
    once; a cell the parser rejects goes through the per-cell check, which
    words its finding, and the map resumes after it. Cells that pass the
    parser but not the column (an empty required text, a value below the
    minimum) are looked for one by one only when a test over the block
    finds one.
    """
    parse, required, minimum, name = c.parse, c.required, c.minimum, c.name

    def check(raw: str, line: int, found: list) -> Any:
        """One cell's value, or ``None`` with its finding appended to ``found``."""
        text = raw.strip()
        try:
            if not text and required:
                raise _BadCell("missing_value", "cell is empty")
            value = parse(text)
            if minimum is not None and value < minimum:
                raise _BadCell("out_of_range", f"value {float(value)} below {minimum}")
        except _BadCell as bad:
            found.append((line, order, Finding(name, line, bad.args[0], "error", bad.args[1])))
            return None
        return value

    def take(cells: Sequence[str], lines: Sequence[int], found: list) -> list:
        if parse is str:  # the stripped texts
            if required and "" in cells:
                return [t or check(t, at, found) for t, at in zip(cells, lines)]
            return cells
        values: list = []
        rest = iter(cells)
        while len(values) < len(cells):
            try:
                # CPython's ``list +=`` keeps the values the map gave before
                # the cell that raised; ``rest`` resumes after that cell
                values += map(parse, rest)
            except _BadCell:
                k = len(values)
                values.append(check(cells[k], lines[k], found))
        if minimum is not None:
            good = filter(_PRESENT, values) if None in values else values
            if min(good, default=minimum) < minimum:
                for k, value in enumerate(values):
                    if value is not None and value < minimum:
                        values[k] = check(cells[k], lines[k], found)
        return values

    return take


def _scan(path, spec: Schema) -> Iterator[tuple[int, int, list[list] | None, list[Finding]]]:
    """Yield ``(line, rows, columns, findings)`` for each block of data rows.

    ``line`` is the block's first file line and ``rows`` its row count;
    ``columns`` holds one list of parsed values per header column, ``None``
    at a bad cell and at a row with a wrong field count. The file-level
    findings, a wrong header (which ends the scan) and no data rows, come
    as a block of no rows and no columns. Findings are in file order, and a
    row's come in column order, then ``duplicate``, ``ordering``, ``gap``
    and ``convention``; a row with a wrong field count gets only its
    ``field_count`` finding. Each column of a block is taken at once
    (:func:`_column`), and the file is always read to its end.
    """
    blocks = _blocks(path)
    first = next(blocks, None)
    if first is None:
        raise UnreadableFileError(f"{path} is empty (missing header)")
    header = first[0]
    if tuple(header) != spec.header:
        for _ in blocks:  # a read failure further on still wins
            pass
        got = f"expected {','.join(spec.header)!r}, got {','.join(header)!r}"
        yield 1, 0, None, [Finding("<header>", 1, "header_mismatch", "error", got)]
        return
    width = len(spec.header)
    index = {name: i for i, name in enumerate(spec.header)}
    # one object per distinct text of the text and key columns, which the
    # records and ``seen`` then share
    shared: dict[str, str] = {}
    takes = [
        (index[c.name], c.parse is str or c.name in spec.unique, _column(c, order))
        for order, c in enumerate(spec.columns)
    ]
    # the rules across rows rank after a row's cells: duplicate, ordering, gap, convention
    rules = len(spec.columns)
    # the line that first had each key, nested one dict per key column so
    # that no row leaves a key tuple behind
    key = [index[name] for name in spec.unique]
    make: Callable = dict
    for _ in key[1:]:
        make = partial(defaultdict, make)
    seen = make()
    ordered = (spec.increasing, spec.contiguous, spec.saturdays)
    increasing, contiguous, saturdays = map(index.get, ordered)
    last_increasing = last_contiguous = None
    line = 2
    for rows in chain((first[1:],), blocks):
        if not rows:
            continue
        n = len(rows)
        found: list[tuple[int, int, Finding]] = []
        good, lines = rows, range(line, line + n)
        if {*map(len, rows)} != {width}:
            fits = [len(row) == width for row in rows]
            good = list(compress(rows, fits))
            for at, row in zip(lines, rows):
                if len(row) != width:
                    message = f"expected {width} fields, got {len(row)}"
                    found.append((at, 0, Finding("<row>", at, "field_count", "error", message)))
            lines = list(compress(lines, fits))
        cells = list(zip(*good)) or [()] * width
        texts: list = [None] * width
        values: list = [None] * width
        for i, share, take in takes:
            column = cells[i]
            if share:
                column = list(map(str.strip, column))
                column = texts[i] = list(map(shared.setdefault, column, column))
            values[i] = take(column, lines, found)
        if key:
            keys, keyed = [texts[i] for i in key], lines
            if None in values[key[0]]:  # a row is keyed only when its first key cell is good
                ok = list(map(is_not, values[key[0]], repeat(None)))
                keys, keyed = [list(compress(t, ok)) for t in keys], list(compress(keyed, ok))
            *outer, last = keys
            levels: Iterator = repeat(seen)
            for texts_at in outer:
                levels = map(getitem, levels, texts_at)
            firsts = list(map(dict.setdefault, levels, last, keyed))
            if any(map(ne, firsts, keyed)):
                for k, (at, first_at) in enumerate(zip(keyed, firsts)):
                    if first_at != at:
                        repeat_of = spec.duplicate.format(*[t[k] for t in keys])
                        message = f"{repeat_of} (first at line {first_at})"
                        finding = Finding(spec.unique[0], at, "duplicate", "error", message)
                        found.append((at, rules, finding))
        if increasing is not None:
            for at, value in zip(lines, values[increasing]):
                if value is not None:
                    if last_increasing is not None and value <= last_increasing:
                        message = f"{value} not after {last_increasing}"
                        finding = Finding(spec.increasing, at, "ordering", "error", message)
                        found.append((at, rules + 1, finding))
                    last_increasing = value
        if contiguous is not None:
            for at, value in zip(lines, values[contiguous]):
                if value is not None:
                    if last_contiguous is not None and value - last_contiguous != 1:
                        message = f"{value} does not immediately follow {last_contiguous}"
                        finding = Finding(spec.contiguous, at, "gap", "error", message)
                        found.append((at, rules + 2, finding))
                    last_contiguous = value
        if saturdays is not None:
            for at, value in zip(lines, values[saturdays]):
                if value is not None and value.weekday() != 5:
                    message = f"{value} is not a Saturday"
                    finding = Finding(spec.saturdays, at, "convention", "warning", message)
                    found.append((at, rules + 3, finding))
        if len(good) < n:  # each wrong-width row holds None in every column
            values = [_spread(column, fits) for column in values]
        found.sort()
        yield line, n, values, list(map(_FINDING, found))
        line += n
    if spec.needs_rows and line == 2:
        yield 1, 0, None, [Finding("<file>", 1, "no_data", "error", "no data rows")]


def _spread(column: list, fits: list[bool]) -> list:
    """``column``'s values at the rows that fit, ``None`` at the others."""
    values = iter(column)
    return [next(values) if fit else None for fit in fits]


def _outliers(columns: list[tuple[str, array, array]]) -> list[Finding]:
    """Robust z-score pass: |value - median| / MAD above the threshold.

    Each column comes as its name, the lines of its good values and those
    values, in file order.
    """
    found = []
    for column, lines, numbers in columns:
        values = np.frombuffer(numbers, dtype=np.float64)
        median = float(np.median(values))
        deviations = np.abs(values - median)
        mad = float(np.median(deviations))
        # with zero MAD any deviation is infinitely many MADs out
        z = deviations / mad if mad > 0 else np.where(deviations > 0, np.inf, 0.0)
        for k in np.flatnonzero(z > OUTLIER_MAD_THRESHOLD).tolist():
            message = f"value {numbers[k]} is {z[k]:.1f} MADs from the median {median}"
            found.append(Finding(column, lines[k], "outlier", "warning", message))
    return found


def validate(path, schema: str) -> ValidationReport:
    """Check one CSV file against a named schema; never raises on content.

    Missing, unparseable, non-integer, non-finite and out-of-range cells
    are errors, and so are violated file invariants (wrong field counts,
    duplicates, ordering, gaps, no data rows); outliers (more than five
    MADs from the column median) and off-Saturday weeks are warnings.
    Idempotent and side-effect-free: the same file yields the same report.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {sorted(SCHEMAS)}")
    spec = SCHEMAS[schema]
    watched = [
        (c.name, spec.header.index(c.name), array("q"), array("d"))
        for c in spec.columns
        if c.outliers
    ]
    findings: list[Finding] = []
    for line, n, columns, found in _scan(path, spec):
        findings += found
        for _, i, lines, numbers in watched if columns else ():
            column = columns[i]
            if None in column:
                good = list(map(is_not, column, repeat(None)))
                lines.extend(compress(range(line, line + n), good))
                numbers.extend(compress(column, good))
            else:
                lines.extend(range(line, line + n))
                numbers.extend(column)
    # a column's outliers follow those of the columns with an earlier first good value
    columns = [(name, lines, numbers) for name, _, lines, numbers in watched if lines]
    columns.sort(key=lambda c: c[1][0])
    findings += _outliers(columns)
    return ValidationReport(schema, str(path), tuple(findings))


def _read(path, spec: Schema) -> list:
    """Every row of a file as ``spec.record``; raises on the scan's first error.

    The rest of the file is still scanned, so that a failure to read it
    raises ``UnreadableFileError`` instead.
    """
    records: list = []
    error = None
    for _, _, columns, found in _scan(path, spec):
        if error is None:
            error = next((f for f in found if f.severity == "error"), None)
            if error is None:
                # a good row has one value per field, in the record's order
                records += map(tuple.__new__, repeat(spec.record), zip(*columns))
    if error is not None:
        raise MalformedFileError(f"{path}:{error.row}: {error.column}: {error.message}")
    return records


def read_employer_csv(path) -> list[EmployerRecord]:
    return _read(path, SCHEMAS["employer"])


def read_storm_csv(path) -> list[StormEvent]:
    return _read(path, SCHEMAS["storm"])


def read_claims_csv(path) -> list[WeeklyClaims]:
    return _read(path, SCHEMAS["claims"])


def read_monthly_series_csv(path) -> MonthlySeries:
    """Read a ``month,value`` file into a series named after the file stem."""
    rows = _read(path, SCHEMAS["monthly-series"])
    return MonthlySeries(rows[0].month, np.array([r.value for r in rows]), Path(path).stem)


def write_monthly_series_csv(series: MonthlySeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEMAS["monthly-series"].header)
        for month, value in zip(series.months(), series.values):
            writer.writerow([str(month), float(value)])


def matched_panel_aggregate(records: Sequence[EmployerRecord]) -> MonthlySeries:
    """Month-over-month employment change on a constant two-month panel.

    For each month the comparison is restricted to employers present in
    both that month and the one before, so entrants and exits from the
    provider's client base never masquerade as employment change. The
    result is a change series, not a level.
    """
    by_month = _by_month(records)
    if not by_month:
        raise TooShortError("no employer records")
    first, last = min(by_month), max(by_month)
    if last - first < 1:
        raise TooShortError("matched-panel aggregation needs at least 2 months")

    values = []
    for i in range(1, last - first + 1):
        cur_month = first.shift(i)
        prev = by_month.get(cur_month.shift(-1), {})
        cur = by_month.get(cur_month, {})
        panel = prev.keys() & cur.keys()
        if not panel:
            logger.warning("no employer spans %s..%s; emitting 0", cur_month.shift(-1), cur_month)
            values.append(0.0)
        else:
            # exact integer sums, so the order of the panel does not matter
            change = sum(map(cur.__getitem__, panel)) - sum(map(prev.__getitem__, panel))
            values.append(float(change))
    return MonthlySeries(
        first.shift(1),
        np.array(values),
        name="matched_panel_change",
        units="persons (matched-panel change)",
    )


_MONTH_OF = attrgetter("month")
_EMPLOYER_OF = attrgetter("employer_id")
_COUNT_OF = attrgetter("active_employees")


def _by_month(records: Sequence[EmployerRecord]) -> dict[MonthKey, dict[str, int]]:
    """Each month's active employees by employer id.

    A file lists a month's records together, so each run of one month
    becomes one dict at once. A run that repeats an id, or that meets an
    earlier run of its month, sends every record through the per-record
    loop, which names the first repeat.
    """
    by_month: dict[MonthKey, dict[str, int]] = {}
    for month, run in groupby(records, _MONTH_OF):
        run = list(run)
        counts = dict(zip(map(_EMPLOYER_OF, run), map(_COUNT_OF, run)))
        if len(counts) < len(run) or month in by_month:
            break
        by_month[month] = counts
    else:
        return by_month
    by_month = {}
    for r in records:
        month = by_month.setdefault(r.month, {})
        if r.employer_id in month:
            raise ValueError(f"duplicate record for employer {r.employer_id!r} in {r.month}")
        month[r.employer_id] = r.active_employees
    return by_month


def _saturdays_in(year: int, month: int) -> list[dt.date]:
    days = calendar.monthrange(year, month)[1]
    return [
        d
        for d in (dt.date(year, month, day) for day in range(1, days + 1))
        if d.weekday() == 5
    ]


def aggregate_claims_monthly(
    claims: Sequence[WeeklyClaims],
) -> tuple[MonthlySeries, MonthlySeries]:
    """Roll weekly claims up to the months their week-ending dates fall in.

    Initial claims are a flow and are summed; continued claims are a stock
    and are averaged. A month counts as covered only when every Saturday in
    it appears as a week-ending date; partially covered boundary months are
    dropped rather than extrapolated.
    """
    if not claims:
        raise EmptyInputError("no weekly claims to aggregate")
    seen: set[dt.date] = set()
    for c in claims:
        if c.week_ending in seen:
            raise ValueError(f"duplicate week_ending {c.week_ending}")
        seen.add(c.week_ending)

    ordered = sorted(claims, key=lambda c: c.week_ending)
    by_month: dict[MonthKey, list[WeeklyClaims]] = {}
    for c in ordered:
        by_month.setdefault(MonthKey(c.week_ending.year, c.week_ending.month), []).append(c)

    # months in week order, so already sorted
    covered = [
        month
        for month, weeks in by_month.items()
        if {c.week_ending for c in weeks} >= set(_saturdays_in(month.year, month.month))
    ]
    if not covered:
        raise EmptyInputError("no month is fully covered by the supplied weeks")
    for prev, cur in zip(covered, covered[1:]):
        if cur - prev != 1:
            raise ValueError(f"covered months have a gap between {prev} and {cur}")

    initial = [float(sum(c.initial_claims for c in by_month[m])) for m in covered]
    continued = [
        float(sum(c.continued_claims for c in by_month[m])) / len(by_month[m])
        for m in covered
    ]
    start = covered[0]
    return (
        MonthlySeries(start, np.array(initial), name="initial_claims", units="claims (monthly total)"),
        MonthlySeries(start, np.array(continued), name="continued_claims", units="persons (weekly mean)"),
    )


def aggregate_storms_monthly(
    events: Sequence[StormEvent],
) -> tuple[MonthlySeries, MonthlySeries]:
    """National monthly storm-event counts and total damage.

    Events are keyed by their begin date's month; months inside the spanned
    range with no events are zeros, since absence of storms is data, not a
    gap.
    """
    if not events:
        raise EmptyInputError("no storm events to aggregate")
    months = [MonthKey(e.begin_date.year, e.begin_date.month) for e in events]
    first, last = min(months), max(months)
    n = last - first + 1
    counts = np.zeros(n)
    damage = np.zeros(n)
    for e, month in zip(events, months):
        i = month - first
        counts[i] += 1
        damage[i] += e.damage_usd
    return (
        MonthlySeries(first, counts, name="storm_events", units="events"),
        MonthlySeries(first, damage, name="storm_damage", units="USD"),
    )
