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

A scan holds one block of ``_BLOCK`` rows at a time. Each column states
its cell rule once, as :attr:`Column.read` (strip, reject an empty
required cell, parse, check the minimum), and a block maps it over its
cells once: a good row builds no :class:`Finding`, a bad row gets one per
bad cell in column order, and a row with a wrong field count only its
``field_count`` finding. A month, date or count column keeps its last
``_KNOWN_CELLS`` good cells for the process, and the employer and
monthly-series files share one month column, so the months of every file
of a run are parsed once. Across blocks a scan keeps only the unique keys
seen so far, the last ordered value and, for ``validate``, one buffer of
lines and values per outlier column. A scan reads the file to its end, so
a file that fails to decode or to split into CSV fields anywhere raises
:class:`UnreadableFileError`, even when an earlier row is bad.
:meth:`ValidationReport.write_json` writes a report's JSON one finding at
a time, in the layout of ``json.dumps(report.to_dict(), indent=2)``.

The ``read_*`` functions pause Python's cyclic garbage collector while they
build records and leave it enabled or disabled as they found it. The
collector never untracks a named tuple, so each of its full passes would
walk every record read so far, and records hold no reference cycles for
it to free.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import gc
import io
import json
import logging
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
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


def _month(text: str) -> MonthKey:
    try:
        return MonthKey.parse(text)
    except ValueError:
        raise _BadCell("non_parseable", f"not a YYYY-MM month: {text!r}") from None


def _date(text: str) -> dt.date:
    try:
        if (value := dt.date.fromisoformat(text)).isoformat() == text:  # not 20200104, 2020-W02-6
            return value
    except ValueError:
        pass
    raise _BadCell("non_parseable", f"not a YYYY-MM-DD date: {text!r}")


def _integer(text: str) -> int:
    """Exactly what ``int()`` takes; a number it refuses is a type mismatch."""
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


# good cells a month, date or count column keeps with their values for the
# process, because those texts recur; a real column keeps none, since its
# texts rarely recur and a cache that misses costs more than the parse
_KNOWN_CELLS = 4096


@dataclass(frozen=True)
class Column:
    """How one column's cells are read: stripped, parsed, then bounded."""

    name: str
    parse: Callable[[str], Any]  # takes the stripped text; raises _BadCell
    required: bool = True  # an empty cell is a missing_value error
    minimum: int | None = None
    outliers: bool = False  # joins the robust-outlier pass

    @cached_property
    def read(self) -> Callable[[str], Any]:
        """The column's rule for one raw cell: its value, or ``_BadCell``."""
        parse, required, minimum = self.parse, self.required, self.minimum

        def read(raw: str) -> Any:
            text = raw.strip()
            if not text and required:
                raise _BadCell("missing_value", "cell is empty")
            value = parse(text)
            if minimum is not None and value < minimum:
                raise _BadCell("out_of_range", f"value {float(value)} below {minimum}")
            return value

        return lru_cache(_KNOWN_CELLS)(read) if parse in (_month, _date, _integer) else read


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


# one column, so one cache, for the months of the employer and monthly-series
# files: the 49 files of one ``nowcast backtest`` read their months once
_MONTH = Column("month", _month)

SCHEMAS: dict[str, Schema] = {
    "employer": Schema(
        columns=(
            _MONTH,
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
        columns=(Column("value", _real, outliers=True), _MONTH),
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


def _column(c: Column, order: int) -> Callable:
    """How column ``c`` of a block is taken: ``take(cells, lines, found)``
    gives the cells' values, ``None`` at a bad cell, and appends ``(line,
    order, finding)`` to ``found`` for each bad cell. It maps the column's
    rule (:attr:`Column.read`) over the cells once, resuming after a cell
    the rule rejects; text and key cells come stripped, so a text column's
    cells are its values unless a required one is empty. A real column's
    block skips the rule when plain ``float`` takes it whole and in bounds.
    """
    read, name, parse, required, minimum = c.read, c.name, c.parse, c.required, c.minimum

    def take(cells: Sequence[str], lines: Sequence[int], found: list) -> list:
        if parse is str and not (required and "" in cells):
            return cells
        if parse is _real:  # ``float`` strips as the rule does or raises; finite sum, finite terms
            try:
                values = list(map(float, cells))
                if math.isfinite(sum(values)) and (minimum is None or min(values) >= minimum):
                    return values
            except ValueError:  # a cell ``float`` refuses, or no cells for ``min``
                pass
        values: list = []
        rest = iter(cells)
        while len(values) < len(cells):
            try:
                # CPython's ``list +=`` keeps the values the map gave before
                # the cell that raised; ``rest`` resumes after that cell
                values += map(read, rest)
            except _BadCell as bad:
                at = lines[len(values)]
                found.append((at, order, Finding(name, at, bad.args[0], "error", bad.args[1])))
                values.append(None)
        return values

    return take


def _scan(path, spec: Schema) -> Iterator[tuple[Sequence[int], list[list] | None, list[Finding]]]:
    """Yield ``(lines, columns, findings)`` for each block of data rows.

    ``lines`` are the file lines of the block's rows with the header's field
    count, and ``columns`` holds one list of those rows' values per header
    column, ``None`` at a bad cell. A row with a wrong field count gets only
    its ``field_count`` finding and is in neither. The file-level findings,
    a wrong header (which ends the scan) and no data rows, come with no
    lines and no columns. Findings are in file order, and a row's come in
    column order, then ``duplicate``, ``ordering``, ``gap`` and
    ``convention``. Each column of a block is taken at once
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
        yield (), None, [Finding("<header>", 1, "header_mismatch", "error", got)]
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
    last_increasing = last_contiguous = last_month = None
    line = 2
    for rows in chain((first[1:],), blocks):
        if not rows:
            continue
        n = len(rows)
        found: list[tuple[int, int, Finding]] = []
        lines: Sequence[int] = range(line, line + n)
        if {*map(len, rows)} != {width}:
            fits = [len(row) == width for row in rows]
            for at, row in zip(lines, rows):
                if len(row) != width:
                    message = f"expected {width} fields, got {len(row)}"
                    found.append((at, 0, Finding("<row>", at, "field_count", "error", message)))
            rows, lines = list(compress(rows, fits)), list(compress(lines, fits))
        cells = list(zip(*rows)) or [()] * width
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
                    month = value.year * 12 + value.month
                    if last_month is not None and month - last_month != 1:
                        message = f"{value} does not immediately follow {last_contiguous}"
                        finding = Finding(spec.contiguous, at, "gap", "error", message)
                        found.append((at, rules + 2, finding))
                    last_contiguous, last_month = value, month
        if saturdays is not None:
            for at, value in zip(lines, values[saturdays]):
                if value is not None and value.weekday() != 5:
                    message = f"{value} is not a Saturday"
                    finding = Finding(spec.saturdays, at, "convention", "warning", message)
                    found.append((at, rules + 3, finding))
        found.sort()
        yield lines, values, list(map(_FINDING, found))
        line += n
    if spec.needs_rows and line == 2:
        yield (), None, [Finding("<file>", 1, "no_data", "error", "no data rows")]


def _outliers(columns: list[tuple[str, array, array]]) -> list[Finding]:
    """Robust z-score pass: |value - median| / MAD above the threshold.

    Each column comes as its name, the lines of its good values and those
    values, in file order.
    """
    found: list[Finding] = []
    for column, lines, numbers in columns:
        values = np.frombuffer(numbers, dtype=np.float64)
        median = float(np.median(values))
        deviations = np.abs(values - median)
        mad = float(np.median(deviations))
        # with zero MAD any deviation is infinitely many MADs out
        z = deviations / mad if mad > 0 else np.where(deviations > 0, np.inf, 0.0)
        far = z > OUTLIER_MAD_THRESHOLD
        tail = f" MADs from the median {median}"
        found += [
            Finding(column, line, "outlier", "warning", f"value {value} is {score:.1f}{tail}")
            for line, value, score in zip(
                np.frombuffer(lines, dtype=np.int64)[far].tolist(),
                values[far].tolist(),
                z[far].tolist(),
            )
        ]
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
    for block_lines, columns, found in _scan(path, spec):
        findings += found
        for _, i, lines, numbers in watched if columns else ():
            column, kept = columns[i], block_lines
            if None in column:
                good = list(map(is_not, column, repeat(None)))
                column, kept = compress(column, good), compress(block_lines, good)
            lines.extend(kept)
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
    # paused: its passes would walk every record so far and find no cycles
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _, columns, found in _scan(path, spec):
            if error is None:
                error = next((f for f in found if f.severity == "error"), None)
                if error is None:
                    # a good row has one value per field, in the record's order
                    records += map(tuple.__new__, repeat(spec.record), zip(*columns))
    finally:
        if collecting:
            gc.enable()
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

    Each run of one month updates that month's dict at once. A run that
    adds fewer ids than it has records repeats one, and a walk over the
    records then names the first repeat in file order.
    """
    by_month: dict[MonthKey, dict[str, int]] = {}
    for month, run in groupby(records, _MONTH_OF):
        run = list(run)
        counts = by_month.setdefault(month, {})
        size = len(counts)
        counts.update(zip(map(_EMPLOYER_OF, run), map(_COUNT_OF, run)))
        if len(counts) - size < len(run):
            seen = set()
            for key in zip(map(_MONTH_OF, records), map(_EMPLOYER_OF, records)):
                if key in seen:
                    raise ValueError(f"duplicate record for employer {key[1]!r} in {key[0]}")
                seen.add(key)
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
    dates = [e.begin_date for e in events]
    index = np.fromiter((d.year * 12 + d.month - 1 for d in dates), np.int64, len(dates))
    start = int(index.min())
    index -= start
    first = MonthKey(start // 12, start % 12 + 1)
    counts = np.bincount(index).astype(np.float64)
    # bincount adds each month's weights in event order, as a loop would
    damage = np.bincount(index, weights=[e.damage_usd for e in events])
    return (
        MonthlySeries(first, counts, name="storm_events", units="events"),
        MonthlySeries(first, damage, name="storm_damage", units="USD"),
    )
