"""The row scan as it was before rows took a fast path, kept as an oracle.

``reference_scan`` is the per-cell scan that built every row's findings
list; ``reference_validate`` and ``reference_read`` are ``validate`` and
the strict readers' ``_read`` on top of it. The tests check that the
production scan gives the same findings, in the same order, and the same
records or error on every file.
"""

from array import array
from typing import Iterator

from nowcast.errors import MalformedFileError, UnreadableFileError
from nowcast.ingest import (
    SCHEMAS,
    Finding,
    Schema,
    ValidationReport,
    _BadCell,
    _date,
    _month,
    _outliers,
    _rows,
)


def reference_scan(path, spec: Schema) -> Iterator[tuple[int, list | None, list[Finding]]]:
    """Yield ``(line, values, findings)`` for each data row, in file order.

    ``values`` are the row's cells parsed in header order, ``None`` where a
    cell is bad, or ``None`` as a whole for a wrong field count and for the
    file-level findings: a wrong header (which ends the scan), no data rows.
    Rows are read one at a time, and the file is always read to its end, so
    a failure to read any part of it raises ``UnreadableFileError`` however
    the consumer treats the findings before it.
    """
    rows = _rows(path)
    header = next(rows, None)
    if header is None:
        raise UnreadableFileError(f"{path} is empty (missing header)")
    if tuple(header) != spec.header:
        for _ in rows:  # a read failure further on still wins
            pass
        got = f"expected {','.join(spec.header)!r}, got {','.join(header)!r}"
        yield 1, None, [Finding("<header>", 1, "header_mismatch", "error", got)]
        return
    width = len(spec.header)
    index = {name: i for i, name in enumerate(spec.header)}
    cells = []
    for c in spec.columns:
        # a file repeats few month and date texts, and they are dear to parse
        memo = {} if c.parse in (_month, _date) else None
        share = c.parse is str or c.name in spec.unique
        cells.append((c.name, index[c.name], c.parse, c.required, c.minimum, memo, share))
    # one object per distinct text of the text and key columns, which the
    # records and ``seen`` then share
    shared: dict[str, str] = {}
    key = [index[name] for name in spec.unique]
    # the line that first had each key, nested one dict per key column so
    # that no row leaves a key tuple behind
    seen: dict = {}
    ordered = (spec.increasing, spec.contiguous, spec.saturdays)
    increasing, contiguous, saturdays = map(index.get, ordered)
    last_increasing = last_contiguous = None
    line = 1
    for line, row in enumerate(rows, 2):
        if len(row) != width:
            message = f"expected {width} fields, got {len(row)}"
            yield line, None, [Finding("<row>", line, "field_count", "error", message)]
            continue
        values: list = [None] * width
        found: list[Finding] = []
        for name, i, parse, required, minimum, memo, share in cells:
            text = row[i].strip()
            if share:
                text = shared.setdefault(text, text)
            row[i] = text  # in place: the key below reads the stripped texts
            try:
                if not text and required:
                    raise _BadCell("missing_value", "cell is empty")
                if memo is None:
                    value = parse(text)
                elif (value := memo.get(text)) is None:
                    value = memo[text] = parse(text)
                if minimum is not None and value < minimum:
                    raise _BadCell("out_of_range", f"value {float(value)} below {minimum}")
            except _BadCell as bad:
                found.append(Finding(name, line, bad.args[0], "error", bad.args[1]))
            else:
                values[i] = value
        if key and values[key[0]] is not None:
            *outer, last = texts = [row[i] for i in key]
            level = seen
            for text in outer:
                if (inner := level.get(text)) is None:
                    inner = level[text] = {}
                level = inner
            first = level.setdefault(last, line)
            if first != line:
                repeat = spec.duplicate.format(*texts)
                message = f"{repeat} (first at line {first})"
                found.append(Finding(spec.unique[0], line, "duplicate", "error", message))
        if increasing is not None and (value := values[increasing]) is not None:
            if last_increasing is not None and value <= last_increasing:
                message = f"{value} not after {last_increasing}"
                found.append(Finding(spec.increasing, line, "ordering", "error", message))
            last_increasing = value
        if contiguous is not None and (value := values[contiguous]) is not None:
            if last_contiguous is not None and value - last_contiguous != 1:
                message = f"{value} does not immediately follow {last_contiguous}"
                found.append(Finding(spec.contiguous, line, "gap", "error", message))
            last_contiguous = value
        if saturdays is not None and (value := values[saturdays]) is not None:
            if value.weekday() != 5:
                message = f"{value} is not a Saturday"
                found.append(Finding(spec.saturdays, line, "convention", "warning", message))
        yield line, values, found
    if spec.needs_rows and line == 1:
        yield 1, None, [Finding("<file>", 1, "no_data", "error", "no data rows")]


def reference_validate(path, schema: str) -> ValidationReport:
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
    for line, values, found in reference_scan(path, spec):
        findings += found
        for _, i, lines, numbers in watched if values else ():
            if (value := values[i]) is not None:
                lines.append(line)
                numbers.append(value)
    # a column's outliers follow those of the columns with an earlier first good value
    columns = [(name, lines, numbers) for name, _, lines, numbers in watched if lines]
    columns.sort(key=lambda c: c[1][0])
    findings += _outliers(columns)
    return ValidationReport(schema, str(path), tuple(findings))


def reference_read(path, spec: Schema) -> list:
    """Every row of a file as ``spec.record``; raises on the scan's first error.

    The rest of the file is still scanned, so that a failure to read it
    raises ``UnreadableFileError`` instead.
    """
    records = []
    error = None
    for _, values, found in reference_scan(path, spec):
        if error is not None:
            continue
        for f in found:
            if f.severity == "error":
                error = f
                break
        else:
            records.append(spec.record(*values))
    if error is not None:
        raise MalformedFileError(f"{path}:{error.row}: {error.column}: {error.message}")
    return records
