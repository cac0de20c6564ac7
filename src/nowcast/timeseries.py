"""Month-indexed series and tables used by every other module.

All types are immutable after construction and therefore safe to share
across threads. Values are 64-bit floats throughout; gaps in a monthly
index are construction-time errors, never silently interpolated.
A slice, window or ``with_target`` of a valid object is not validated again:
its arrays are read-only views that share memory with the parent's. A
table keeps its columns in one months x columns block, so a slice is one
row range of it, whatever the number of columns, and ``matrix`` is one
gather from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyIntersectionError, NonFiniteError, OutOfRangeError
from .ledger import TransformLedger


@dataclass(frozen=True, order=True)
class MonthKey:
    """A Gregorian calendar month of years 0..9999. Ordering is (year, month) lexicographic."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")
        if not 0 <= self.year <= 9999:
            raise ValueError(f"year must be in 0..9999, got {self.year}")

    @classmethod
    def parse(cls, text: str) -> "MonthKey":
        """Parse ``YYYY-MM`` in ASCII digits, surrounding whitespace allowed."""
        s = text.strip()
        if len(s) != 7 or s[4] != "-" or not (s[:4] + s[5:]).isdigit() or not s.isascii():
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(s[:4]), int(s[5:]))

    def shift(self, months: int) -> "MonthKey":
        """The month ``months`` steps after this one (negative steps back)."""
        total = self.year * 12 + (self.month - 1) + months
        year, rem = divmod(total, 12)
        return MonthKey(year, rem + 1)

    def __sub__(self, other: "MonthKey") -> int:
        """Number of months from ``other`` to ``self``."""
        if not isinstance(other, MonthKey):
            return NotImplemented
        return (self.year - other.year) * 12 + (self.month - other.month)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def _trusted_replace(obj, **changes):
    """``dataclasses.replace`` without ``__post_init__``, for changes that keep ``obj`` valid."""
    new = object.__new__(type(obj))
    new.__dict__.update(vars(obj), **changes)
    return new


def _read_only(values, dtype=np.float64) -> np.ndarray:
    """A copy of ``values`` over an immutable ``bytes`` buffer: neither it
    nor any array reached through its ``.base`` can be made writeable."""
    arr = np.asarray(values, dtype)
    return np.frombuffer(arr.tobytes(), dtype).reshape(arr.shape)


def _finite(values: Iterable[float], what: str = "values") -> np.ndarray:
    """``values`` as a one-dimensional float64 array of finite values;
    ``what`` names them in a :class:`NonFiniteError`."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} contain NaN or infinite entries")
    return arr


@dataclass(frozen=True, eq=False)
class MonthlySeries:
    """A contiguous month-indexed sequence of finite real values.

    Index ``i`` maps to ``start + i``; there are no gaps by construction.
    """

    start: MonthKey
    values: np.ndarray
    name: str = ""
    units: str = ""

    def __post_init__(self) -> None:
        arr = _read_only(_finite(self.values))
        if arr.size == 0:
            raise ValueError("a MonthlySeries must contain at least one value")
        self.start.shift(arr.size - 1)  # a last month past 9999-12 raises ValueError
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end(self) -> MonthKey:
        """Last month covered (inclusive)."""
        return self.start.shift(len(self) - 1)

    def months(self) -> tuple[MonthKey, ...]:
        return tuple(self.start.shift(i) for i in range(len(self)))

    def index_of(self, month: MonthKey) -> int:
        i = month - self.start
        if not 0 <= i < len(self):
            raise OutOfRangeError(
                f"{month} outside series range {self.start}..{self.end}"
            )
        return i

    def value_at(self, month: MonthKey) -> float:
        return float(self.values[self.index_of(month)])

    def window(self, first: MonthKey, last: MonthKey) -> "MonthlySeries":
        """Sub-series covering [first, last] inclusive, as a read-only view."""
        if first > last:
            raise OutOfRangeError(f"inverted window {first}..{last}")
        lo, hi = self.index_of(first), self.index_of(last)
        return _trusted_replace(self, start=first, values=self.values[lo : hi + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonthlySeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.name == other.name
            and self.units == other.units
            and np.array_equal(self.values, other.values)
        )


class _Columns(Mapping):
    """A table's columns by name, over its read-only months x columns block.

    Membership, ``len`` and iteration read the names alone. The view of a
    column is made from the block when that column is first asked for and
    kept, so asking again gives the same array. The columns a table's
    constructor made are their own ``whole``: they hold each column's
    largest magnitude over all rows (``largest``, for ``extratrees.fit``)
    and the feature names per target. A slice of the table is a new
    mapping over a row range of the block with the same ``whole``.
    """

    __slots__ = ("block", "index", "whole", "largest", "_views", "_names")

    def __init__(self, block: np.ndarray, index: Mapping[str, int], whole: _Columns | None = None):
        self.block, self.index, self._views = block, index, {}
        if whole is None:  # no block-sized temporary, as np.abs(block) would make
            whole, self._names = self, {}
            self.largest = np.maximum(block.max(axis=0), -block.min(axis=0)).tolist()
        self.whole = whole

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            # setdefault keeps the first view made, should two threads race
            view = self._views.setdefault(name, self.block[:, self.index[name]])
        return view

    def __contains__(self, name: object) -> bool:
        return name in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Month-aligned named columns, an optional target column, and a ledger.

    Every column has exactly one value per month; months are strictly
    increasing and contiguous. The columns are stored as one read-only,
    C-contiguous months x columns block, and ``columns[name]`` is a view
    of one of its columns, made when that column is first asked for. A
    slice shares the block: it keeps a row range of it and the column
    names, and builds no column view.
    """

    months: tuple[MonthKey, ...]
    columns: Mapping[str, np.ndarray]
    target: str | None = None
    ledger: TransformLedger = field(default_factory=TransformLedger)

    def __post_init__(self) -> None:
        months = tuple(self.months)
        if not months:
            raise ValueError("a FeatureTable must cover at least one month")
        if not all(isinstance(m, MonthKey) for m in months):
            raise ValueError("months must be MonthKey values")
        gaps = np.flatnonzero(np.diff([m.year * 12 + m.month for m in months]) != 1)
        if gaps.size:
            prev, cur = months[gaps[0]], months[gaps[0] + 1]
            raise ValueError(f"months must be contiguous; gap between {prev} and {cur}")
        if not self.columns:
            raise ValueError("a FeatureTable must have at least one column")
        checked = []
        for name, values in self.columns.items():
            arr = _finite(values, f"column {name!r} values")
            if arr.size != len(months):
                raise ValueError(
                    f"column {name!r} has {arr.size} values for {len(months)} months"
                )
            checked.append(arr)
        index = {name: j for j, name in enumerate(self.columns)}
        if self.target is not None and self.target not in index:
            raise ValueError(f"target {self.target!r} is not a column")
        object.__setattr__(self, "months", months)
        block = _read_only(np.column_stack(checked))
        object.__setattr__(self, "columns", _Columns(block, index))

    def __len__(self) -> int:
        return len(self.months)

    @property
    def start(self) -> MonthKey:
        return self.months[0]

    @property
    def end(self) -> MonthKey:
        return self.months[-1]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Column names excluding the target, in table order."""
        names = self.columns.whole._names  # one tuple per target, for all slices
        if self.target not in names:
            names[self.target] = tuple(name for name in self.columns if name != self.target)
        return names[self.target]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def target_values(self) -> np.ndarray:
        if self.target is None:
            raise ValueError("table has no target column set")
        return self.columns[self.target]

    def target_series(self) -> MonthlySeries:
        return MonthlySeries(self.start, self.target_values(), name=self.target or "")

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """The named columns as a new C-contiguous (n_rows, len(names)) array;
        a name that is not a column raises ``KeyError``."""
        index = self.columns.index
        return self.columns.block.take([index[name] for name in names], axis=1)

    def with_target(self, target: str) -> "FeatureTable":
        """Same table, sharing its columns, with the target set to ``target``."""
        if target is not None and target not in self.columns:
            raise ValueError(f"target {target!r} is not a column")
        return _trusted_replace(self, target=target)

    def slice(self, first: MonthKey, last: MonthKey) -> "FeatureTable":
        """Rows restricted to [first, last] inclusive, as read-only views; same
        ledger. Its cost does not grow with the number of columns."""
        if first > last:
            raise OutOfRangeError(f"inverted bounds {first}..{last}")
        if first < self.start or last > self.end:
            raise OutOfRangeError(
                f"requested {first}..{last} outside table range {self.start}..{self.end}"
            )
        rows = slice(first - self.start, last - self.start + 1)
        columns = _Columns(self.columns.block[rows], self.columns.index, self.columns.whole)
        return _trusted_replace(self, months=self.months[rows], columns=columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureTable):
            return NotImplemented
        return (
            self.months == other.months
            and self.target == other.target
            and self.ledger == other.ledger
            and self.column_names == other.column_names
            and all(np.array_equal(self.columns[n], other.columns[n]) for n in self.columns)
        )


def align(series_list: Sequence[MonthlySeries]) -> FeatureTable:
    """Join series on the intersection of their month ranges.

    Each series becomes one column named after the series; the resulting
    ledger is empty. Raises :class:`EmptyIntersectionError` when the ranges
    share no months.
    """
    if not series_list:
        raise ValueError("align requires at least one series")
    names = [s.name for s in series_list]
    if any(not n for n in names):
        raise ValueError("every series needs a non-empty name to become a column")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate series names: {names}")
    first = max(s.start for s in series_list)
    last = min(s.end for s in series_list)
    if first > last:
        raise EmptyIntersectionError("series share no common months")
    n = last - first + 1
    months = tuple(first.shift(i) for i in range(n))
    cols = {}
    for s in series_list:
        lo = first - s.start
        cols[s.name] = s.values[lo : lo + n]
    return FeatureTable(months, cols)
