"""Tabular ingestion, validation and column statistics for the point cloud.

CSV dialect: RFC-4180 style, header row mandatory, UTF-8, LF or CRLF accepted
on input, always LF on output. Floats are written with the shortest
representation that round-trips (integral values drop the trailing ``.0``).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    EmptyAfterDropError,
    MissingValueError,
    NonNumericError,
    UnknownVariableError,
    ValidationError,
    ZeroVarianceError,
)


def format_value(x) -> str:
    """Render a cell for CSV output; floats use shortest round-trip form."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _parse_cell(cell: str, row: int, column: str) -> float:
    """One numeric cell; NaN/inf literals count as non-numeric too."""
    text = cell.strip()
    if text == "":
        raise MissingValueError(row, column)
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise NonNumericError(row, column, cell)
    return v


@dataclass(frozen=True)
class RawTable:
    """A CSV file as read: header names plus string cells in file order."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise UnknownVariableError(name) from None

    def numeric_column(self, name: str) -> np.ndarray:
        """Parse one column as float64, rejecting missing or non-numeric cells."""
        j = self.column_index(name)
        return np.array([_parse_cell(r[j], i, name) for i, r in enumerate(self.rows)])


@dataclass(frozen=True)
class PointCloud:
    """Validated N x K numeric table; the space the cover is built over.

    Immutable after construction: the value array is marked read-only and
    row_ids keep the 0-based input file order, which all downstream
    determinism keys off.
    """

    column_names: tuple[str, ...]
    values: np.ndarray
    row_ids: tuple[int, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("point cloud requires an N x K table with N, K >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("point cloud cells must all be finite")
        names = self.column_names
        if len(names) != vals.shape[1]:
            raise ValueError("column name count does not match table width")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("column names must be unique and non-empty")
        if len(self.row_ids) != vals.shape[0]:
            raise ValueError("row id count does not match table height")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        if name not in self.column_names:
            raise UnknownVariableError(name)
        return self.values[:, self.column_names.index(name)]


@dataclass(frozen=True)
class StandardizationSpec:
    """Per-column mean and sample standard deviation used to rescale."""

    columns: tuple[str, ...]
    means: tuple[float, ...]
    sds: tuple[float, ...]

    def __post_init__(self):
        if any(sd <= 0 for sd in self.sds):
            raise ValueError("standardization requires positive standard deviations")


def load_csv(path) -> RawTable:
    """Read a CSV file with a mandatory header row.

    Text columns are preserved verbatim so identifier columns survive the
    round trip; numeric interpretation happens later in validate_axes.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        if any(not h for h in header):
            raise CsvFormatError(f"{path}: blank header name")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise CsvFormatError(f"{path}: duplicate header names {dupes}")
        rows = []
        for row in reader:
            if not row:  # blank line
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {len(rows)} has {len(row)} cells, header has {len(header)}"
                )
            rows.append(tuple(row))
    return RawTable(tuple(header), tuple(rows))


def distinct_names(names: Sequence[str], what: str) -> tuple[str, ...]:
    """The names as a tuple; refuses an empty selection and a repeated name."""
    names = tuple(names)
    if not names:
        raise ValidationError(f"at least one {what} is required")
    repeated = [n for n in names if names.count(n) > 1]
    if repeated:
        raise ValidationError(f"{what} {repeated[0]!r} is given more than once")
    return names


def validate_axes(
    raw: RawTable,
    selection: Sequence[str],
    drop_missing: bool = False,
) -> tuple[PointCloud, tuple[int, ...]]:
    """Build the numeric point cloud over the axis columns.

    Returns the cloud plus the ids of any rows removed. Rows with missing or
    non-numeric axis cells are a hard error unless drop_missing is set, in
    which case they are dropped and reported via the second return value.
    """
    axes = distinct_names(selection, "axis column")
    cols = [raw.column_index(a) for a in axes]

    values = []
    keep = []
    dropped = []
    for i, row in enumerate(raw.rows):
        try:  # cells parse left to right, so the first bad one in row-major order raises
            values.append([_parse_cell(row[j], i, a) for j, a in zip(cols, axes)])
        except (MissingValueError, NonNumericError):
            if not drop_missing:
                raise
            dropped.append(i)
        else:
            keep.append(i)
    if not keep:
        raise EmptyAfterDropError()

    cloud = PointCloud(axes, np.array(values), tuple(keep))
    return cloud, tuple(dropped)


def standardize(
    cloud: PointCloud, columns: Sequence[str] | None = None
) -> tuple[PointCloud, StandardizationSpec]:
    """Rescale columns to zero mean and unit sample sd (divisor N-1)."""
    names = tuple(columns) if columns is not None else cloud.column_names
    out = np.array(cloud.values)
    means = []
    sds = []
    for name in names:
        if name not in cloud.column_names:
            raise UnknownVariableError(name)
        j = cloud.column_names.index(name)
        col = out[:, j]
        mean = float(col.mean())
        if cloud.n < 2:
            raise ZeroVarianceError(name)
        sd = float(col.std(ddof=1))
        if sd <= 0.0:
            raise ZeroVarianceError(name)
        out[:, j] = (col - mean) / sd
        means.append(mean)
        sds.append(sd)
    spec = StandardizationSpec(names, tuple(means), tuple(sds))
    return PointCloud(cloud.column_names, out, cloud.row_ids), spec


def euclidean_distance(a, b) -> float:
    """L2 distance between two equal-dimension points."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.dot(d, d)))


def correlation_matrix(cloud: PointCloud) -> np.ndarray:
    """Pearson correlations of all columns; exactly 1 on the diagonal, bitwise symmetric."""
    z = standardize(cloud)[0].values  # rejects zero-variance columns
    k = cloud.k
    m = np.empty((k, k))
    for i in range(k):
        m[i, i] = 1.0
        for j in range(i + 1, k):
            r = float(np.dot(z[:, i], z[:, j]) / (cloud.n - 1))
            r = min(1.0, max(-1.0, r))
            m[i, j] = r
            m[j, i] = r
    return m


def write_csv(path, column_names: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write CSV with LF line endings and round-trip float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(list(column_names))
        for row in rows:
            writer.writerow([format_value(c) for c in row])


def write_point_cloud_csv(cloud: PointCloud, path) -> None:
    write_csv(path, cloud.column_names, cloud.values)
