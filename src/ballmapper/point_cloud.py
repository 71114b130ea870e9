"""Tabular ingestion, validation and column statistics for the point cloud and
over each ball's members.

CSV dialect: RFC-4180 style, header row mandatory, UTF-8, LF or CRLF accepted
on input, always LF on output. Floats are written with the shortest
representation that round-trips (integral values drop the trailing ``.0``).
_read_table reads a file for every command: a plain one (_read_plain) by numpy's
C reader, any other by _read_streamed, which makes every refusal; load_csv is
the library's reader of any file.
"""
from __future__ import annotations

import csv
import math
import warnings
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

_CSV_BATCH = 4096  # rows csv_lines renders at a time
_CHUNK_ROWS = 4096  # rows _read_streamed parses before it reads the next
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# Bytes the plain-file reader checks at a time, and the bytes a plain file
# may hold: printable ASCII but the quote, and LF.
_BLOCK_BYTES = 1 << 18
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
# Ball membership as the per-ball statistics read it, (ids, sizes, rows): ball ids ascending,
# their intp sizes, and each ball's rows in turn, in file order; a cover gives 1..B and its own.
_Groups = tuple[np.ndarray, np.ndarray, np.ndarray]


def format_floats(values) -> list[str]:
    """The CSV text of each value in a 1-D column of floats.

    A value that is integral and below 1e16 in magnitude is written as an int
    (1.0 as "1", -0.0 as "0"); any other, NaN and infinities too, by its
    shortest round-trip repr. The rule is tested once over the column, then
    each cell costs one str or repr call.
    """
    v = np.asarray(values, dtype=float)
    integral = (np.abs(v) < 1e16) & (np.trunc(v) == v)  # False for NaN and infinities
    ints = np.where(integral, v, 0.0).astype(np.int64).tolist()
    return [str(i) if whole else repr(x)
            for i, x, whole in zip(ints, v.tolist(), integral.tolist())]


def _parse_cell(cell: str, row: int, column: str) -> float:
    """One numeric cell; NaN/inf literals count as non-numeric too."""
    text = cell.strip()
    if text == "":
        raise ValidationError(f"missing value in column {column!r} at row {row}")
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValidationError(f"non-numeric cell {cell!r} in column {column!r} at row {row}")
    return v


def _parse_column(rows: Sequence[Sequence[str]], j: int) -> np.ndarray:
    """Column j as float64, non-finite exactly where _parse_cell refuses the cell.

    float() over the whole column first. It strips only ASCII whitespace,
    where str.strip() also strips characters such as '\x1c', so every cell it
    accepts parses to the same value in _parse_cell, which refuses the NaNs
    and infinities among them. If float() refuses a cell, this column goes
    cell by cell through _parse_cell instead, a refused cell read as NaN.
    """
    try:
        return np.fromiter(map(float, map(itemgetter(j), rows)), dtype=float, count=len(rows))
    except ValueError:
        return np.fromiter(map(_cell_or_nan, map(itemgetter(j), rows)), dtype=float,
                           count=len(rows))


def _cell_or_nan(cell: str) -> float:
    """_parse_cell's value for the cell, or NaN where it refuses the cell."""
    try:
        return _parse_cell(cell, 0, "")
    except ValidationError:
        return math.nan


def _first_refused(rows: Sequence[Sequence[str]], j: int, col: np.ndarray, first_row: int = 0):
    """(cell, row) of column j's first cell that col, its parse, holds as non-finite, or None."""
    bad = np.flatnonzero(~np.isfinite(col))
    return (rows[bad[0]][j], first_row + int(bad[0])) if len(bad) else None


def _checked_column(header: tuple[str, ...], name: str, columns, bad):
    """columns[name]; refuses a name not in header, then the first refused cell, bad[name]."""
    _column_position(header, name)
    if bad.get(name) is not None:
        _parse_cell(*bad[name], name)  # raises: the cell is refused
    return columns[name]


def _held_column(raw: RawTable, name: str, rows: np.ndarray) -> np.ndarray:
    """Column name of raw as float64; refuses a missing or non-numeric cell in
    one of the rows, with the first such row in the error, and ignores the rest."""
    j = raw.column_index(name)
    col = _parse_column(raw.rows, j)
    held = np.zeros(len(col), dtype=bool)
    held[rows] = True
    bad = _first_refused(raw.rows, j, np.where(held, col, 0.0))  # the first in a held row
    return _checked_column(raw.column_names, name, {name: col}, {name: bad})


def _column_position(names: tuple[str, ...], name: str) -> int:
    """Where name sits among the column names; refuses a name not among them."""
    if name not in names:
        raise ValidationError(f"unknown column {name!r}")
    return names.index(name)


@dataclass(frozen=True)
class RawTable:
    """A CSV file as read: header names plus string cells in file order."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column_index(self, name: str) -> int:
        return _column_position(self.column_names, name)

    def numeric_column(self, name: str) -> np.ndarray:
        """Parse one column as float64, rejecting missing or non-numeric cells."""
        return _held_column(self, name, np.arange(len(self.rows)))


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Validated N x K numeric table; the space the cover is built over.

    Immutable after construction: the value array is marked read-only and
    row_ids keep the 0-based input file order (non-negative, strictly
    ascending), which all downstream determinism keys off. A cloud equals
    only itself.
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
        if np.any(np.diff(self.row_ids, prepend=-1) <= 0):
            raise ValueError("row ids must be non-negative and strictly ascending")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, _column_position(self.column_names, name)]


@dataclass(frozen=True)
class StandardizationSpec:
    """Per-column mean and sample standard deviation used to rescale."""

    columns: tuple[str, ...]
    means: tuple[float, ...]
    sds: tuple[float, ...]

    def __post_init__(self):
        if any(sd <= 0 for sd in self.sds):
            raise ValueError("standardization requires positive standard deviations")


def _checked_rows(path) -> Iterator:
    """Yield a CSV file's header names as a tuple, then each data row as a list of cells.

    The one validation path for every CSV the package reads: the header must
    be present with distinct, non-blank names (stripped), blank lines are
    skipped, and every row must have one cell per name; the file must be
    UTF-8 text (a BOM is dropped) within csv.field_size_limit(). A row's
    number in the errors is its 0-based index among the data rows.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ValidationError(f"{path}: empty file, expected a header row") from None
            if any(not h for h in header):
                raise ValidationError(f"{path}: blank header name")
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise ValidationError(f"{path}: duplicate header names {dupes}")
            yield tuple(header)
            n = 0
            for row in reader:
                if not row:  # blank line
                    continue
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path}: row {n} has {len(row)} cells, header has {len(header)}"
                    )
                yield row
                n += 1
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path) -> RawTable:
    """Read a CSV file with a mandatory header row.

    Text columns are preserved verbatim so identifier columns survive the
    round trip; numeric interpretation happens later in validate_axes.
    """
    rows = _checked_rows(path)
    header = next(rows)
    return RawTable(header, tuple(map(tuple, rows)))


class _NotPlain(Exception):
    """A file holds a line the plain-file reader does not read."""


def _plain_lines(f, limit: int) -> Iterator[list[str]]:
    """The rest of plain binary file f as non-blank lines without LF, _BLOCK_BYTES at a
    time; raises _NotPlain at the first block with a line longer than limit."""
    rest = b""
    for block in chain(iter(partial(f.read, _BLOCK_BYTES), b""), [b"\n"]):
        data = rest + block
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        lines = list(filter(None, data[:cut].decode("ascii").split("\n")))
        if len(rest) > limit or max(map(len, lines), default=0) > limit:
            raise _NotPlain
        yield lines


def _read_table(path, names: Sequence[str], merged: bool = False):
    """(header, rows, columns, bad) of a CSV file, as _read_streamed returns them:
    numpy's C reader takes a plain file, the stream any file it declines."""
    return _read_plain(path, names, merged=merged) or _read_streamed(path, names, merged=merged)


def _read_plain(path, names: Sequence[str], merged: bool = False):
    """_read_streamed's (header, rows, columns, bad) of a plain file by numpy's C reader,
    or None where it declines.

    header holds the stripped names, rows each non-blank data line without its
    LF, or a merged file's int64 'ball' ids, columns each of names' float64
    column, and bad no refused cell. Only a merged file has a 'ball' column.
    Plain means printable ASCII but '"', LF line ends, no line longer than
    csv.field_size_limit(), a header that passes every header check and one
    cell per name on each non-blank line: csv.reader's row is then the line
    split at its commas, and numpy's int64 and float64 parses agree with int()
    and float() on every cell they accept. It declines any other file, names
    that repeat, hold 'ball' or are no column, and a file where numpy raises or
    warns or a value is not finite; _read_streamed then makes any refusal.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as f:
        if any(block.translate(None, _PLAIN_BYTES)  # a byte that is not plain
               for block in iter(partial(f.read, _BLOCK_BYTES), b"")):
            return None
        f.seek(0)
        line = f.readline(limit + 1)
        if not line.endswith(b"\n"):
            return None
        header = tuple(h.strip() for h in line[:-1].decode("ascii").split(","))
        if (not all(header) or len(set(header)) != len(header) or ("ball" in header) != merged
                or len(set(names)) != len(names) or "ball" in names
                or not set(names) <= set(header)):
            return None
        fields = {**dict.fromkeys(names, np.float64), **({"ball": np.int64} if merged else {})}
        dtype = np.dtype([(h, fields.get(h, "S1")) for h in header])
        try:
            text = chain.from_iterable(_plain_lines(f, limit))
            lines = None if merged else list(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # such as numpy's warning for no data rows
                table = np.loadtxt(text if merged else lines, dtype=dtype, delimiter=",",
                                   comments=None, ndmin=1)
        except (_NotPlain, ValueError, OverflowError, Warning):
            return None
    columns = {name: table[name] for name in names}
    if not all(np.isfinite(column).all() for column in columns.values()):
        return None
    return header, table["ball"] if merged else lines, columns, {}


def _is_int64(cell: str) -> bool:
    try:
        return _INT64_MIN <= int(cell) <= _INT64_MAX
    except ValueError:
        return False


def _ball_ids(cells: Sequence[str], first_row: int = 0) -> np.ndarray:
    """The cells as int64 ball ids; refuses the first that is not one, by its merged row."""
    try:
        return np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    except (ValueError, OverflowError):
        i = next(i for i, cell in enumerate(cells) if not _is_int64(cell))
        raise ValidationError(f"bad ball id {cells[i]!r} at merged row {first_row + i}") from None


def _read_streamed(path, names: Sequence[str], merged: bool = False):
    """(header, rows, columns, bad) of any CSV file, read _CHUNK_ROWS rows at a time.

    rows holds each row's text (as _row_texts gives it) or a merged file's
    int64 ball ids; columns each of names that the header has as float64, NaN
    where _parse_cell refuses a cell; bad each such column's first refused
    (cell, row) or None. Only these outlive a chunk's text. The rows are
    checked as load_csv checks them. A merged file is refused for no 'ball'
    column or a name that is no column before any row is read, and for no
    rows or a bad ball id after; any other file for a 'ball' column after its
    last row.
    """
    with closing(_checked_rows(path)) as reader:  # closes the file on an early refusal
        header = next(reader)
        if merged:
            if "ball" not in header:
                raise ValidationError("merged table has no 'ball' column")
            for name in names:
                _column_position(header, name)
        cols = {name: header.index(name) for name in names if name in header}
        rows: list = []
        values = {name: [np.empty(0)] for name in cols}  # an empty column if no row
        bad = dict.fromkeys(cols)
        bad_id = None  # the refusal of a merged file's first bad ball id
        n = 0
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            if not merged:
                rows += _row_texts(chunk)
            else:
                try:
                    rows.append(_ball_ids(list(map(itemgetter(header.index("ball")), chunk)), n))
                except ValidationError as exc:
                    bad_id = bad_id or exc
            for name, j in cols.items():
                values[name].append(_parse_column(chunk, j))
                bad[name] = bad[name] or _first_refused(chunk, j, values[name][-1], n)
            n += len(chunk)
            del chunk  # so that two chunks of text are never held at once
    if merged and not n:
        raise ValidationError("merged table has no rows")
    if not merged and "ball" in header:
        raise ValidationError("input column 'ball' would clash with the merged CSV's ball column")
    if bad_id is not None:
        raise bad_id
    columns = {name: np.concatenate(chunks) for name, chunks in values.items()}
    return header, np.concatenate(rows) if merged else rows, columns, bad


def distinct_names(names: Sequence[str], what: str) -> tuple[str, ...]:
    """The names as a tuple; refuses an empty selection and a repeated name."""
    names = tuple(names)
    if not names:
        raise ValidationError(f"at least one {what} is required")
    repeated = [n for n in names if names.count(n) > 1]
    if repeated:
        raise ValidationError(f"{what} {repeated[0]!r} is given more than once")
    return names


def _checked_axes(header: tuple[str, ...], selection: Sequence[str], columns, bad):
    """The axes of selection and their columns as an N x K array. Refuses no axis, a
    repeated axis, an axis that is no column of header, no rows, then the axes' first
    refused cell, bad[axis] = (cell, row), in row-major order (axes in the given order)."""
    axes = distinct_names(selection, "axis column")
    for a in axes:
        _column_position(header, a)
    if not len(columns[axes[0]]):
        raise ValidationError("the table has no data rows")
    refused = [(bad[a][1], k) for k, a in enumerate(axes) if bad.get(a) is not None]
    if refused:  # the lowest row, then the first axis on it: _checked_column raises
        _checked_column(header, axes[min(refused)[1]], columns, bad)
    return axes, np.column_stack([columns[a] for a in axes])


def validate_axes(
    raw: RawTable,
    selection: Sequence[str],
    drop_missing: bool = False,
) -> tuple[PointCloud, tuple[int, ...]]:
    """Build the numeric point cloud over the axis columns.

    Returns the cloud plus the ids of any rows removed. Each axis column is
    parsed once. A missing or non-numeric cell is an error for the first such
    cell in row-major order (axes in the given order), unless drop_missing is
    set: then every row holding one is dropped and its id returned.
    """
    cols = {a: raw.column_index(a) for a in selection if a in raw.column_names}
    columns = {a: _parse_column(raw.rows, j) for a, j in cols.items()}
    bad = {} if drop_missing else {
        a: _first_refused(raw.rows, j, columns[a]) for a, j in cols.items()}
    axes, values = _checked_axes(raw.column_names, selection, columns, bad)
    bad_rows = ~np.isfinite(values).all(axis=1)
    keep = np.flatnonzero(~bad_rows)
    if not len(keep):
        raise ValidationError("no rows remain after dropping rows with missing values")
    cloud = PointCloud(axes, values[keep], tuple(keep.tolist()))
    return cloud, tuple(np.flatnonzero(bad_rows).tolist())


def standardize(
    cloud: PointCloud, columns: Sequence[str] | None = None
) -> tuple[PointCloud, StandardizationSpec]:
    """Rescale columns to zero mean and unit sample sd (divisor N-1)."""
    names = tuple(columns) if columns is not None else cloud.column_names
    out = np.array(cloud.values)
    means = []
    sds = []
    for name in names:
        j = _column_position(cloud.column_names, name)
        col = out[:, j]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            mean = float(col.mean())
            sd = float(col.std(ddof=1)) if cloud.n > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise ValidationError(f"the mean or sd of column {name!r} overflows float64")
        if sd <= 0.0:
            raise ValidationError(f"column {name!r} has zero variance")
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


def _groups(balls: np.ndarray) -> _Groups:
    """(ids, sizes, rows) of a non-empty ball id column: the distinct ids ascending,
    their counts, and the row indices ball after ball, each ball's in file order."""
    rows = np.argsort(balls, kind="stable")
    ordered = balls[rows]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return ordered[starts], np.diff(starts, append=len(rows)), rows


def _by_size(sizes: np.ndarray, rows: np.ndarray):
    """Per distinct ball size, ascending, the positions `at` of its balls and
    their members, from each ball's rows in turn, as one (balls x size) array."""
    starts = np.cumsum(sizes) - sizes
    for size in sorted(set(sizes.tolist())):  # np.unique(sizes) would import numpy.ma
        at = np.flatnonzero(sizes == size)
        yield at, rows[starts[at][:, None] + np.arange(size)]


def _ball_means(sizes: np.ndarray, rows: np.ndarray, cols: Sequence[np.ndarray]) -> np.ndarray:
    """The mean of each column over each ball's rows, as a (columns x balls)
    array; a mean that overflows is left as inf or nan for the caller to refuse.

    Each gather col[members] is C-contiguous, so .mean(axis=1) sums each row
    pairwise exactly as .mean() sums the ball's members alone; a gather that
    is not, such as block[:, idx] of a V x N block, or np.add.reduceat sums
    in another order and changes the last bits.
    """
    means = np.empty((len(cols), len(sizes)))
    with np.errstate(over="ignore", invalid="ignore"):
        for at, members in _by_size(sizes, rows):  # the blocks are built once for all columns
            for k, col in enumerate(cols):
                means[k, at] = col[members].mean(axis=1)
    return means


def csv_lines(rows: Iterable[Iterable]) -> Iterator[str]:
    """Each row as one CSV line ending in LF, rendered _CSV_BATCH rows at a time.

    csv.writer's minimal quoting leaves a cell bare unless it holds the
    delimiter, the quote or a line break, and writes a row that is one empty
    cell as "". So a batch whose rows all have two or more str cells, none
    holding ',', '"', CR, LF or NUL, is written by joining its cells with ','
    and its rows with LF, which gives csv.writer's very bytes. The joined text
    shows it: no '"', CR or NUL, one LF fewer than the batch has rows, and
    one comma fewer per row than the row has cells.

    Any other batch, such as one holding an int cell, a row of fewer than two
    cells or a cell that needs quotes, is rendered by csv.writer with CRLF,
    and each line's CRLF is cut to LF. csv quotes a cell that holds a
    character of its line terminator, and on some Pythons no other line
    break, so with LF alone a cell holding a lone CR would be written bare
    and read back as two rows. csv.writer hands write() one whole row, quoted
    newlines included. NUL is left to csv.writer, which refuses it on 3.10.
    """
    rows = iter(rows)
    while batch := list(islice(rows, _CSV_BATCH)):
        try:
            text = "\n".join(map(",".join, batch)) if min(map(len, batch)) > 1 else None
        except TypeError:  # a cell that is not a str, or a row without a length
            text = None
        if (text is not None and '"' not in text and "\r" not in text and "\0" not in text
                and text.count("\n") == len(batch) - 1
                and text.count(",") == sum(map(len, batch)) - len(batch)):
            yield from [line + "\n" for line in text.split("\n")]
        else:
            lines: list[str] = []
            csv.writer(SimpleNamespace(write=lines.append),
                       lineterminator="\r\n").writerows(batch)
            yield from [line[:-2] + "\n" for line in lines]


def _row_texts(rows: Iterable[Sequence[str]]) -> list[str]:
    """Each row's text in a merged CSV line, after its ball cell: csv_lines'
    line of an empty cell and the row, less its first comma and LF."""
    return [line[1:-1] for line in csv_lines(("", *row) for row in rows)]


def write_cells(path, column_names: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write CSV with LF line endings, each cell a string or a Python int.

    Rows go through csv_lines, so a batch of rows of two or more plain str
    cells is joined, and a batch holding an int cell, a one-cell row or a cell
    that needs quotes is rendered by csv.writer.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.writelines(csv_lines(chain([list(column_names)], rows)))


def write_point_cloud_csv(cloud: PointCloud, path) -> None:
    write_cells(path, cloud.column_names, zip(*map(format_floats, cloud.values.T)))
