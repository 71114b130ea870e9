"""Per-ball summary tables: means across variables, or one variable in depth.

Points belonging to several balls contribute fully to every containing ball,
so ball sizes sum to at least N. The quantile convention is the averaging /
order-statistic rule (see quantile); the sample sd of a single observation is
undefined and serializes as an empty CSV field, never 0.
"""
from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .cover import BallCover
from .errors import ValidationError
from .point_cloud import RawTable, _checked_rows, _column_position, _parse_cell, _parse_column
from .point_cloud import distinct_names, write_csv

_INTEGRAL_TOL = 1e-9
# Rows a merged-CSV reader parses at a time; each chunk's text is dropped
# once its ball ids and columns are parsed.
_CHUNK_ROWS = 4096
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def quantile(values: Sequence[float], p: float) -> float:
    """p-th percentile of ascending values, p in (0, 100).

    With h = n * p / 100: if h is an integer, the result is the average of the
    h-th and (h+1)-th order statistics; otherwise it is the ceil(h)-th order
    statistic.
    """
    n = len(values)
    if n == 0:
        raise ValueError("quantile of empty input")
    if not 0 < p < 100:
        raise ValueError("p must lie strictly between 0 and 100")
    h = n * p / 100.0
    rounded = round(h)
    if abs(h - rounded) < _INTEGRAL_TOL and rounded >= 1:
        if rounded >= n:
            return float(values[-1])
        a, b = float(values[rounded - 1]), float(values[rounded])
        mid = (a + b) / 2.0
        # halving first cannot overflow, but rounds subnormals: 5e-324 twice gives 0
        return a / 2.0 + b / 2.0 if math.isinf(mid) else mid
    return float(values[math.ceil(h) - 1])


@dataclass(frozen=True)
class BallMeansRow:
    ball: int
    means: tuple[float, ...]
    size: int


@dataclass(frozen=True)
class BallMeansTable:
    """One row per ball: the mean of each requested variable plus ball size."""

    variables: tuple[str, ...]
    rows: tuple[BallMeansRow, ...]

    def write(self, path) -> None:
        header = ("ball",) + self.variables + ("size",)
        write_csv(path, header, [(r.ball, *r.means, r.size) for r in self.rows])


@dataclass(frozen=True)
class BallDistributionRow:
    ball: int
    mean: float
    sd: float | None
    min: float
    q25: float
    q50: float
    q75: float
    max: float
    size: int


@dataclass(frozen=True)
class BallDistributionTable:
    """One row per ball: full distribution of a single variable."""

    variable: str
    rows: tuple[BallDistributionRow, ...]

    def write(self, path) -> None:
        header = ("ball", "mean", "sd", "min", "q25", "q50", "q75", "max", "size")
        write_csv(
            path,
            header,
            [
                (
                    r.ball,
                    r.mean,
                    "" if r.sd is None else r.sd,
                    r.min,
                    r.q25,
                    r.q50,
                    r.q75,
                    r.max,
                    r.size,
                )
                for r in self.rows
            ],
        )


def _finite(value: float, stat: str, variable: str, ball: int) -> float:
    """The value, unless a float64 overflow made it inf or nan."""
    if not math.isfinite(value):
        raise ValidationError(f"the {stat} of {variable!r} in ball {ball} overflows float64")
    return value


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


def _groups(balls: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices per ball id, each group in file order."""
    order = np.argsort(balls, kind="stable")
    ids, starts = np.unique(balls[order], return_index=True)
    return dict(zip(ids.tolist(), np.split(order, starts[1:])))


def ball_groups_from_merged(raw: RawTable) -> dict[int, np.ndarray]:
    """Recover ball membership (row indices per ball id, in file order) from a merged CSV."""
    if "ball" not in raw.column_names:
        raise ValidationError("merged table has no 'ball' column")
    if not raw.rows:
        raise ValidationError("merged table has no rows")
    return _groups(_ball_ids(list(map(itemgetter(raw.column_index("ball")), raw.rows))))


def _read_merged(
    path, names: Sequence[str]
) -> tuple[dict[int, np.ndarray], dict[str, np.ndarray]]:
    """The ball groups and the named columns, as float64, of a merged CSV file.

    The rows are read _CHUNK_ROWS at a time, and each chunk is parsed into
    int64 ball ids and float64 columns before the next is read, so only
    those arrays outlive its text. The result and every refusal are those of
    ball_groups_from_merged and _held_column on load_csv's table, where every
    row is held, except that the header's checks (a 'ball' column, each name
    a column) come before any row is read. The first bad ball id and each
    column's first refused cell are kept and raised once all rows are read.
    """
    with closing(_checked_rows(path)) as rows:  # closes the file on an early refusal
        header = next(rows)
        if "ball" not in header:
            raise ValidationError("merged table has no 'ball' column")
        ball_j = header.index("ball")
        cols = [_column_position(header, name) for name in names]
        ids: list[np.ndarray] = []
        values: list[list[np.ndarray]] = [[] for _ in cols]
        bad_id = None  # the refusal of the first bad ball id
        bad_cells: list = [None] * len(cols)  # (cell, row) of each column's first refused cell
        n = 0
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            try:
                ids.append(_ball_ids(list(map(itemgetter(ball_j), chunk)), n))
            except ValidationError as exc:
                bad_id = bad_id or exc
            for k, j in enumerate(cols):
                values[k].append(_parse_column(chunk, j))
                bad = np.flatnonzero(~np.isfinite(values[k][-1]))
                if len(bad) and bad_cells[k] is None:
                    bad_cells[k] = (chunk[bad[0]][j], n + int(bad[0]))
            n += len(chunk)
            del chunk  # so that two chunks of text are never held at once
    if not n:
        raise ValidationError("merged table has no rows")
    if bad_id is not None:
        raise bad_id
    for name, bad in zip(names, bad_cells):
        if bad is not None:
            _parse_cell(*bad, name)  # raises: the cell is refused
    return _groups(np.concatenate(ids)), {
        name: np.concatenate(chunks) for name, chunks in zip(names, values)
    }


def _held_column(raw: RawTable, name: str, groups: Mapping[int, Sequence[int]]) -> np.ndarray:
    """Column name as float64; refuses a missing or non-numeric cell that some
    group holds, with the first such row in the error, and ignores the rest."""
    j = raw.column_index(name)
    col = _parse_column(raw.rows, j)
    bad = np.flatnonzero(~np.isfinite(col))
    if len(bad):
        held = np.zeros(len(col), dtype=bool)
        for idx in groups.values():
            held[np.asarray(idx, dtype=np.intp)] = True
        bad = bad[held[bad]]
        if len(bad):
            _parse_cell(raw.rows[bad[0]][j], int(bad[0]), name)  # raises: the cell is refused
    return col


def _mean_variables(variables: Sequence[str]) -> tuple[str, ...]:
    """The variables of a means table; refuses none, a repeat, and 'ball' or 'size'."""
    variables = distinct_names(variables, "variable")
    for v in variables:
        if v in ("ball", "size"):
            raise ValidationError(f"variable {v!r} would clash with the table's {v!r} column")
    return variables


def _means(groups: Mapping[int, Sequence[int]], cols: Mapping[str, np.ndarray]) -> BallMeansTable:
    # One gather per ball over a V x N block. Each row of the gather is
    # contiguous, so its .mean() sums pairwise exactly as the member column
    # alone would; .mean(axis=1) would sum sequentially and differ.
    variables = tuple(cols)
    block = np.stack(list(cols.values()))
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _finite
        for ball in sorted(groups):
            idx = np.asarray(groups[ball], dtype=np.intp)
            means = tuple(
                _finite(float(c.mean()), "mean", v, ball) for c, v in zip(block[:, idx], variables)
            )
            rows.append(BallMeansRow(ball=ball, means=means, size=len(idx)))
    return BallMeansTable(variables, tuple(rows))


def _distribution(
    groups: Mapping[int, Sequence[int]], col: np.ndarray, variable: str
) -> BallDistributionTable:
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _finite
        for ball in sorted(groups):
            # mean/sd are taken in member order so they match _means bit for
            # bit; sorting is only for the order statistics
            member_vals = col[np.asarray(groups[ball], dtype=np.intp)]
            vals = np.sort(member_vals)
            n = len(vals)
            rows.append(
                BallDistributionRow(
                    ball=ball,
                    mean=_finite(float(member_vals.mean()), "mean", variable, ball),
                    sd=_finite(float(member_vals.std(ddof=1)), "sd", variable, ball)
                    if n > 1 else None,
                    min=float(vals[0]),
                    q25=quantile(vals, 25),
                    q50=quantile(vals, 50),
                    q75=quantile(vals, 75),
                    max=float(vals[-1]),
                    size=n,
                )
            )
    return BallDistributionTable(variable, tuple(rows))


def means_over_groups(
    raw: RawTable, groups: Mapping[int, Sequence[int]], variables: Sequence[str]
) -> BallMeansTable:
    variables = _mean_variables(variables)
    return _means(groups, {v: _held_column(raw, v, groups) for v in variables})


def distribution_over_groups(
    raw: RawTable, groups: Mapping[int, Sequence[int]], variable: str
) -> BallDistributionTable:
    return _distribution(groups, _held_column(raw, variable, groups), variable)


def means_from_merged(path, variables: Sequence[str]) -> BallMeansTable:
    """ball-summary's table: per-ball means of the variables in a merged CSV file."""
    return _means(*_read_merged(path, _mean_variables(variables)))


def distribution_from_merged(path, variable: str) -> BallDistributionTable:
    """variable-summary's table: the per-ball distribution of one variable in a merged CSV file."""
    groups, cols = _read_merged(path, (variable,))
    return _distribution(groups, cols[variable], variable)


def ball_summary(
    cover: BallCover,
    raw: RawTable,
    variables: Sequence[str],
    csv_path=None,
) -> BallMeansTable:
    """Mean of each variable within each ball; written to csv_path if given.

    Rows are indexed by the cover's member row ids, so the raw table must be
    the one the cover was built from.
    """
    table = means_over_groups(raw, dict(zip(cover.ball_ids, cover.members)), variables)
    if csv_path is not None:
        table.write(csv_path)
    return table


def variable_summary(
    cover: BallCover,
    raw: RawTable,
    variable: str,
    csv_path=None,
) -> BallDistributionTable:
    """Distribution (mean, sd, quartiles, extremes) of one variable per ball."""
    table = distribution_over_groups(raw, dict(zip(cover.ball_ids, cover.members)), variable)
    if csv_path is not None:
        table.write(csv_path)
    return table
