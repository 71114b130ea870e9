"""Per-ball summary tables: means across variables, or one variable in depth.

Points belonging to several balls contribute fully to every containing ball,
so ball sizes sum to at least N. The quantile convention is the averaging /
order-statistic rule (see quantile); the sample sd of a single observation is
undefined and serializes as an empty CSV field, never 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .point_cloud import RawTable, _ball_ids, _ball_means, _by_size, _checked_column
from .point_cloud import _held_column, _read_table, distinct_names, format_floats, write_cells

if TYPE_CHECKING:  # annotations only: a summary of a merged file loads no cover module
    from .cover import BallCover

_INTEGRAL_TOL = 1e-9
# Ball membership as the per-ball statistics read it, (ids, sizes, rows): ball ids ascending,
# their intp sizes, and each ball's rows in turn, in file order; a cover gives 1..B and its own.
_Groups = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    # _quantiles halves first where the sum overflows; -inf and inf average to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_quantiles(np.asarray(values, dtype=float)[None, :], p)[0])


def _order_statistics(n: int, p: float) -> tuple[int, int]:
    """The 0-based positions of the two order statistics quantile averages (equal if one)."""
    h = n * p / 100.0
    rounded = round(h)
    if abs(h - rounded) < _INTEGRAL_TOL and rounded >= 1:
        return (n - 1, n - 1) if rounded >= n else (rounded - 1, rounded)
    return math.ceil(h) - 1, math.ceil(h) - 1


def _quantiles(rows: np.ndarray, p: float) -> np.ndarray:
    """quantile of each row of a (balls x size) array of ascending rows."""
    i, j = _order_statistics(rows.shape[1], p)
    a, b = rows[:, i], rows[:, j]  # a == b gives a, by either rule
    mid = (a + b) / 2.0
    # halving first cannot overflow, but rounds subnormals: 5e-324 twice gives 0
    return np.where(np.isinf(mid), a / 2.0 + b / 2.0, mid)


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
        means = map(format_floats, zip(*(r.means for r in self.rows)))
        write_cells(path, ("ball",) + self.variables + ("size",),
                    zip([str(r.ball) for r in self.rows], *means, [str(r.size) for r in self.rows]))


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
        # ball and size are ints; each statistic between them is a float, or None for an empty field
        header = [f.name for f in fields(BallDistributionRow)]
        ball, *stats, size = ([getattr(r, name) for r in self.rows] for name in header)
        stats = [["" if v is None else t for v, t in zip(col, format_floats(col))] for col in stats]
        write_cells(path, header, zip(map(str, ball), *stats, map(str, size)))


def _refuse_overflow(ids: np.ndarray, stats: np.ndarray, names: Sequence[tuple[str, str]]) -> None:
    """Refuse a statistic that a float64 overflow made inf or nan. stats holds one
    (stat, variable) of names per row and one ball of ids per column; the error
    names the first ball, then its first such statistic."""
    bad = ~np.isfinite(stats)
    if bad.any():
        i, k = np.argwhere(bad.T)[0].tolist()  # argwhere walks in row-major order
        stat, variable = names[k]
        raise ValidationError(f"the {stat} of {variable!r} in ball {ids[i]} overflows float64")


def _groups(balls: np.ndarray) -> _Groups:
    """(ids, sizes, rows) of a ball id column: the distinct ids ascending, their
    counts, and the row indices ball after ball, each ball's in file order."""
    ids, sizes = np.unique(balls, return_counts=True)
    return ids, sizes, np.argsort(balls, kind="stable")


def ball_groups_from_merged(raw: RawTable) -> _Groups:
    """Recover ball membership from a merged CSV as (ids, sizes, rows): the
    ball ids ascending, their sizes, and each ball's row indices in turn, in file order."""
    if "ball" not in raw.column_names:
        raise ValidationError("merged table has no 'ball' column")
    if not raw.rows:
        raise ValidationError("merged table has no rows")
    return _groups(_ball_ids(list(map(itemgetter(raw.column_index("ball")), raw.rows))))


def _read_merged(path, names: Sequence[str]) -> tuple[_Groups, dict[str, np.ndarray]]:
    """The ball groups and the named columns, as float64, of a merged CSV file read by
    _read_table; refuses a name that is no column, then the column's first refused cell."""
    header, ids, columns, bad = _read_table(path, names, merged=True)
    return _groups(ids), {name: _checked_column(header, name, columns, bad) for name in names}


def _mean_variables(variables: Sequence[str]) -> tuple[str, ...]:
    """The variables of a means table; refuses none, a repeat, and 'ball' or 'size'."""
    variables = distinct_names(variables, "variable")
    for v in variables:
        if v in ("ball", "size"):
            raise ValidationError(f"variable {v!r} would clash with the table's {v!r} column")
    return variables


def _means(groups: _Groups, cols: Mapping[str, np.ndarray]) -> BallMeansTable:
    variables = tuple(cols)
    ids, sizes, rows = groups
    means = _ball_means(sizes, rows, list(cols.values()))
    _refuse_overflow(ids, means, [("mean", v) for v in variables])
    return BallMeansTable(variables, tuple(
        BallMeansRow(ball=b, means=tuple(m), size=n)
        for b, m, n in zip(ids.tolist(), means.T.tolist(), sizes.tolist())
    ))


def _distribution(groups: _Groups, col: np.ndarray, variable: str) -> BallDistributionTable:
    # mean and sd are taken over each gather in member order, so they match
    # _means bit for bit; sorting is only for the order statistics
    ids, sizes, rows = groups
    stats = np.empty((7, len(ids)))  # mean, sd, min, q25, q50, q75, max
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for at, members in _by_size(sizes, rows):
            values = col[members]
            stats[0, at] = values.mean(axis=1)
            stats[1, at] = values.std(axis=1, ddof=1) if values.shape[1] > 1 else 0.0
            values.sort(axis=1)
            stats[2, at] = values[:, 0]
            for row, p in ((3, 25), (4, 50), (5, 75)):
                stats[row, at] = _quantiles(values, p)
            stats[6, at] = values[:, -1]
    # a singleton's sd is the 0.0 above, so it is never refused, and written as None
    _refuse_overflow(ids, stats[:2], [("mean", variable), ("sd", variable)])
    return BallDistributionTable(variable, tuple(
        BallDistributionRow(ball=b, mean=mean, sd=sd if n > 1 else None, min=lo, q25=q25,
                            q50=q50, q75=q75, max=hi, size=n)
        for b, (mean, sd, lo, q25, q50, q75, hi), n
        in zip(ids.tolist(), stats.T.tolist(), sizes.tolist())
    ))


def means_over_groups(raw: RawTable, groups: _Groups, variables: Sequence[str]) -> BallMeansTable:
    """Per-ball means of the variables, over groups (ids, sizes, rows) of raw's row indices."""
    variables = _mean_variables(variables)
    return _means(groups, {v: _held_column(raw, v, groups[2]) for v in variables})


def distribution_over_groups(
    raw: RawTable, groups: _Groups, variable: str
) -> BallDistributionTable:
    """Per-ball distribution of variable, over groups (ids, sizes, rows) of raw's row indices."""
    return _distribution(groups, _held_column(raw, variable, groups[2]), variable)


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
    groups = (np.arange(1, cover.n_balls + 1), cover.sizes, cover.rows)
    table = means_over_groups(raw, groups, variables)
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
    groups = (np.arange(1, cover.n_balls + 1), cover.sizes, cover.rows)
    table = distribution_over_groups(raw, groups, variable)
    if csv_path is not None:
        table.write(csv_path)
    return table
