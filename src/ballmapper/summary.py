"""Per-ball summary tables: means across variables, or one variable in depth.

Points belonging to several balls contribute fully to every containing ball,
so ball sizes sum to at least N. The quantile convention is the averaging /
order-statistic rule (see quantile); the sample sd of a single observation is
undefined and serializes as an empty CSV field, never 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cover import BallCover
from .errors import ValidationError
from .point_cloud import RawTable, distinct_names, write_csv

_INTEGRAL_TOL = 1e-9


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
        return (float(values[rounded - 1]) + float(values[rounded])) / 2.0
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


def ball_groups_from_merged(raw: RawTable) -> dict[int, list[int]]:
    """Recover ball membership (row indices per ball id) from a merged CSV."""
    if "ball" not in raw.column_names:
        raise ValidationError("merged table has no 'ball' column")
    if not raw.rows:
        raise ValidationError("merged table has no rows")
    j = raw.column_index("ball")
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(raw.rows):
        try:
            ball = int(row[j])
        except ValueError:
            raise ValidationError(f"bad ball id {row[j]!r} at merged row {i}") from None
        groups.setdefault(ball, []).append(i)
    return groups


def means_over_groups(
    raw: RawTable, groups: Mapping[int, Sequence[int]], variables: Sequence[str]
) -> BallMeansTable:
    variables = distinct_names(variables, "variable")
    for v in variables:
        if v in ("ball", "size"):
            raise ValidationError(f"variable {v!r} would clash with the table's {v!r} column")
    cols = [raw.numeric_column(v) for v in variables]
    rows = []
    for ball in sorted(groups):
        idx = list(groups[ball])
        rows.append(
            BallMeansRow(
                ball=ball,
                means=tuple(float(c[idx].mean()) for c in cols),
                size=len(idx),
            )
        )
    return BallMeansTable(variables, tuple(rows))


def distribution_over_groups(
    raw: RawTable, groups: Mapping[int, Sequence[int]], variable: str
) -> BallDistributionTable:
    col = raw.numeric_column(variable)
    rows = []
    for ball in sorted(groups):
        # mean/sd are taken in member order so they match means_over_groups
        # bit for bit; sorting is only for the order statistics
        member_vals = col[list(groups[ball])]
        vals = np.sort(member_vals)
        n = len(vals)
        rows.append(
            BallDistributionRow(
                ball=ball,
                mean=float(member_vals.mean()),
                sd=float(member_vals.std(ddof=1)) if n > 1 else None,
                min=float(vals[0]),
                q25=quantile(vals, 25),
                q50=quantile(vals, 50),
                q75=quantile(vals, 75),
                max=float(vals[-1]),
                size=n,
            )
        )
    return BallDistributionTable(variable, tuple(rows))


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
