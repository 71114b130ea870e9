"""Datasets: Gaussian clouds, the cross-shaped cloud and the bundled auto data.

All generation runs on numpy's PCG64 generator seeded explicitly, with draws
in a fixed documented order, so a given seed always produces byte-identical
CSV output from this package version.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .errors import ValidationError
from .point_cloud import PointCloud

X_CENTERS = (
    (-6.0, 6.0),
    (-3.0, 3.0),
    (3.0, 3.0),
    (6.0, 6.0),
    (0.0, 0.0),
    (-3.0, -3.0),
    (3.0, -3.0),
    (-6.0, -6.0),
    (6.0, -6.0),
)

X_GROUP_SIZE = 100  # points per center
X_NOISE_SD = 0.2  # sd of the additive noise on the linear and quadratic outcomes

X_COLUMNS = ("x1", "x2", "y1", "y2", "y3", "y4", "y5", "group")


@dataclass(frozen=True)
class XDatasetSpec:
    """Recipe for the nine-cluster cross-shaped benchmark.

    Blocks of X_GROUP_SIZE standard-normal pairs are translated onto
    X_CENTERS (group g uses X_CENTERS[g-1]).
    """

    seed: int = 0


def auto_csv_path() -> str:
    """Path of the bundled 74-row 1978 automobile dataset."""
    return str(files("ballmapper").joinpath("data/auto.csv"))


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def gen_gaussian_cloud(n: int, k: int, seed: int = 0) -> PointCloud:
    """n i.i.d. standard-normal points in k dimensions, columns x1..xk."""
    if n < 1 or k < 1:
        raise ValidationError("n and k must be >= 1")
    rng = _rng(seed)
    values = rng.standard_normal((n, k))
    names = tuple(f"x{j + 1}" for j in range(k))
    return PointCloud(names, values, tuple(range(n)))


def gen_x_dataset(spec: XDatasetSpec = XDatasetSpec()) -> PointCloud:
    """Build the cross-shaped cloud with its five outcome columns.

    Draw order (fixes the stream): the base point pairs, then the noise for
    y1, then the noise for y3, then y4. Outcomes: y1 = x1 + x2 + noise,
    y2 = group id, y3 = x1^2 + x2^2 + noise, y4 ~ N(0,1), and y5 = 1 exactly
    when 0 < x1 < 3 and 0 < x2 < 3.
    """
    rng = _rng(spec.seed)
    n = X_GROUP_SIZE * len(X_CENTERS)
    base = rng.standard_normal((n, 2))
    theta1 = X_NOISE_SD * rng.standard_normal(n)
    theta3 = X_NOISE_SD * rng.standard_normal(n)
    phi = rng.standard_normal(n)

    shifts = np.repeat(np.asarray(X_CENTERS, dtype=float), X_GROUP_SIZE, axis=0)
    xy = base + shifts
    group = np.repeat(np.arange(1, len(X_CENTERS) + 1), X_GROUP_SIZE).astype(float)

    x1 = xy[:, 0]
    x2 = xy[:, 1]
    y1 = x1 + x2 + theta1
    y3 = x1 ** 2 + x2 ** 2 + theta3
    y5 = ((x1 > 0) & (x1 < 3) & (x2 > 0) & (x2 < 3)).astype(float)

    values = np.column_stack([x1, x2, y1, group, y3, phi, y5, group])
    return PointCloud(X_COLUMNS, values, tuple(range(n)))
