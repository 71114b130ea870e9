"""Greedy cover of a point cloud with fixed-radius balls.

Landmarks are taken from the not-yet-covered points, one at a time, and every
point within the radius of a landmark (inclusive boundary, covered earlier or
not) becomes a member of that ball. Membership overlap between balls is what
later produces graph edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .point_cloud import PointCloud

_UNDERFLOW_GAP = 1e-160  # above sqrt of the smallest subnormal, about 2.2e-162


@dataclass(frozen=True)
class BallCover:
    """A cover: ball b (1-based) is centred on landmarks[b-1] with radius epsilon.

    Landmark and member values are row ids of the source cloud; member lists
    are sorted ascending. row_ids ascend, as in the PointCloud the cover was
    built from. Every row id appears in at least one ball.
    """

    epsilon: float
    landmarks: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    row_ids: tuple[int, ...]

    @property
    def n_balls(self) -> int:
        return len(self.landmarks)

    @property
    def n_points(self) -> int:
        return len(self.row_ids)

    @property
    def ball_ids(self) -> range:
        return range(1, len(self.landmarks) + 1)


def build_cover(
    cloud: PointCloud,
    epsilon: float,
    order: str = "data",
    seed: int = 0,
) -> BallCover:
    """Cover the cloud greedily, choosing each landmark from the uncovered set.

    order="data" takes the first uncovered point in input file order (the
    deterministic default); order="shuffle" walks a seeded random permutation
    of the rows instead, for landmark-order robustness experiments. Distance
    comparisons are inclusive (<= epsilon).
    """
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    if order not in ("data", "shuffle"):
        raise ValueError(f"unknown landmark order policy {order!r}")

    n = cloud.n
    if order == "shuffle":
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        scan_order = np.random.default_rng(seed).permutation(n)
    else:
        scan_order = np.arange(n)

    pts = cloud.values
    # Sort the points once along their widest axis; each ball then tests only
    # the contiguous slab of points whose coordinate on that axis lies within
    # the radius of the landmark's.
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    perm = np.argsort(pts[:, axis], kind="stable")
    sorted_pts = pts[perm]
    keys = pts[perm, axis]
    # The slab is a superset of the points that pass the distance test below.
    # That test sums nonnegative rounded squares and rounding is monotone, so a
    # passing point has |fl(p_a - c_a)| <= epsilon up to a few ulps, and
    # |fl(p_a - c_a)| is within one ulp of the true gap; the relative margin
    # covers both. A gap below _UNDERFLOW_GAP squares to 0 and passes any
    # radius, so it always stays in the slab. The stored p_a is a float, so
    # p_a <= c_a + half_width implies p_a <= fl(c_a + half_width).
    half_width = epsilon * (1 + 1e-12) + _UNDERFLOW_GAP
    covered = np.zeros(n, dtype=bool)
    landmarks: list[int] = []
    members: list[tuple[int, ...]] = []
    row_ids = np.asarray(cloud.row_ids)

    for lm in scan_order.tolist():
        if covered[lm]:
            continue
        c = pts[lm]
        lo = int(np.searchsorted(keys, c[axis] - half_width, side="left"))
        hi = int(np.searchsorted(keys, c[axis] + half_width, side="right"))
        diff = sorted_pts[lo:hi] - c
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        in_ball = np.sort(perm[lo + np.nonzero(dist <= epsilon)[0]])
        covered[in_ball] = True
        landmarks.append(int(row_ids[lm]))
        members.append(tuple(row_ids[in_ball].tolist()))

    return BallCover(float(epsilon), tuple(landmarks), tuple(members), tuple(cloud.row_ids))


def ball_sizes(cover: BallCover) -> list[int]:
    """Point count per ball, in ball id order."""
    return [len(m) for m in cover.members]
