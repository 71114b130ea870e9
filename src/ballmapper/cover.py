"""Greedy cover of a point cloud with fixed-radius balls.

Landmarks are taken from the not-yet-covered points, one at a time, and every
point within the radius of a landmark (inclusive boundary, covered earlier or
not) becomes a member of that ball. Membership overlap between balls is what
later produces graph edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ValidationError
from .point_cloud import PointCloud

_UNDERFLOW_GAP = 1e-160  # above sqrt of the smallest subnormal, about 2.2e-162


@dataclass(frozen=True, eq=False)
class BallCover:
    """A cover: ball b (1-based) is centred on landmarks[b-1] with radius epsilon.

    sizes[b-1] is ball b's point count and rows holds each ball's member row ids
    in turn, ascending within a ball: read-only intp arrays, which members
    expands into tuples. All ids are row ids of the source cloud; row_ids ascend,
    as in its PointCloud, and each is in some ball. A cover equals only itself.
    """

    epsilon: float
    landmarks: tuple[int, ...]
    sizes: np.ndarray
    rows: np.ndarray
    row_ids: tuple[int, ...]

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        rows = iter(self.rows.tolist())
        return tuple(tuple(islice(rows, size)) for size in self.sizes.tolist())

    @property
    def n_balls(self) -> int:
        return len(self.landmarks)

    @property
    def n_points(self) -> int:
        return len(self.row_ids)

    @property
    def ball_ids(self) -> range:
        return range(1, len(self.landmarks) + 1)


def _check_cover_args(epsilon: float, order: str, seed: int) -> None:
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    if order not in ("data", "shuffle"):
        raise ValueError(f"unknown landmark order policy {order!r}")
    if order == "shuffle" and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


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
    _check_cover_args(epsilon, order, seed)
    n = cloud.n
    if order == "shuffle":
        scan_order = np.random.default_rng(seed).permutation(n)
    else:
        scan_order = np.arange(n)

    pts = cloud.values
    k = cloud.k
    # A gap that overflows float64 becomes inf: it is never a member (its
    # square is inf), inf <= inf keeps it a prefilter survivor, and c_a -+ an
    # inf half-width still gives ordered slab bounds.
    with np.errstate(over="ignore"):
        # Sort the points once along their widest axis; each ball then looks
        # only at the contiguous slab of points whose coordinate on that axis
        # lies within the radius of the landmark's.
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        perm = np.argsort(pts[:, axis], kind="stable")
        cols = np.ascontiguousarray(pts[perm].T)  # K x N, sorted along axis
        keys = cols[axis]
        # Membership is decided only by the row-wise test sqrt(s) <= epsilon,
        # where s = einsum("ij,ij->i") sums the squares of d_a = fl(p_a - c_a).
        # The slab and the column-wise prefilter s' <= bound each keep every
        # point that test passes. With S the exact sum of the d_a**2 and
        # u = 2**-53, the proof uses two facts only, for any summation order,
        # with or without FMA:
        # (1) s and s' both lie within K*u*S of S;
        # (2) underflow costs each of the K products or fused steps at most
        #     2**-1075 more (a sum of subnormals is exact).
        # sqrt is correctly rounded, so a passing point has
        # s <= (epsilon*(1 + u))**2 up to that floor, and then
        # s' <= epsilon**2 * (1 + (2K + 3)u + O(u**2)) + 2K * 2**-1074. The
        # relative margin below puts (1 + 8(K + 2)u)**2 into bound, more than
        # that plus the four roundings that compute bound, and the absolute
        # term k * 2**-1070 is more than the floor. The slab needs less: s >=
        # fl(d_a**2), as rounding is monotone, so |p_a - c_a| <=
        # epsilon*(1 + 3u); a gap below _UNDERFLOW_GAP squares to 0 and passes
        # any radius, so it stays in the slab; and the stored p_a is a float,
        # so p_a <= c_a + half_width implies p_a <= fl(c_a + half_width).
        half_width = epsilon * (1 + (k + 2) * 2.0**-50) + _UNDERFLOW_GAP
        bound = half_width * half_width + k * 2.0**-1070
        los = np.searchsorted(keys, pts[:, axis] - half_width, side="left")
        his = np.searchsorted(keys, pts[:, axis] + half_width, side="right")
        scratch = np.empty((k, int((his - los).max())))
        covered = np.zeros(n, dtype=bool)
        landmarks: list[int] = []
        balls: list[np.ndarray] = []  # each ball's member row ids
        row_ids = np.asarray(cloud.row_ids, dtype=np.intp)

        for lm in scan_order.tolist():
            if covered[lm]:
                continue
            c = pts[lm]
            lo, hi = int(los[lm]), int(his[lm])
            d = np.subtract(cols[:, lo:hi], c[:, None], out=scratch[:, : hi - lo])
            near = perm[lo:hi][np.einsum("ij,ij->j", d, d) <= bound]
            diff = pts[near] - c
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            in_ball = near[dist <= epsilon]
            in_ball.sort()
            covered[in_ball] = True
            landmarks.append(int(row_ids[lm]))
            balls.append(row_ids[in_ball])

    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    rows = np.concatenate(balls)
    sizes.flags.writeable = rows.flags.writeable = False
    return BallCover(float(epsilon), tuple(landmarks), sizes, rows, tuple(cloud.row_ids))


def ball_sizes(cover: BallCover) -> list[int]:
    """Point count per ball, in ball id order."""
    return cover.sizes.tolist()
