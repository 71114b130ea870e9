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

    The points are sorted once along every axis, and each ball scans only the
    narrowest of its K slabs: the points whose coordinate on one axis lies
    within the radius of the landmark's. A column-wise prefilter of that slab
    against epsilon squared keeps every member. When all its survivors lie
    inside a proven rounding shell below epsilon squared, they are the
    members; otherwise the exact row-wise sqrt test decides each survivor.
    The sorted copies take 8 * K**2 * N bytes of scratch, whatever B is.
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
        # Membership is decided by the row-wise test sqrt(s) <= epsilon, where
        # s = einsum("ij,ij->i") sums the squares of d_a = fl(p_a - c_a). The
        # slab and the column-wise prefilter s' <= bound each keep every point
        # that test passes, and s' <= sure passes only points that it passes.
        # With S the exact sum of the d_a**2 and u = 2**-53, the proof uses two
        # facts only, for any summation order, with or without FMA:
        # (1) s and s' both lie within K*u*S of S;
        # (2) underflow costs each of the K products or fused steps at most
        #     f = 2**-1075 more (a sum of subnormals is exact).
        # bound: sqrt is correctly rounded, so a passing point has
        # s <= (epsilon*(1 + u))**2 up to that floor, and then
        # s' <= epsilon**2 * (1 + (2K + 3)u + O(u**2)) + 2K * 2**-1074. The
        # relative margin below puts (1 + 8(K + 2)u)**2 into bound, more than
        # that plus the four roundings that compute bound, and the absolute
        # term k * 2**-1070 is more than the floor.
        # sure: r = 1 - 8(K + 2)u is exact, and each of the three roundings
        # that compute sure adds at most a factor 1 + u and, for the two
        # products, f. So a positive sure <= epsilon**2 * r * (1 + u)**3 -
        # (32K - 3)f. By (1) and (2), s' <= sure gives S(1 - Ku) <= sure + Kf,
        # and s <= S(1 + Ku) + Kf <= epsilon**2 * r * (1 + u)**3 * (1 + Ku) /
        # (1 - Ku) - (30K - 3)f < epsilon**2, as r takes off (8K + 16)u and the
        # other factors add only (2K + 3)u + O(u**2). Then sqrt(s) <= epsilon
        # holds. A sure that is not positive and finite (epsilon**2 overflows,
        # or is too small to hold the margin) decides nothing, and an s' above
        # sure (inf included) sends all of its ball's survivors to the exact
        # test.
        # The slab: s >= fl(d_a**2) on every axis a, as rounding is monotone,
        # so |p_a - c_a| <= epsilon*(1 + 3u); a gap below _UNDERFLOW_GAP
        # squares to 0 and passes any radius, so it stays in the slab; and the
        # stored p_a is a float, so p_a <= c_a + half_width implies
        # p_a <= fl(c_a + half_width). So the slab of every axis holds every
        # member, and each ball scans the one with the fewest points.
        half_width = epsilon * (1 + (k + 2) * 2.0**-50) + _UNDERFLOW_GAP
        bound = half_width * half_width + k * 2.0**-1070
        sure = epsilon * epsilon * (1 - (k + 2) * 2.0**-50) - k * 2.0**-1070
        if not 0 < sure < np.inf:
            sure = -1.0
        # cols[a] holds the K coordinate rows sorted along axis a, and
        # perms[a] their row positions. A point's slab on axis a is
        # cols[a][:, lo:lo + count]; slab_axis, slab_lo and slab_count keep
        # its narrowest, the first axis on a tie.
        cols = np.empty((k, k, n))
        perms = np.empty((k, n), dtype=np.intp)
        by_axis = np.ascontiguousarray(pts.T)
        slab_axis = np.empty(n, dtype=np.intp)
        slab_lo = np.empty(n, dtype=np.intp)
        slab_count = np.full(n, n + 1, dtype=np.intp)
        for a in range(k):
            perm = perms[a]
            perm[:] = np.argsort(by_axis[a])
            np.take(by_axis, perm, axis=1, out=cols[a])
            keys = cols[a, a]
            lo = np.searchsorted(keys, keys - half_width, side="left")
            count = np.searchsorted(keys, keys + half_width, side="right") - lo
            narrower = count < slab_count[perm]
            at = perm[narrower]
            slab_axis[at] = a
            slab_lo[at] = lo[narrower]
            slab_count[at] = count[narrower]
        del by_axis, lo, count
        scratch = np.empty((k, int(slab_count.max())))
        covered = np.zeros(n, dtype=bool)
        landmarks: list[int] = []
        balls: list[np.ndarray] = []  # each ball's member row ids
        row_ids = np.asarray(cloud.row_ids, dtype=np.intp)

        for lm in scan_order.tolist():
            if covered[lm]:
                continue
            c = pts[lm]
            a, lo, m = int(slab_axis[lm]), int(slab_lo[lm]), int(slab_count[lm])
            d = np.subtract(cols[a, :, lo : lo + m], c[:, None], out=scratch[:, :m])
            s = np.einsum("ij,ij->j", d, d)
            survives = s <= bound
            in_ball = perms[a, lo : lo + m][survives]
            if not s[survives].max() <= sure:
                diff = pts[in_ball] - c
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                in_ball = in_ball[dist <= epsilon]
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
