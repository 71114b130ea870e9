"""Deterministic force-directed 2-D placement of the graph nodes.

No randomness anywhere: nodes start evenly spaced on a unit circle in ball id
order, then repeated rounds of pairwise repulsion and edge attraction with a
linearly cooling step cap. Identical inputs give bitwise-identical positions
on one machine and numpy version, so downstream SVG output is byte-stable.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .graph import MapperGraph

DEFAULT_REPULSION = 0.05
DEFAULT_ATTRACTION = 0.01
DEFAULT_ITERATIONS = 500
STEP_START = 0.1
STEP_END = 0.001
_MIN_DIST = 1e-12  # nodes this close exert no repulsion on each other
_TILE = 128  # nodes per repulsion stripe: scratch is O(B * _TILE), not O(B^2)


def _simulate(
    pos: np.ndarray,
    edge_index: np.ndarray,
    repulsion: float,
    attraction: float,
    iterations: int,
) -> np.ndarray:
    """Run the force loop on raw coordinates (no normalization).

    The positions stay one (2, B) array pt for the whole call. The repulsion
    is computed for a stripe of _TILE nodes i in [s, e) at a time, against the
    nodes s + j >= s only, so each unordered pair is computed once (a pair
    within one stripe twice). Per stripe, a copy and a subtraction fill the
    (2, B - s, w) difference plane diff[a, j, k] = pt[a, i] - pt[a, s + j] for
    i = s + k; one einsum sums its squares over the axes a into d2[j, k], the
    pair's squared distance, which is then turned in place into the pair's
    repulsion weight; a second einsum sums diff[a, j, k] * weight[j, k] over
    the rows j into node i's push along both axes, and a third sums it over
    the columns k into the equal and opposite push on each node s + j >= e.
    The stripes run from the last to the first, so that a node's push is
    written before an earlier stripe subtracts from it. Up to _TILE nodes there is
    one stripe and nothing to subtract: each push is the row-order sum of
    the B x B tensor loop, bit for bit. Above it the sums run in another
    order, fixed for a given machine and numpy.

    A force sum that overflows raises FloatingPointError, whatever the numpy
    error state: einsum sets no floating-point flag, and the subtractions run
    with overflow ignored, so the pushes are checked for non-finite values instead.
    """
    pt = np.array(np.transpose(pos), dtype=float, order="C")
    n = pt.shape[1]
    width = min(n, _TILE)
    planes = np.empty(3 * n * width)  # each stripe's diff and d2 are its contiguous head
    near_buf = np.empty(n * width, dtype=bool)
    push = np.empty((2, n))
    heads, tails = edge_index.T  # an edgeless graph's are empty: ufunc.at then does nothing
    for t in range(iterations):
        step = STEP_START + (STEP_END - STEP_START) * t / max(iterations - 1, 1)
        for s in reversed(range(0, n, width)):
            e = min(s + width, n)
            w, size = e - s, (n - s) * (e - s)
            diff = planes[:2 * size].reshape(2, n - s, w)
            d2 = planes[2 * size:3 * size].reshape(n - s, w)
            near = near_buf[:size].reshape(n - s, w)
            np.copyto(diff, pt[:, None, s:e])
            diff -= pt[:, s:, None]  # the bits of np.subtract, and cheaper
            # einsum, not np.dot/matmul or tensordot: those call BLAS, which
            # blocks and reorders the sums. einsum adds the terms in index
            # order, here dx * dx + dy * dy and the rows j one after another,
            # which gives the bits of the row-order reduction exactly.
            # No d2 overflows: from the unit circle, <= STEP_START a round, pt spans <= 2 + 0.2 * t
            np.einsum("ajk,ajk->jk", diff, diff, out=d2)
            # A node on itself (d2 = 0) or within _MIN_DIST of another weighs
            # r / inf = +0 at any repulsion: no force.
            np.less_equal(d2, _MIN_DIST ** 2, out=near)
            np.copyto(d2, np.inf, where=near)
            np.divide(repulsion, d2, out=d2)
            np.einsum("ajk,jk->ak", diff, d2, out=push[:, s:e])
            with np.errstate(over="ignore", invalid="ignore"):  # the isfinite check refuses
                push[:, e:] -= np.einsum("ajk,jk->aj", diff[:, w:], d2[w:])
        if not np.isfinite(push).all():
            raise FloatingPointError("overflow encountered in the force sums")

        pull = attraction * (pt[:, heads] - pt[:, tails])
        for a in range(2):  # 1-D ufunc.at is far faster than on (slice(None), heads)
            np.subtract.at(push[a], heads, pull[a])
            np.add.at(push[a], tails, pull[a])

        norms = np.sqrt((push ** 2).sum(axis=0))
        pt += push * (step / np.maximum(norms, step))
    return np.ascontiguousarray(pt.T)


def _check_layout_args(repulsion: float, attraction: float, iterations: int) -> None:
    if not (0 < repulsion < math.inf and 0 < attraction < math.inf):
        raise ValidationError("repulsion and attraction must be positive and finite")
    if iterations < 1:
        raise ValidationError("iterations must be positive")


def compute_layout(
    graph: MapperGraph,
    repulsion: float = DEFAULT_REPULSION,
    attraction: float = DEFAULT_ATTRACTION,
    iterations: int = DEFAULT_ITERATIONS,
) -> dict[int, tuple[float, float]]:
    """Place nodes: the (x, y) of each ball id, rescaled per axis into the unit square.

    A single node sits at the origin. An axis with no spread, one whose nodes
    span at most _MIN_DIST (rounding noise, as in the sin(pi) of a two-node
    start), collapses to the midline 0.5 instead of being stretched to [0, 1].
    """
    if graph.n_nodes == 0:
        raise ValueError("cannot lay out an empty graph")
    _check_layout_args(repulsion, attraction, iterations)

    balls = [n.ball for n in graph.nodes]
    if len(balls) == 1:
        return {balls[0]: (0.0, 0.0)}

    angles = 2.0 * np.pi * np.arange(len(balls)) / len(balls)
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    order = np.argsort(balls)  # every endpoint is a node's ball, as MapperGraph checks
    edge_index = order[np.searchsorted(balls, graph.edges[:, :2], sorter=order)]

    try:  # a force that overflows would freeze its node, or make it nan
        with np.errstate(over="raise"):
            pos = _simulate(pos, edge_index, repulsion, attraction, iterations)
    except FloatingPointError:
        raise ValidationError("layout overflows float64: lower repulsion/attraction") from None

    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    out = np.divide(pos - lo, span, out=np.full_like(pos, 0.5), where=span > _MIN_DIST)
    return dict(zip(balls, map(tuple, out.tolist())))
