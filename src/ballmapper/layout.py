"""Deterministic force-directed 2-D placement of the graph nodes.

No randomness anywhere: nodes start evenly spaced on a unit circle in ball id
order, then repeated rounds of pairwise repulsion and edge attraction with a
linearly cooling step cap. Identical inputs give bitwise-identical positions,
so downstream SVG output is byte-stable.
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
_MIN_DIST = 1e-12  # coincident nodes exert no repulsion on each other


def _simulate(
    pos: np.ndarray,
    edge_index: np.ndarray,
    repulsion: float,
    attraction: float,
    iterations: int,
) -> np.ndarray:
    """Run the force loop on raw coordinates (no normalization).

    Each round works on B x B float64 planes allocated once: dx[j, i] and
    dy[j, i] hold pos[i] - pos[j] per axis, scale[j, i] the repulsion weight
    of the pair, and tmp their products.
    """
    pos = np.array(pos, dtype=float)
    n = pos.shape[0]
    dx = np.empty((n, n))
    dy = np.empty((n, n))
    scale = np.empty((n, n))
    tmp = np.empty((n, n))
    coincident = np.empty((n, n), dtype=bool)
    disp = np.empty((n, 2))
    for t in range(iterations):
        if iterations > 1:
            step = STEP_START + (STEP_END - STEP_START) * t / (iterations - 1)
        else:
            step = STEP_START

        x = pos[:, 0]
        y = pos[:, 1]
        np.subtract(x[None, :], x[:, None], out=dx)
        np.subtract(y[None, :], y[:, None], out=dy)
        np.multiply(dx, dx, out=scale)
        np.multiply(dy, dy, out=tmp)
        np.add(scale, tmp, out=scale)  # squared distance d2
        np.less_equal(scale, _MIN_DIST ** 2, out=coincident)
        np.maximum(scale, _MIN_DIST ** 2, out=scale)
        np.divide(repulsion, scale, out=scale)
        np.copyto(scale, 0.0, where=coincident)
        np.fill_diagonal(scale, 0.0)
        # Node i's push is the sum over j of (pos[i] - pos[j]) * scale, added
        # one j after another. Reducing over axis 0 adds the rows in exactly
        # that order, which keeps positions, and so the golden output pins,
        # bitwise unchanged; a reduction over axis 1 would sum pairwise.
        np.multiply(dx, scale, out=tmp)
        np.sum(tmp, axis=0, out=disp[:, 0])
        np.multiply(dy, scale, out=tmp)
        np.sum(tmp, axis=0, out=disp[:, 1])

        if edge_index.size:
            delta = pos[edge_index[:, 0]] - pos[edge_index[:, 1]]
            pull = attraction * delta
            np.subtract.at(disp, edge_index[:, 0], pull)
            np.add.at(disp, edge_index[:, 1], pull)

        norms = np.sqrt((disp ** 2).sum(axis=1))
        factor = np.ones(n)
        moving = norms > step
        factor[moving] = step / norms[moving]
        pos += disp * factor[:, None]
    return pos


def compute_layout(
    graph: MapperGraph,
    repulsion: float = DEFAULT_REPULSION,
    attraction: float = DEFAULT_ATTRACTION,
    iterations: int = DEFAULT_ITERATIONS,
) -> dict[int, tuple[float, float]]:
    """Place nodes: the (x, y) of each ball id, rescaled per axis into the unit square.

    A single node sits at the origin. An axis with no spread collapses to the
    midline 0.5 instead of dividing by zero.
    """
    if graph.n_nodes == 0:
        raise ValueError("cannot lay out an empty graph")
    if not (0 < repulsion < math.inf and 0 < attraction < math.inf):
        raise ValidationError("repulsion and attraction must be positive and finite")
    if iterations < 1:
        raise ValidationError("iterations must be positive")

    balls = [n.ball for n in graph.nodes]
    if len(balls) == 1:
        return {balls[0]: (0.0, 0.0)}

    index = {b: i for i, b in enumerate(balls)}
    angles = 2.0 * np.pi * np.arange(len(balls)) / len(balls)
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    edge_index = np.array(
        [(index[e.source], index[e.target]) for e in graph.edges], dtype=int
    ).reshape(-1, 2)

    pos = _simulate(pos, edge_index, repulsion, attraction, iterations)

    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = hi - lo
    out = np.empty_like(pos)
    for axis in range(2):
        if span[axis] > 0:
            out[:, axis] = (pos[:, axis] - lo[axis]) / span[axis]
        else:
            out[:, axis] = 0.5

    return {b: (float(out[i, 0]), float(out[i, 1])) for b, i in index.items()}
