"""Deterministic force-directed 2-D placement of the graph nodes.

No randomness anywhere: nodes start evenly spaced on a unit circle in ball id
order, then repeated rounds of pairwise repulsion and edge attraction with a
linearly cooling step cap. Identical inputs give bitwise-identical positions,
so downstream SVG output is byte-stable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import MapperGraph

DEFAULT_REPULSION = 0.05
DEFAULT_ATTRACTION = 0.01
DEFAULT_ITERATIONS = 500
STEP_START = 0.1
STEP_END = 0.001
_MIN_DIST = 1e-12  # coincident nodes exert no repulsion on each other


@dataclass(frozen=True)
class LayoutPositions:
    """Final (x, y) per ball id plus the bounding box of all positions."""

    positions: dict[int, tuple[float, float]]
    bounds: tuple[float, float, float, float]

    def __getitem__(self, ball: int) -> tuple[float, float]:
        return self.positions[ball]


def _simulate(
    pos: np.ndarray,
    edge_index: np.ndarray,
    repulsion: float,
    attraction: float,
    iterations: int,
) -> np.ndarray:
    """Run the force loop on raw coordinates (no normalization)."""
    pos = np.array(pos, dtype=float)
    n = pos.shape[0]
    for t in range(iterations):
        if iterations > 1:
            step = STEP_START + (STEP_END - STEP_START) * t / (iterations - 1)
        else:
            step = STEP_START

        diff = pos[:, None, :] - pos[None, :, :]
        d2 = (diff ** 2).sum(axis=2)
        np.fill_diagonal(d2, 1.0)
        safe = np.maximum(d2, _MIN_DIST ** 2)
        scale = repulsion / safe
        scale[d2 <= _MIN_DIST ** 2] = 0.0
        np.fill_diagonal(scale, 0.0)
        disp = (diff * scale[:, :, None]).sum(axis=1)

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
) -> LayoutPositions:
    """Place nodes; output is rescaled per axis into the unit square.

    A single node sits at the origin. An axis with no spread collapses to the
    midline 0.5 instead of dividing by zero.
    """
    if graph.n_nodes == 0:
        raise ValueError("cannot lay out an empty graph")
    if not (repulsion > 0 and attraction > 0):
        raise ValidationError("repulsion and attraction must be positive")
    if iterations < 1:
        raise ValidationError("iterations must be positive")

    balls = [n.ball for n in graph.nodes]
    if len(balls) == 1:
        return LayoutPositions({balls[0]: (0.0, 0.0)}, (0.0, 0.0, 0.0, 0.0))

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

    positions = {b: (float(out[i, 0]), float(out[i, 1])) for b, i in index.items()}
    xs = out[:, 0]
    ys = out[:, 1]
    bounds = (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
    return LayoutPositions(positions, bounds)
