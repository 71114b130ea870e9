"""Abstract graph over a ball cover: sized nodes, overlap edges, color bins."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cover import BallCover
from .errors import ValidationError
from .point_cloud import _ball_means, _by_size, _groups
from .render import MAX_BIN_COUNT

DEFAULT_BIN_COUNT = 8


@dataclass(frozen=True)
class GraphNode:
    ball: int
    size: int
    color_mean: float | None = None
    color_bin: int | None = None


@dataclass(frozen=True, eq=False)
class MapperGraph:
    """Nodes, and edges as one read-only (E, 3) int64 array of (source, target,
    shared) rows, each endpoint a node's ball. A graph equals only itself."""

    nodes: tuple[GraphNode, ...]
    edges: np.ndarray

    def __post_init__(self):
        edges = np.array(self.edges, dtype=np.int64).reshape(-1, 3)  # () gives (0, 3)
        balls = [n.ball for n in self.nodes]
        if len(set(balls)) < len(balls):
            twice = next(b for b in balls if balls.count(b) > 1)
            raise ValueError(f"more than one node has ball {twice}")
        known = np.isin(edges[:, :2], balls)
        if not known.all():
            raise ValueError(f"edge endpoint {edges[:, :2][~known][0]} is no node's ball")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ColorScale:
    """Equal-width bins over the ball-mean range: bin b spans boundaries[b - 1]
    to boundaries[b]. The renderer picks each bin's color."""

    boundaries: tuple[float, ...]

    def __post_init__(self):
        if len(self.boundaries) < 2:
            raise ValueError("a color scale needs at least two boundaries")

    @property
    def bin_count(self) -> int:
        return len(self.boundaries) - 1


def build_graph(cover: BallCover, color_values: Sequence[float] | None = None) -> MapperGraph:
    """One node per ball plus an edge wherever two member sets intersect.

    color_values, when given, is aligned with the cover's rows (same order as
    the source cloud); each node's color_mean is the arithmetic mean over its
    members and each edge records the shared-point count.
    """
    means: list[float | None] = [None] * cover.n_balls
    if color_values is not None:
        vals = np.asarray(color_values, dtype=float)
        if vals.shape != (cover.n_points,):
            raise ValidationError(
                f"color column has {int(np.prod(vals.shape))} values, expected {cover.n_points}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("color values must all be finite")
        pos = np.searchsorted(cover.row_ids, cover.rows)  # row ids ascend, as in the cloud
        means = _ball_means(cover.sizes, pos, [vals])[0].tolist()  # assign_bins refuses an overflow

    nodes = tuple(map(GraphNode, cover.ball_ids, cover.sizes.tolist(), means))  # ball, size, mean
    return MapperGraph(nodes, _overlap_edges(cover.rows, cover.sizes))


def _overlap_edges(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Overlap edges as (source, target, shared) rows, ascending by (source, target).

    rows and sizes are a cover's: every ball's member row ids, ball after
    ball, and the ball sizes. Each point adds one to the shared count of
    every pair of balls holding it. Grouped by row id as the summaries group
    by ball id, the points held by m balls form one m-wide table of ball ids,
    ascending along each row; its column pairs are packed as source * (B + 1)
    + target keys, whose order is the order of (source, target).
    """
    stride = len(sizes) + 1
    balls = np.repeat(np.arange(1, stride, dtype=np.int64), sizes)
    _, mult, order = _groups(rows)  # the stable sort keeps balls ascending within a row
    keys = []
    for _, table in _by_size(mult, balls[order]):  # a table of m = 1 gives no key
        i, j = np.triu_indices(table.shape[1], 1)
        keys.append((table[:, i] * stride + table[:, j]).ravel())
    pairs, shared = np.unique(np.concatenate(keys), return_counts=True)
    return np.column_stack((pairs // stride, pairs % stride, shared))


def _check_bin_count(bin_count: int) -> None:
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise ValidationError(f"bin_count must be from 1 to {MAX_BIN_COUNT}, the legend's rows")


def assign_bins(
    graph: MapperGraph, bin_count: int = DEFAULT_BIN_COUNT
) -> tuple[ColorScale, MapperGraph]:
    """Attach a color bin to every node; requires color means on the graph.

    Over the scale's outer boundaries b0 and bk, a mean m is in bin
    min(trunc((m - b0) / w) + 1, bin_count) with w = (bk - b0) / bin_count, so
    on a boundary it may round to either side. No mean is below b0, the least
    of them. All means equal (no range) map to bin 1.
    """
    _check_bin_count(bin_count)
    if any(n.color_mean is None for n in graph.nodes):
        raise ValueError("graph has no color means to bin")

    means = np.array([n.color_mean for n in graph.nodes])
    lo, hi = float(means.min()), float(means.max())  # unlike min(), these keep a NaN
    width = (hi - lo) / bin_count
    if not math.isfinite(width) or width == 0 < hi - lo:
        raise ValidationError(
            f"color means span [{lo:.6g}, {hi:.6g}]: bin width {width:.6g} is out of float64 range"
        )
    boundaries = tuple(lo + (hi - lo) * i / bin_count for i in range(bin_count + 1))
    b0, bk = boundaries[0], boundaries[-1]
    bins = np.ones_like(means)
    if bk > b0:
        bins = np.minimum(np.trunc((means - b0) / ((bk - b0) / bin_count)) + 1, bin_count)
    nodes = tuple(GraphNode(n.ball, n.size, n.color_mean, b)
                  for n, b in zip(graph.nodes, bins.astype(int).tolist()))
    return ColorScale(boundaries), MapperGraph(nodes, graph.edges)


def connected_components(graph: MapperGraph) -> list[list[int]]:
    """Partition ball ids by edge connectivity; singletons stay alone.

    Components are sorted by their smallest ball id, members ascending.
    """
    parent = {n.ball: n.ball for n in graph.nodes}

    def root(b: int) -> int:
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]  # halve the path as it is walked
        return b

    for source, target, _shared in zip(*graph.edges.T.tolist()):
        a, b = root(source), root(target)
        parent[max(a, b)] = min(a, b)  # a root is its component's smallest id
    components: dict[int, list[int]] = {}
    for b in sorted(parent):  # a component is first met at its smallest id, its root
        components.setdefault(root(b), []).append(b)
    return list(components.values())
