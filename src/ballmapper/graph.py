"""Abstract graph over a ball cover: sized nodes, overlap edges, color bins."""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .cover import BallCover, membership_matrix
from .errors import ColorLengthMismatchError, ValidationError

DEFAULT_BIN_COUNT = 8
# Documented palette endpoints: low bins blue, high bins red.
PALETTE_LOW = (0x2C, 0x4F, 0xD8)
PALETTE_HIGH = (0xD8, 0x2C, 0x2C)
FALLBACK_FILL = "#b0b0b0"


@dataclass(frozen=True)
class GraphNode:
    ball: int
    size: int
    color_mean: float | None = None
    color_bin: int | None = None


@dataclass(frozen=True)
class GraphEdge:
    """Unordered ball pair with a non-empty member intersection."""

    source: int
    target: int
    shared: int


@dataclass(frozen=True)
class MapperGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ColorScale:
    """Equal-width bins over the ball-mean range, one palette color per bin.

    Bins are half-open [lo, hi) except the last, which is closed. A degenerate
    range (all means equal) maps everything to bin 1.
    """

    bin_count: int
    boundaries: tuple[float, ...]
    palette: tuple[str, ...]

    def bin_for(self, mean: float) -> int:
        lo = self.boundaries[0]
        hi = self.boundaries[-1]
        if hi <= lo:
            return 1
        width = (hi - lo) / self.bin_count
        b = int((mean - lo) / width) + 1
        return min(max(b, 1), self.bin_count)

    def color_for_bin(self, b: int) -> str:
        return self.palette[b - 1]


def default_palette(bin_count: int) -> tuple[str, ...]:
    """Linear RGB ramp from blue to red across the bins."""
    colors = []
    for i in range(bin_count):
        t = i / (bin_count - 1) if bin_count > 1 else 0.0
        rgb = (round(lo + t * (hi - lo)) for lo, hi in zip(PALETTE_LOW, PALETTE_HIGH))
        colors.append("#" + "".join(f"{c:02x}" for c in rgb))
    return tuple(colors)


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
            raise ColorLengthMismatchError(cover.n_points, int(np.prod(vals.shape)))
        if not np.all(np.isfinite(vals)):
            raise ValueError("color values must all be finite")
        by_row = dict(zip(cover.row_ids, vals))
        # A mean that overflows is left as inf or nan for assign_bins to refuse.
        with np.errstate(over="ignore", invalid="ignore"):
            means = [
                float(np.mean([by_row[r] for r in member_rows]))
                for member_rows in cover.members
            ]

    nodes = tuple(
        GraphNode(ball=b, size=len(m), color_mean=means[b - 1])
        for b, m in enumerate(cover.members, start=1)
    )

    # Each point adds one to the shared count of every pair of balls holding it.
    shared: Counter[tuple[int, int]] = Counter()
    for balls in membership_matrix(cover).values():
        shared.update(combinations(balls, 2))
    edges = tuple(GraphEdge(q, s, n) for (q, s), n in sorted(shared.items()))
    return MapperGraph(nodes, edges)


def assign_bins(
    graph: MapperGraph, bin_count: int = DEFAULT_BIN_COUNT
) -> tuple[ColorScale, MapperGraph]:
    """Attach a color bin to every node; requires color means on the graph."""
    if bin_count < 1:
        raise ValidationError("bin_count must be positive")
    if any(n.color_mean is None for n in graph.nodes):
        raise ValueError("graph has no color means to bin")

    means = [n.color_mean for n in graph.nodes]
    lo, hi = float(np.min(means)), float(np.max(means))  # unlike min(), these keep a NaN
    width = (hi - lo) / bin_count
    if not math.isfinite(width) or width == 0 < hi - lo:
        raise ValidationError(
            f"color means span [{lo:.6g}, {hi:.6g}]: bin width {width:.6g} is out of float64 range"
        )
    boundaries = tuple(lo + (hi - lo) * i / bin_count for i in range(bin_count + 1))
    scale = ColorScale(bin_count, boundaries, default_palette(bin_count))
    nodes = tuple(replace(n, color_bin=scale.bin_for(n.color_mean)) for n in graph.nodes)
    return scale, MapperGraph(nodes, graph.edges)


def connected_components(graph: MapperGraph) -> list[list[int]]:
    """Partition ball ids by edge connectivity; singletons stay alone.

    Components are sorted by their smallest ball id, members ascending.
    """
    adjacency: dict[int, list[int]] = {n.ball: [] for n in graph.nodes}
    for e in graph.edges:
        adjacency[e.source].append(e.target)
        adjacency[e.target].append(e.source)

    seen = set()
    components = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(sorted(comp))
    return components
