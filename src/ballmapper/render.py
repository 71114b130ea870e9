"""SVG output: the cover graph (colored discs plus edges) and per-ball boxplots.

Rendering is pure string assembly with fixed number formatting, so identical
inputs always produce identical bytes. Graph element order is stable: edges,
then nodes ascending by ball id, then labels, then the legend. The graph has
no axes; its plane is abstract.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

from .graph import FALLBACK_FILL, ColorScale, MapperGraph

WIDTH = 900
HEIGHT = 640
MIN_RADIUS = 4.0
MAX_RADIUS = 32.0
EDGE_COLOR = "#9a9a9a"
EDGE_WIDTH = 1.5
NODE_STROKE = "#333333"
BACKGROUND = "#ffffff"

SVG_OPEN = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}">'
)
BACKGROUND_RECT = f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="{BACKGROUND}"/>'


@dataclass(frozen=True)
class RenderOptions:
    show_labels: bool = False


def _num(x: float) -> str:
    return f"{x:.2f}"


def _disc_radius(size: int, max_size: int) -> float:
    # area proportional to point count: radius grows with sqrt(n_b)
    r = MAX_RADIUS * math.sqrt(size / max_size)
    return min(MAX_RADIUS, max(MIN_RADIUS, r))


def render_graph_svg(
    graph: MapperGraph,
    positions: dict[int, tuple[float, float]],
    scale: ColorScale | None = None,
    options: RenderOptions = RenderOptions(),
) -> str:
    """Serialize the graph as an SVG document string; a scale adds a legend."""
    missing = [n.ball for n in graph.nodes if n.ball not in positions]
    if missing:
        raise ValueError(f"no layout position for balls {missing}")

    legend_w = 0 if scale is None else 170
    margin = MAX_RADIUS + 12
    plot_w = WIDTH - legend_w - 2 * margin
    plot_h = HEIGHT - 2 * margin

    def to_px(xy):
        x, y = xy
        return margin + x * plot_w, margin + (1.0 - y) * plot_h

    max_size = max(n.size for n in graph.nodes)
    parts = [SVG_OPEN, BACKGROUND_RECT]
    for e in graph.edges:
        x1, y1 = to_px(positions[e.source])
        x2, y2 = to_px(positions[e.target])
        parts.append(
            f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{EDGE_COLOR}" stroke-width="{_num(EDGE_WIDTH)}"/>'
        )

    radii = {}
    for n in graph.nodes:
        cx, cy = to_px(positions[n.ball])
        r = _disc_radius(n.size, max_size)
        radii[n.ball] = (cx, cy, r)
        if scale is not None and n.color_bin is not None:
            fill = scale.color_for_bin(n.color_bin)
        else:
            fill = FALLBACK_FILL
        parts.append(
            f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="{_num(r)}" fill="{fill}" '
            f'stroke="{NODE_STROKE}" stroke-width="1"/>'
        )

    if options.show_labels:
        for n in graph.nodes:
            cx, cy, r = radii[n.ball]
            font = max(8.0, 0.9 * r)
            parts.append(
                f'<text x="{_num(cx)}" y="{_num(cy)}" font-size="{_num(font)}" '
                f'font-family="sans-serif" text-anchor="middle" '
                f'dominant-baseline="central">{n.ball}</text>'
            )

    if legend_w:
        parts.extend(_legend(scale))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _legend(scale: ColorScale) -> list[str]:
    x = WIDTH - 158
    parts = [
        f'<text x="{x}" y="20" font-size="12" font-family="sans-serif">mean</text>'
    ]
    for b in range(scale.bin_count, 0, -1):
        lo = scale.boundaries[b - 1]
        hi = scale.boundaries[b]
        y = 30 + (scale.bin_count - b) * 20
        close = "]" if b == scale.bin_count else ")"
        label = escape(f"[{lo:.4g}, {hi:.4g}{close}")
        parts.append(
            f'<rect x="{x}" y="{y}" width="14" height="14" '
            f'fill="{scale.color_for_bin(b)}" stroke="{NODE_STROKE}"/>'
        )
        parts.append(
            f'<text x="{x + 20}" y="{y + 11}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    return parts


def render_boxplot_svg(stats, title: str = "") -> str:
    """Box-and-whisker glyph per ball, ordered by ball id on the x axis.

    stats rows must carry ball, min, q25, q50, q75, max attributes (the
    distribution table produced by variable_summary).
    """
    rows = sorted(stats, key=lambda r: r.ball)
    if not rows:
        raise ValueError("no distribution rows to plot")
    for r in rows:
        for attr in ("min", "q25", "q50", "q75", "max"):
            if getattr(r, attr) is None:
                raise ValueError(f"ball {r.ball} is missing quantile {attr!r}")

    left, right, top, bottom = 64, 16, 28, 36
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom
    lo = min(r.min for r in rows)
    hi = max(r.max for r in rows)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0

    def to_y(v):
        return top + (hi - v) / (hi - lo) * plot_h

    parts = [SVG_OPEN, BACKGROUND_RECT]
    if title:
        parts.append(
            f'<text x="{left}" y="18" font-size="13" font-family="sans-serif">'
            f"{escape(title)}</text>"
        )

    # y axis with a handful of value ticks
    axis_x = left - 8
    parts.append(
        f'<line x1="{axis_x}" y1="{_num(to_y(hi))}" x2="{axis_x}" y2="{_num(to_y(lo))}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        y = to_y(v)
        parts.append(
            f'<line x1="{axis_x - 4}" y1="{_num(y)}" x2="{axis_x}" y2="{_num(y)}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{axis_x - 6}" y="{_num(y + 4)}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{v:.4g}</text>'
        )

    slot = plot_w / len(rows)
    box_w = slot * 0.5
    for i, r in enumerate(rows):
        cx = left + (i + 0.5) * slot
        y_min, y_max = to_y(r.min), to_y(r.max)
        y_q25, y_q75 = to_y(r.q25), to_y(r.q75)
        y_med = to_y(r.q50)
        parts.append(
            f'<line x1="{_num(cx)}" y1="{_num(y_max)}" x2="{_num(cx)}" y2="{_num(y_min)}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        for y_cap in (y_min, y_max):
            parts.append(
                f'<line x1="{_num(cx - box_w / 4)}" y1="{_num(y_cap)}" '
                f'x2="{_num(cx + box_w / 4)}" y2="{_num(y_cap)}" '
                f'stroke="#444444" stroke-width="1"/>'
            )
        parts.append(
            f'<rect x="{_num(cx - box_w / 2)}" y="{_num(y_q75)}" width="{_num(box_w)}" '
            f'height="{_num(y_q25 - y_q75)}" fill="#9db8e8" stroke="#2c4fd8" '
            f'stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_num(cx - box_w / 2)}" y1="{_num(y_med)}" '
            f'x2="{_num(cx + box_w / 2)}" y2="{_num(y_med)}" '
            f'stroke="#1a1a1a" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_num(cx)}" y="{HEIGHT - 14}" font-size="10" '
            f'font-family="sans-serif" text-anchor="middle">{r.ball}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
