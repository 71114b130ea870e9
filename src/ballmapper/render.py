"""SVG output: the cover graph (colored discs plus edges) and per-ball boxplots.

Rendering is pure string assembly with fixed number formatting, so identical
inputs always produce identical bytes. Graph element order is stable: edges,
then nodes ascending by ball id, then labels, then the legend. The graph has
no axes; its plane is abstract.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
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
# the legend's rows: a 14 px swatch every 20 px from y 30; graph.MAX_BIN_COUNT fit
_LEGEND_TOP, _LEGEND_PITCH, _SWATCH = 30, 20, 14


def _document(parts: list[str]) -> str:
    """Both SVGs' frame: the canvas and its background, the parts, one per line."""
    return "\n".join([SVG_OPEN, BACKGROUND_RECT, *parts, "</svg>\n"])


def _escape(text: str) -> str:
    """Escape &, > and < for XML text, in the order xml.sax.saxutils.escape does.

    Importing xml.sax.saxutils pulls in urllib.request, which every command
    would pay for at startup.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


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

    # each ball's pixel position, formatted once for its edges, disc and label
    px = {ball: tuple(map(_num, to_px(xy))) for ball, xy in positions.items()}
    max_size = max(n.size for n in graph.nodes)
    parts = []
    line_tail = f' stroke="{EDGE_COLOR}" stroke-width="{_num(EDGE_WIDTH)}"/>'
    for e in graph.edges:
        x1, y1 = px[e.source]
        x2, y2 = px[e.target]
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"{line_tail}')

    labels = []
    for n in graph.nodes:
        cx, cy = px[n.ball]
        r = _disc_radius(n.size, max_size)
        if scale is not None and n.color_bin is not None:
            fill = scale.color_for_bin(n.color_bin)
        else:
            fill = FALLBACK_FILL
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{_num(r)}" fill="{fill}" '
            f'stroke="{NODE_STROKE}" stroke-width="1"/>'
        )
        if options.show_labels:
            labels.append(
                f'<text x="{cx}" y="{cy}" font-size="{_num(max(8.0, 0.9 * r))}" '
                f'font-family="sans-serif" text-anchor="middle" '
                f'dominant-baseline="central">{n.ball}</text>'
            )
    parts.extend(labels)  # every label above every disc
    if legend_w:
        parts.extend(_legend(scale))
    return _document(parts)


def _legend(scale: ColorScale) -> list[str]:
    """The title, then one swatch and its bin's range per row, top bin first."""
    x = WIDTH - 158
    parts = [f'<text x="{x}" y="20" font-size="12" font-family="sans-serif">mean</text>']
    for b in range(scale.bin_count, 0, -1):
        y = _LEGEND_TOP + (scale.bin_count - b) * _LEGEND_PITCH
        close = "]" if b == scale.bin_count else ")"
        span = _escape(f"[{scale.boundaries[b - 1]:.4g}, {scale.boundaries[b]:.4g}{close}")
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_SWATCH}" height="{_SWATCH}" '
            f'fill="{scale.color_for_bin(b)}" stroke="{NODE_STROKE}"/>\n'
            f'<text x="{x + 20}" y="{y + 11}" font-size="11" font-family="sans-serif">{span}</text>'
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
    fault = f"the values from {lo!r} to {hi!r} span more than float64 can hold"
    if hi <= lo:  # past 2**53, v - 1.0 == v: widen by a float64 step instead
        fault = f"every value is {lo!r}: float64 leaves no room for an axis around it"
        lo, hi = lo - max(1.0, math.ulp(lo)), hi + max(1.0, math.ulp(hi))
    if not math.isfinite(hi - lo):
        raise ValidationError(fault)

    def to_y(v):
        return top + (hi - v) / (hi - lo) * plot_h

    line = '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="#444444" stroke-width="1"/>'.format
    parts = [f'<text x="{left}" y="18" font-size="13" font-family="sans-serif">'
             f"{_escape(title)}</text>"] if title else []
    axis_x = left - 8  # the y axis, with a handful of value ticks
    parts.append(line(axis_x, _num(to_y(hi)), axis_x, _num(to_y(lo))))
    for i in range(5):
        v = lo + (hi - lo) * (i / 4)  # (hi - lo) * i could overflow
        y = to_y(v)
        parts.append(
            f'{line(axis_x - 4, _num(y), axis_x, _num(y))}\n<text x="{axis_x - 6}" '
            f'y="{_num(y + 4)}" font-size="10" font-family="sans-serif" '
            f'text-anchor="end">{v:.4g}</text>'
        )

    slot = plot_w / len(rows)
    box_w = slot * 0.5
    width = _num(box_w)
    for i, r in enumerate(rows):
        cx = left + (i + 0.5) * slot
        y_q25, y_q75 = to_y(r.q25), to_y(r.q75)
        x, cap_l, cap_r, box_l, box_r = map(
            _num, (cx, cx - box_w / 4, cx + box_w / 4, cx - box_w / 2, cx + box_w / 2))
        y_min, y_max, q75, med = map(_num, (to_y(r.min), to_y(r.max), y_q75, to_y(r.q50)))
        parts.append(
            f'{line(x, y_max, x, y_min)}\n{line(cap_l, y_min, cap_r, y_min)}\n'
            f'{line(cap_l, y_max, cap_r, y_max)}\n'
            f'<rect x="{box_l}" y="{q75}" width="{width}" height="{_num(y_q25 - y_q75)}" '
            f'fill="#9db8e8" stroke="#2c4fd8" stroke-width="1"/>\n'
            f'<line x1="{box_l}" y1="{med}" x2="{box_r}" y2="{med}" '
            f'stroke="#1a1a1a" stroke-width="1.5"/>\n'
            f'<text x="{x}" y="{HEIGHT - 14}" font-size="10" font-family="sans-serif" '
            f'text-anchor="middle">{r.ball}</text>'
        )
    return _document(parts)
