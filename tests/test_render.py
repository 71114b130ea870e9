import math
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper import render
from ballmapper.errors import ValidationError
from ballmapper.graph import MAX_BIN_COUNT
from ballmapper.render import FALLBACK_FILL, _disc_radius, _escape, _legend, _num, _palette
from ballmapper.summary import BallDistributionRow

from conftest import laid_out_graphs


@given(st.text(alphabet="&<>;ag\"'", max_size=10))
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def svg_tags(svg):
    root = ET.fromstring(svg)
    return [el.tag.split("}")[1] for el in root.iter()]


def graph_with_layout(cover, color=None, bins=None):
    g = bm.build_graph(cover, color)
    scale = None
    if color is not None:
        scale, g = bm.assign_bins(g, bins or 8)
    return g, bm.compute_layout(g, iterations=60), scale


class TestRenderGraphSvg:
    def test_single_ball(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0]]), (0,))
        g, layout, _ = graph_with_layout(bm.build_cover(cloud, 1.0))
        svg = bm.render_graph_svg(g, layout)
        tags = svg_tags(svg)
        assert tags.count("circle") == 1
        assert tags.count("line") == 0

    def test_line_cover_two_equal_discs_one_edge(self, line_cover):
        g, layout, _ = graph_with_layout(line_cover)
        svg = bm.render_graph_svg(g, layout)
        tags = svg_tags(svg)
        assert tags.count("circle") == 2
        assert tags.count("line") == 1
        radii = [el.get("r") for el in ET.fromstring(svg).iter() if el.tag.endswith("circle")]
        assert radii[0] == radii[1]  # both balls hold two points

    def test_counts_match_graph(self, auto_cover, auto_raw):
        color = auto_raw.numeric_column("foreign")
        g, layout, scale = graph_with_layout(auto_cover, color)
        svg = bm.render_graph_svg(g, layout, scale)
        tags = svg_tags(svg)
        assert tags.count("circle") == g.n_nodes
        assert tags.count("line") == len(g.edges)

    def test_labels_rendered_when_asked(self, auto_cover):
        g, layout, _ = graph_with_layout(auto_cover)
        svg = bm.render_graph_svg(g, layout, options=bm.RenderOptions(show_labels=True))
        texts = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
        assert texts == [str(b) for b in auto_cover.ball_ids]

    def test_x_dataset_label_count(self):
        cloud = bm.gen_x_dataset(bm.XDatasetSpec(seed=1))
        pc = bm.PointCloud(
            ("x1", "x2"),
            np.column_stack([cloud.column("x1"), cloud.column("x2")]),
            cloud.row_ids,
        )
        cover = bm.build_cover(pc, 1.2)
        assert 70 <= cover.n_balls <= 90
        g, layout, scale = graph_with_layout(cover, cloud.column("y5"))
        svg = bm.render_graph_svg(g, layout, scale, bm.RenderOptions(show_labels=True))
        root = ET.fromstring(svg)
        labels = [el for el in root.iter()
                  if el.tag.endswith("text") and el.get("text-anchor") == "middle"]
        assert len(labels) == cover.n_balls

    def test_byte_determinism(self, auto_cover):
        g, layout, _ = graph_with_layout(auto_cover)
        assert bm.render_graph_svg(g, layout) == bm.render_graph_svg(g, layout)

    def test_stable_element_order(self, auto_cover, auto_raw):
        g, layout, scale = graph_with_layout(auto_cover, auto_raw.numeric_column("price"))
        svg = bm.render_graph_svg(g, layout, scale, bm.RenderOptions(show_labels=True))
        background = svg.find("<rect")
        legend_rect = svg.find("<rect", background + 1)
        assert background < svg.find("<line")
        assert svg.rfind("<line") < svg.find("<circle")  # edges beneath nodes
        assert svg.rfind("<circle") < svg.find("<text")  # labels after nodes
        assert legend_rect > svg.rfind("<circle")  # legend last
        labels = [line for line in svg.splitlines() if line.startswith("<text")]
        assert [l.split(">")[1].split("<")[0] for l in labels[: g.n_nodes]] == [
            str(n.ball) for n in g.nodes
        ]

    def test_disc_area_tracks_ball_size(self, auto_cover):
        g, layout, _ = graph_with_layout(auto_cover)
        svg = bm.render_graph_svg(g, layout)  # the smallest disc (7.8 px) is not clamped
        circles = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("circle")]
        sizes = [n.size for n in g.nodes]
        radii = [float(c.get("r")) for c in circles]
        for i in range(len(sizes)):
            for j in range(len(sizes)):
                expected = sizes[i] / sizes[j]
                got = (radii[i] / radii[j]) ** 2
                assert got == pytest.approx(expected, rel=0.05)  # r printed at 2 dp

    def test_legend_swatches_match_bins(self, auto_cover, auto_raw):
        color = auto_raw.numeric_column("price")
        g, layout, scale = graph_with_layout(auto_cover, color, bins=6)
        svg = bm.render_graph_svg(g, layout, scale)
        rects = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("rect")]
        assert len(rects) == 1 + 6  # background + one swatch per bin

    def test_legend_of_most_bins_fits_canvas(self, auto_cover, auto_raw):
        color = auto_raw.numeric_column("price")
        g, layout, scale = graph_with_layout(auto_cover, color, bins=MAX_BIN_COUNT)
        root = ET.fromstring(bm.render_graph_svg(g, layout, scale))
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert len(rects) == 1 + MAX_BIN_COUNT and len(texts) == 1 + MAX_BIN_COUNT
        assert max(float(el.get("y")) + float(el.get("height")) for el in rects) <= render.HEIGHT
        assert max(float(el.get("y")) + float(el.get("font-size")) for el in texts) <= render.HEIGHT
        # the cap is tight: a 31st row's swatch would end at 644, past the canvas
        last = max(float(el.get("y")) for el in rects)
        assert last == render._LEGEND_TOP + (MAX_BIN_COUNT - 1) * render._LEGEND_PITCH
        assert last + render._LEGEND_PITCH + render._SWATCH == 644 > render.HEIGHT

    def test_positions_must_cover_nodes(self, line_cover):
        g = bm.build_graph(line_cover)
        with pytest.raises(ValueError, match="position"):
            bm.render_graph_svg(g, {1: (0.0, 0.0)})


def _render_graph_svg_reference(graph, positions, scale=None, options=bm.RenderOptions()):
    """render_graph_svg before each ball's pixel text was made once: every
    edge endpoint, disc and label converted and formatted on its own."""
    legend_w = 0 if scale is None else 170
    margin = render.MAX_RADIUS + 12
    plot_w = render.WIDTH - legend_w - 2 * margin
    plot_h = render.HEIGHT - 2 * margin

    def to_px(xy):
        x, y = xy
        return margin + x * plot_w, margin + (1.0 - y) * plot_h

    max_size = max(n.size for n in graph.nodes)
    parts = [render.SVG_OPEN, render.BACKGROUND_RECT]
    for source, target, _shared in graph.edges.tolist():
        x1, y1 = to_px(positions[source])
        x2, y2 = to_px(positions[target])
        parts.append(
            f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{render.EDGE_COLOR}" stroke-width="{_num(render.EDGE_WIDTH)}"/>'
        )
    radii = {}
    for n in graph.nodes:
        cx, cy = to_px(positions[n.ball])
        r = _disc_radius(n.size, max_size)
        radii[n.ball] = (cx, cy, r)
        if scale is not None and n.color_bin is not None:
            fill = _palette(scale.bin_count)[n.color_bin - 1]
        else:
            fill = FALLBACK_FILL
        parts.append(
            f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="{_num(r)}" fill="{fill}" '
            f'stroke="{render.NODE_STROKE}" stroke-width="1"/>'
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
        parts.extend(_legend_reference(scale))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _legend_reference(scale):
    """render._legend before each row was one template: swatch and label apart."""
    x = render.WIDTH - 158
    parts = [
        f'<text x="{x}" y="20" font-size="12" font-family="sans-serif">mean</text>'
    ]
    for b in range(scale.bin_count, 0, -1):
        lo = scale.boundaries[b - 1]
        hi = scale.boundaries[b]
        y = 30 + (scale.bin_count - b) * 20
        close = "]" if b == scale.bin_count else ")"
        label = _escape(f"[{lo:.4g}, {hi:.4g}{close}")
        parts.append(
            f'<rect x="{x}" y="{y}" width="14" height="14" '
            f'fill="{_palette(scale.bin_count)[b - 1]}" stroke="{render.NODE_STROKE}"/>'
        )
        parts.append(
            f'<text x="{x + 20}" y="{y + 11}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    return parts


@given(laid_out_graphs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_graph_svg_matches_per_edge_renderer(inputs, labels):
    graph, positions, scale = inputs
    options = bm.RenderOptions(show_labels=labels)
    assert (bm.render_graph_svg(graph, positions, scale, options)
            == _render_graph_svg_reference(graph, positions, scale, options))


def test_graph_svg_matches_per_edge_renderer_on_auto(auto_cover, auto_raw):
    g, layout, scale = graph_with_layout(auto_cover, auto_raw.numeric_column("price"))
    for options in (bm.RenderOptions(), bm.RenderOptions(show_labels=True)):
        for s in (scale, None):
            assert (bm.render_graph_svg(g, layout, s, options)
                    == _render_graph_svg_reference(g, layout, s, options))


@st.composite
def legend_scales(draw):
    """Scales of 1 to MAX_BIN_COUNT bins whose boundaries are negative, huge
    (|b| >= 1e300, either sign) or equal under .4g (1e-9 apart, relatively)."""
    bins = draw(st.integers(1, MAX_BIN_COUNT))
    kind = draw(st.sampled_from(["negative", "huge", "equal_4g"]))
    if kind == "negative":
        cell = st.floats(-1e12, -1e-12)
    elif kind == "huge":
        cell = st.tuples(st.booleans(), st.floats(1e300, 1.7e308)).map(
            lambda t: -t[1] if t[0] else t[1])
    else:
        base = draw(st.floats(-1e6, 1e6))
        cell = st.integers(0, 10).map(lambda i: base * (1 + i * 1e-9))
    values = sorted(draw(st.lists(cell, min_size=bins + 1, max_size=bins + 1)))
    return bm.ColorScale(tuple(values))


@given(legend_scales(), st.data())
@settings(max_examples=200, deadline=None)
def test_legend_matches_reference(scale, data):
    legend = _legend(scale, _palette(scale.bin_count))
    assert "\n".join(legend) == "\n".join(_legend_reference(scale))
    n = data.draw(st.integers(1, 3))
    nodes = tuple(bm.GraphNode(b, b, 0.0, data.draw(st.integers(1, scale.bin_count)))
                  for b in range(1, n + 1))
    graph = bm.MapperGraph(nodes, ())
    positions = {b: (data.draw(st.floats(0, 1)), data.draw(st.floats(0, 1)))
                 for b in range(1, n + 1)}
    for options in (bm.RenderOptions(), bm.RenderOptions(show_labels=True)):
        assert (bm.render_graph_svg(graph, positions, scale, options)
                == _render_graph_svg_reference(graph, positions, scale, options))


def dist_row(ball, lo, q25, q50, q75, hi, size=3):
    mean = (lo + hi) / 2
    return BallDistributionRow(ball, mean, 1.0, lo, q25, q50, q75, hi, size)


class TestRenderBoxplotSvg:
    def test_degenerate_single_ball(self):
        svg = bm.render_boxplot_svg([dist_row(1, 5.0, 5.0, 5.0, 5.0, 5.0, size=1)])
        root = ET.fromstring(svg)
        rects = [el for el in root.iter()
                 if el.tag.endswith("rect") and el.get("height") == "0.00"]
        assert len(rects) == 1

    def test_disjoint_ranges_share_axis(self):
        rows = [dist_row(1, 0.0, 0.2, 0.5, 0.8, 1.0), dist_row(2, 10.0, 10.2, 10.5, 10.8, 11.0)]
        svg = bm.render_boxplot_svg(rows)
        root = ET.fromstring(svg)
        boxes = [el for el in root.iter()
                 if el.tag.endswith("rect") and el.get("fill") == "#9db8e8"]
        assert len(boxes) == 2
        assert float(boxes[0].get("y")) > float(boxes[1].get("y"))  # ball 1 sits lower

    def test_auto_price_boxplot(self, auto_cover, auto_raw):
        table = bm.variable_summary(auto_cover, auto_raw, "price")
        svg = bm.render_boxplot_svg(table.rows, title="price")
        root = ET.fromstring(svg)
        boxes = [el for el in root.iter()
                 if el.tag.endswith("rect") and el.get("fill") == "#9db8e8"]
        assert len(boxes) == 19
        assert max(r.max for r in table.rows) == 15906.0  # ball 8 tops the shared axis

    def test_glyphs_ordered_by_ball_id(self):
        rows = [dist_row(2, 0, 0, 1, 2, 2), dist_row(1, 0, 0, 1, 2, 2)]
        svg = bm.render_boxplot_svg(rows)
        root = ET.fromstring(svg)
        ticks = [el.text for el in root.iter()
                 if el.tag.endswith("text") and el.get("text-anchor") == "middle"]
        assert ticks == ["1", "2"]

    def test_overflowing_range_refused(self):
        rows = [dist_row(1, 1e308, 1e308, 1e308, 1e308, 1e308, size=1),
                dist_row(2, -1e308, -1e308, -1e308, -1e308, -1e308, size=1)]
        with pytest.raises(ValidationError,
                           match="from -1e[+]308 to 1e[+]308 span more than float64 can hold"):
            bm.render_boxplot_svg(rows)

    def test_wide_finite_range_has_finite_coordinates(self):
        rows = [dist_row(1, 5e307, 5e307, 5e307, 5e307, 5e307, size=1),
                dist_row(2, -5e307, -5e307, -5e307, -5e307, -5e307, size=1)]
        svg = bm.render_boxplot_svg(rows)
        assert "inf" not in svg and "nan" not in svg

    @pytest.mark.parametrize("value", [1.0, 2.0**53, 1e16, 5e307, -5e307, 1.7e308])
    def test_all_equal_range_drawn_at_mid_height(self, value):
        # the reference widened the range by 1.0 alone, so from 2**53 up it
        # stayed empty and raised ZeroDivisionError
        svg = bm.render_boxplot_svg([dist_row(1, *[value] * 5, size=1)])
        assert _box_tops(svg) == {"316.00"}
        assert "inf" not in svg and "nan" not in svg

    @pytest.mark.parametrize("value", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_all_equal_range_at_float64_limit_refused(self, value):
        # no float64 step fits beyond the largest float, so the widened span
        # overflows; the message names the value the balls hold, not that span
        with pytest.raises(ValidationError, match=re.escape(f"every value is {value!r}:")):
            bm.render_boxplot_svg([dist_row(1, *[value] * 5, size=1)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bm.render_boxplot_svg([])


def _render_boxplot_svg_reference(stats, title=""):
    """render_boxplot_svg before each ball was one template: every line, box,
    median and label written and every coordinate formatted on its own."""
    rows = sorted(stats, key=lambda r: r.ball)
    if not rows:
        raise ValueError("no distribution rows to plot")
    for r in rows:
        for attr in ("min", "q25", "q50", "q75", "max"):
            if getattr(r, attr) is None:
                raise ValueError(f"ball {r.ball} is missing quantile {attr!r}")

    left, right, top, bottom = 64, 16, 28, 36
    plot_w = render.WIDTH - left - right
    plot_h = render.HEIGHT - top - bottom
    lo = min(r.min for r in rows)
    hi = max(r.max for r in rows)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    if not math.isfinite(hi - lo):
        raise ValidationError(
            f"the values from {lo!r} to {hi!r} span more than float64 can hold"
        )

    def to_y(v):
        return top + (hi - v) / (hi - lo) * plot_h

    parts = [render.SVG_OPEN, render.BACKGROUND_RECT]
    if title:
        parts.append(
            f'<text x="{left}" y="18" font-size="13" font-family="sans-serif">'
            f"{_escape(title)}</text>"
        )

    # y axis with a handful of value ticks
    axis_x = left - 8
    parts.append(
        f'<line x1="{axis_x}" y1="{_num(to_y(hi))}" x2="{axis_x}" y2="{_num(to_y(lo))}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    for i in range(5):
        v = lo + (hi - lo) * (i / 4)  # (hi - lo) * i could overflow
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
            f'<text x="{_num(cx)}" y="{render.HEIGHT - 14}" font-size="10" '
            f'font-family="sans-serif" text-anchor="middle">{r.ball}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# one statistic: an int, a float, a value from 2**53 up (where v - 1.0 == v
# can hold), or one that spans near ±5e307 with its opposite (the widest
# range whose span float64 still holds)
STATISTIC = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(-1e6, 1e6),
    st.sampled_from([5e307, -5e307, 4.9e307, -4.9e307, 0.0, -0.0, 2.0**53, 1e16]),
    st.floats(-5e307, 5e307),
)


@st.composite
def boxplot_inputs(draw):
    """(rows, title): 1 to 40 rows with distinct unsorted ball ids up to 2**62,
    sorted statistics, sometimes all one value (the degenerate range), and a
    title that is empty or holds XML's special characters."""
    n = draw(st.integers(1, 40))
    balls = draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        value = draw(STATISTIC)
        stats = [[value] * 5 for _ in balls]
    else:
        stats = [sorted(draw(st.lists(STATISTIC, min_size=5, max_size=5))) for _ in balls]
    rows = [BallDistributionRow(b, 0.0, None, *s, 1) for b, s in zip(balls, stats)]
    return rows, draw(st.text(alphabet="ab &<>\"'", max_size=8))


@given(boxplot_inputs())
@settings(max_examples=300, deadline=None)
def test_boxplot_svg_matches_per_element_renderer(inputs):
    rows, title = inputs
    values = {v for r in rows for v in (r.min, r.q25, r.q50, r.q75, r.max)}
    if len(values) == 1 and abs(rows[0].min) >= 2**53:
        # v - 1.0 rounds back to v: the reference's range stays empty and it
        # raises ZeroDivisionError, or at exactly ±2**53 keeps one ulp and
        # draws every box on an end of the axis
        assert _box_tops(bm.render_boxplot_svg(rows, title)) == {"316.00"}
    else:
        assert bm.render_boxplot_svg(rows, title) == _render_boxplot_svg_reference(rows, title)


def _box_tops(svg):
    return {el.get("y") for el in ET.fromstring(svg).iter()
            if el.tag.endswith("rect") and el.get("fill") == "#9db8e8"}


def test_boxplot_svg_matches_per_element_renderer_on_auto(auto_cover, auto_raw):
    rows = bm.variable_summary(auto_cover, auto_raw, "price").rows
    for title in ("", "price", "a&b<c>\"'"):
        assert bm.render_boxplot_svg(rows, title) == _render_boxplot_svg_reference(rows, title)
