import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ballmapper as bm
from ballmapper.summary import BallDistributionRow


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

    def test_positions_must_cover_nodes(self, line_cover):
        g = bm.build_graph(line_cover)
        with pytest.raises(ValueError, match="position"):
            bm.render_graph_svg(g, {1: (0.0, 0.0)})


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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bm.render_boxplot_svg([])
