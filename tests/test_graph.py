import numpy as np
import pytest
from hypothesis import given, settings

import ballmapper as bm
from ballmapper.errors import ColorLengthMismatchError
from ballmapper.graph import default_palette

from conftest import cover_inputs, random_cloud


def _edges_reference(cover):
    """The original all-pairs set-intersection loop, kept verbatim as the oracle."""
    member_sets = [set(m) for m in cover.members]
    edges = []
    for q in range(cover.n_balls):
        for s in range(q + 1, cover.n_balls):
            shared = len(member_sets[q] & member_sets[s])
            if shared:
                edges.append(bm.GraphEdge(q + 1, s + 1, shared))
    return tuple(edges)


class TestBuildGraph:
    def test_line_cover_with_color(self, line_cover):
        g = bm.build_graph(line_cover, [2.0, 4.0, 6.0])
        assert [n.color_mean for n in g.nodes] == [3.0, 5.0]
        assert [n.size for n in g.nodes] == [2, 2]
        assert g.edges == (bm.GraphEdge(1, 2, 1),)

    def test_single_ball_no_edges(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0], [0.5]]), (0, 1))
        g = bm.build_graph(bm.build_cover(cloud, 1.0))
        assert g.edges == ()
        assert g.nodes[0].color_mean is None

    def test_color_length_mismatch(self, line_cover):
        with pytest.raises(ColorLengthMismatchError):
            bm.build_graph(line_cover, [1.0, 2.0])

    def test_binary_color_means_bounded(self):
        cloud = bm.gen_x_dataset(bm.XDatasetSpec(seed=2))
        pc = bm.PointCloud(
            ("x1", "x2"),
            np.column_stack([cloud.column("x1"), cloud.column("x2")]),
            cloud.row_ids,
        )
        cover = bm.build_cover(pc, 1.2)
        y5 = cloud.column("y5")
        g = bm.build_graph(cover, y5)
        for n in g.nodes:
            assert 0.0 <= n.color_mean <= 1.0
            members = list(cover.members[n.ball - 1])
            if np.all(y5[members] == 1.0):
                assert n.color_mean == 1.0
            if np.all(y5[members] == 0.0):
                assert n.color_mean == 0.0

    @given(cover_inputs())
    @settings(max_examples=200, deadline=None)
    def test_edges_match_brute_force_intersections(self, inputs):
        cover = bm.build_cover(*inputs)
        edges = bm.build_graph(cover).edges
        assert edges == _edges_reference(cover)
        assert all(e.shared >= 1 and e.source < e.target for e in edges)

    @pytest.mark.parametrize("order", ["data", "shuffle"])
    def test_edges_match_reference_on_gaussian_cloud(self, order):
        cover = bm.build_cover(bm.gen_gaussian_cloud(2000, 3, seed=4), 0.5, order=order, seed=8)
        assert cover.n_balls > 100
        assert bm.build_graph(cover).edges == _edges_reference(cover)

    def test_constant_color(self, line_cover):
        g = bm.build_graph(line_cover, [5.0, 5.0, 5.0])
        assert [n.color_mean for n in g.nodes] == [5.0, 5.0]
        _, binned = bm.assign_bins(g)
        assert [n.color_bin for n in binned.nodes] == [1, 1]

    def test_mean_bounds_subset_of_color_range(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, n=150, k=2)
        color = rng.normal(size=150)
        g = bm.build_graph(bm.build_cover(cloud, 0.9), color)
        means = [n.color_mean for n in g.nodes]
        assert min(means) >= color.min()
        assert max(means) <= color.max()


class TestAssignBins:
    def binned(self, means, bin_count):
        cloud = bm.PointCloud(
            ("x",), np.arange(len(means), dtype=float).reshape(-1, 1) * 10.0,
            tuple(range(len(means))),
        )
        cover = bm.build_cover(cloud, 1.0)  # singleton ball per point
        g = bm.build_graph(cover, list(means))
        scale, out = bm.assign_bins(g, bin_count)
        return scale, [n.color_bin for n in out.nodes]

    def test_two_bins_at_extremes(self):
        _, bins = self.binned([0.0, 1.0], 2)
        assert bins == [1, 2]

    def test_all_equal_degenerate(self):
        _, bins = self.binned([5.0, 5.0, 5.0], 4)
        assert bins == [1, 1, 1]

    def test_half_open_intervals_last_closed(self):
        # boundary value 0.5 opens bin 2: intervals are [0, 0.5), [0.5, 1]
        _, bins = self.binned([0.0, 0.5, 1.0], 2)
        assert bins == [1, 2, 2]

    def test_boundaries_ascending_and_cover_range(self):
        scale, bins = self.binned([0.0, 0.3, 0.9, 2.7], 8)
        assert scale.boundaries[0] == 0.0
        assert scale.boundaries[-1] == 2.7
        assert all(a < b for a, b in zip(scale.boundaries, scale.boundaries[1:]))
        assert all(1 <= b <= 8 for b in bins)

    def test_requires_color_means(self, line_cover):
        g = bm.build_graph(line_cover)
        with pytest.raises(ValueError):
            bm.assign_bins(g)

    def test_nan_mean_between_finite_means_refused(self):
        # numpy sums these eight finite members pairwise as inf + -inf, so ball
        # 2's mean is NaN while the least and greatest means stay finite
        xs = [0.0] + [10.0] * 8 + [20.0]
        colors = [1.0] + [1e308, 1e308, -1e308, -1e308, 0.0, 0.0, 0.0, 0.0] + [2.0]
        cloud = bm.PointCloud(("x",), np.array(xs).reshape(-1, 1), tuple(range(len(xs))))
        g = bm.build_graph(bm.build_cover(cloud, 1.0), colors)
        assert np.isnan(g.nodes[1].color_mean)
        with pytest.raises(bm.ValidationError, match="nan"):
            bm.assign_bins(g)

    def test_default_palette_endpoints(self):
        pal = default_palette(8)
        assert len(pal) == 8
        assert pal[0] == "#2c4fd8"
        assert pal[-1] == "#d82c2c"


class TestConnectedComponents:
    def make_graph(self, n_nodes, edges):
        nodes = tuple(bm.GraphNode(ball=b, size=1) for b in range(1, n_nodes + 1))
        return bm.MapperGraph(nodes, tuple(bm.GraphEdge(q, s, 1) for q, s in edges))

    def test_edgeless(self):
        assert bm.connected_components(self.make_graph(3, [])) == [[1], [2], [3]]

    def test_line_cover_is_one_component(self, line_cover):
        g = bm.build_graph(line_cover)
        assert bm.connected_components(g) == [[1, 2]]

    def test_chain_and_island(self):
        g = self.make_graph(5, [(1, 2), (2, 3), (4, 5)])
        assert bm.connected_components(g) == [[1, 2, 3], [4, 5]]

    def test_count_invariant_under_relabelling(self):
        g = self.make_graph(6, [(1, 4), (2, 5)])
        relabelled = self.make_graph(6, [(4, 1), (5, 2)])
        assert len(bm.connected_components(g)) == len(bm.connected_components(relabelled))

    def test_auto_cover_structure(self, auto_cover):
        g = bm.build_graph(auto_cover)
        comps = bm.connected_components(g)
        multi = [c for c in comps if len(c) > 1]
        isolated = sorted(b for c in comps if len(c) == 1 for b in c)
        assert len(multi) == 2
        assert isolated == [7, 9, 13]

    def test_auto_isolated_balls_all_domestic(self, auto_cover, auto_raw):
        foreign = auto_raw.numeric_column("foreign")
        g = bm.build_graph(auto_cover)
        for comp in bm.connected_components(g):
            if len(comp) == 1:
                members = auto_cover.members[comp[0] - 1]
                assert np.all(foreign[list(members)] == 0.0)
