import math
import xml.etree.ElementTree as ET
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper.errors import ValidationError
from ballmapper.graph import MAX_BIN_COUNT, _overlap_edges
from ballmapper.render import PALETTE_HIGH, PALETTE_LOW, _palette

from conftest import (component_graphs, cover_from_members, cover_inputs, membership_matrix,
                      random_cloud)


def _edges_reference(cover):
    """The original all-pairs set-intersection loop, kept verbatim as the oracle."""
    member_sets = [set(m) for m in cover.members]
    edges = []
    for q in range(cover.n_balls):
        for s in range(q + 1, cover.n_balls):
            shared = len(member_sets[q] & member_sets[s])
            if shared:
                edges.append([q + 1, s + 1, shared])
    return edges


def _edges_by_multiplicity(cover):
    """The per-point Counter loop build_graph once ran, kept as a second oracle."""
    shared = Counter()
    for balls in membership_matrix(cover).values():
        shared.update(combinations(balls, 2))
    return [[q, s, n] for (q, s), n in sorted(shared.items())]


def _overlap_edges_reference(rows, sizes):
    """_overlap_edges' own per-multiplicity loop, kept as the oracle of its
    grouping through _groups and _by_size."""
    stride = len(sizes) + 1
    balls = np.repeat(np.arange(1, stride, dtype=np.int64), sizes)
    order = np.argsort(rows, kind="stable")  # balls stay ascending within a row
    rows, balls = rows[order], balls[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    mult = np.diff(np.append(starts, len(rows)))
    keys = [np.empty(0, dtype=np.int64)]
    for m in range(2, int(mult.max()) + 1):
        table = balls[starts[mult == m][:, None] + np.arange(m)]
        i, j = np.triu_indices(m, 1)
        keys.append((table[:, i] * stride + table[:, j]).ravel())
    pairs, shared = np.unique(np.concatenate(keys), return_counts=True)
    return np.column_stack((pairs // stride, pairs % stride, shared))


def _as_rows_and_sizes(members):
    """A cover's (rows, sizes) from its balls' member row ids, as build_cover stores them."""
    return (np.array([r for m in members for r in m], dtype=np.intp),
            np.array([len(m) for m in members], dtype=np.intp))


_MEMBERS = st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=25, unique=True).map(sorted),
                    min_size=1, max_size=14)


@given(st.one_of(
    _MEMBERS,
    cover_inputs().map(lambda inputs: bm.build_cover(*inputs).members),
))
@example([[0], [1, 2], [5, 9], [40]])  # no point shared
@example([[3, 7] + [i] for i in range(10, 20)] + [[3], [7, 8]])  # row 3 in 11 balls
@settings(max_examples=200, deadline=None)
def test_overlap_edges_match_the_per_multiplicity_loop_bit_for_bit(members):
    rows, sizes = _as_rows_and_sizes(members)
    got, want = _overlap_edges(rows, sizes), _overlap_edges_reference(rows, sizes)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _means_reference(cover, color_values):
    """The per-ball means build_graph once took, through a dict keyed by row id."""
    by_row = dict(zip(cover.row_ids, np.asarray(color_values, dtype=float)))
    return [float(np.mean([by_row[r] for r in m])) for m in cover.members]


def assert_matches_oracles(cover, color_values):
    g = bm.build_graph(cover, color_values)
    assert g.edges.tolist() == _edges_reference(cover) == _edges_by_multiplicity(cover)
    got = np.array([n.color_mean for n in g.nodes])
    want = np.array(_means_reference(cover, color_values))
    assert got.tobytes() == want.tobytes()  # bit for bit


# ball sizes on both sides of numpy's pairwise-summation block of 8 and its
# unrolled block of 128
PAIRWISE_SIZES = [1, 2, 7, 8, 9, 128, 129, 300]


@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-300, 1.0, np.pi, 1e300, "overflow"]),
       st.lists(st.sampled_from(PAIRWISE_SIZES), min_size=1, max_size=10))
@example(0, np.pi, PAIRWISE_SIZES)
@example(1, "overflow", PAIRWISE_SIZES)
@settings(max_examples=100, deadline=None)
def test_color_means_match_per_ball_mean(seed, scale, sizes):
    rng = np.random.default_rng(seed)
    n = max(sizes) + 5
    row_ids = np.sort(rng.choice(10**6, size=n, replace=False))
    members = tuple(tuple(row_ids[np.sort(rng.choice(n, size=size, replace=False))].tolist())
                    for size in sizes)
    cover = cover_from_members(1.0, tuple(m[0] for m in members), members,
                               tuple(row_ids.tolist()))
    if scale == "overflow":  # sums that overflow to inf or nan, left for assign_bins
        vals = rng.choice([1.7e308, -1.7e308, 1e308, 1.0], size=n)
    else:
        vals = rng.normal(size=n) * scale
    got = [node.color_mean for node in bm.build_graph(cover, vals).nodes]
    # the per-ball comprehension build_graph took its means with before
    pos = np.searchsorted(row_ids, np.concatenate(members))
    with np.errstate(over="ignore", invalid="ignore"):
        want = [float(vals[idx].mean()) for idx in np.split(pos, np.cumsum(sizes)[:-1])]
    assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


class TestBuildGraph:
    def test_line_cover_with_color(self, line_cover):
        g = bm.build_graph(line_cover, [2.0, 4.0, 6.0])
        assert [n.color_mean for n in g.nodes] == [3.0, 5.0]
        assert [n.size for n in g.nodes] == [2, 2]
        assert g.edges.tolist() == [[1, 2, 1]]

    def test_single_ball_no_edges(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0], [0.5]]), (0, 1))
        g = bm.build_graph(bm.build_cover(cloud, 1.0))
        assert g.edges.shape == (0, 3)
        assert g.nodes[0].color_mean is None

    def test_repeated_row_ids_never_reach_build_graph(self):
        # Past build_cover, a repeated row id is one ball with members (0, 0),
        # a self-loop edge (1, 1) and a colour mean over the wrong points.
        with pytest.raises(ValueError, match="strictly ascending"):
            cloud = bm.PointCloud(("x",), np.array([[0.0], [0.5]]), (0, 0))
            bm.build_graph(bm.build_cover(cloud, 1.0), [1.0, 3.0])

    def test_color_length_mismatch(self, line_cover):
        with pytest.raises(ValidationError, match="color column has 2 values, expected 3"):
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
        assert edges.tolist() == _edges_reference(cover)
        source, target, shared = edges.T
        assert (shared >= 1).all() and (source < target).all()
        color = np.random.default_rng(inputs[3]).normal(size=cover.n_points) * 1e3
        assert_matches_oracles(cover, color)

    @pytest.mark.parametrize("order", ["data", "shuffle"])
    def test_edges_match_reference_on_gaussian_cloud(self, order):
        cover = bm.build_cover(bm.gen_gaussian_cloud(2000, 3, seed=4), 0.5, order=order, seed=8)
        assert cover.n_balls > 100
        assert_matches_oracles(cover, np.random.default_rng(5).normal(size=cover.n_points))

    def test_few_big_balls(self):
        # every point sits in several balls of hundreds of members
        cover = bm.build_cover(bm.gen_gaussian_cloud(2000, 2, seed=1), 2.0)
        assert 5 <= cover.n_balls <= 15
        assert max(map(len, cover.members)) > 500
        assert_matches_oracles(cover, np.random.default_rng(6).normal(size=cover.n_points))

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


class TestMapperGraph:
    def test_edges_are_one_read_only_int64_array(self, line_cover):
        edges = bm.build_graph(line_cover).edges
        assert (edges.dtype, edges.shape, edges.flags.writeable) == (np.int64, (1, 3), False)
        with pytest.raises(ValueError, match="read-only"):
            edges[0, 2] = 2

    def test_no_edges_is_a_read_only_zero_by_three_array(self):
        edges = bm.MapperGraph((bm.GraphNode(7, 1),), ()).edges
        assert (edges.dtype, edges.shape, edges.flags.writeable) == (np.int64, (0, 3), False)

    def test_rows_are_copied_so_the_callers_array_stays_writeable(self):
        rows = np.array([[4, 9, 3]])
        graph = bm.MapperGraph((bm.GraphNode(9, 3), bm.GraphNode(4, 5)), rows)
        rows[0, 2] = 1
        assert rows.flags.writeable
        assert graph.edges.tolist() == [[4, 9, 3]]

    @pytest.mark.parametrize("edge, endpoint", [
        ((1, 3, 1), 3), ((0, 2, 1), 0), ((5, 5, 1), 5), ((2, -1, 1), -1),
    ])
    def test_endpoint_that_is_no_nodes_ball_refused(self, edge, endpoint):
        nodes = (bm.GraphNode(2, 1), bm.GraphNode(1, 1))
        refusal = f"^edge endpoint {endpoint} is no node's ball$"
        with pytest.raises(ValueError, match=refusal) as exc:
            bm.MapperGraph(nodes, [(1, 2, 1), edge])
        assert type(exc.value) is ValueError  # misuse of a library type, not bad input

    def test_two_nodes_with_one_ball_refused(self):
        nodes = (bm.GraphNode(1, 3), bm.GraphNode(1, 5), bm.GraphNode(2, 1))
        with pytest.raises(ValueError, match="^more than one node has ball 1$") as exc:
            bm.MapperGraph(nodes, [(1, 2, 1)])
        assert type(exc.value) is ValueError  # misuse of a library type, not bad input

    def test_edge_without_nodes_refused(self):
        with pytest.raises(ValueError, match="edge endpoint 1 is no node's ball"):
            bm.MapperGraph((), [(1, 2, 1)])

    def test_a_graph_equals_only_itself(self, line_cover):
        graph = bm.build_graph(line_cover)
        assert graph == graph
        assert graph != bm.build_graph(line_cover)
        assert len({graph, graph}) == 1


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

    def test_most_bins_are_the_legend_rows(self):
        assert MAX_BIN_COUNT == 30
        _, bins = self.binned([0.0, 1.0], MAX_BIN_COUNT)
        assert bins == [1, MAX_BIN_COUNT]

    @pytest.mark.parametrize("bin_count", [0, 31, 3_000_000])
    def test_bin_count_outside_legend_refused(self, bin_count):
        with pytest.raises(ValidationError, match="bin_count must be from 1 to 30"):
            self.binned([0.0, 1.0], bin_count)

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
        # bin i of k (from 0) is PALETTE_LOW + i / (k - 1) of the way to
        # PALETTE_HIGH, each channel rounded half to even from its exact value
        for k in range(1, MAX_BIN_COUNT + 1):
            pal = _palette(k)
            assert len(pal) == k
            if k > 1:
                assert (pal[0], pal[-1]) == ("#2c4fd8", "#d82c2c")
            for i, color in enumerate(pal):
                t = Fraction(i, k - 1) if k > 1 else 0
                rgb = (round(lo + t * (hi - lo)) for lo, hi in zip(PALETTE_LOW, PALETTE_HIGH))
                assert color == "#" + "".join(f"{c:02x}" for c in rgb)


def _bin_by_formula(scale, mean):
    """README's colour-bin rule: clamp(floor((mean - b0) / w) + 1, 1, bins)."""
    b0, b_last = scale.boundaries[0], scale.boundaries[-1]
    if b_last <= b0:
        return 1
    w = (b_last - b0) / scale.bin_count
    return min(max(math.floor((mean - b0) / w) + 1, 1), scale.bin_count)


ON_BOUNDARY = (-48.98619485211566, -36.60019153358891, 0.5578184219913425)


@given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=12),
       st.integers(1, MAX_BIN_COUNT), st.lists(st.integers(0, MAX_BIN_COUNT), max_size=6))
@example(list(ON_BOUNDARY), 4, [])
@settings(max_examples=300, deadline=None)
def test_assign_bins_follows_the_documented_formula(means, bin_count, on_boundary):
    # means placed exactly on boundaries of the scale the first means span
    boundaries = bm.assign_bins(_graph_of_means(means), bin_count)[0].boundaries
    means = means + [boundaries[i % (bin_count + 1)] for i in on_boundary]
    scale, graph = bm.assign_bins(_graph_of_means(means), bin_count)
    assert [n.color_bin for n in graph.nodes] == [_bin_by_formula(scale, m) for m in means]


def test_mean_on_an_interior_boundary_may_fall_below_it():
    # (mean - b0) / w is 0.9999999999999997, so bin 1 holds boundaries[1]
    scale, graph = bm.assign_bins(_graph_of_means(list(ON_BOUNDARY)), 4)
    assert scale.boundaries[1] == ON_BOUNDARY[1]
    assert [n.color_bin for n in graph.nodes] == [1, 1, 4]


def _graph_of_means(means):
    return bm.MapperGraph(tuple(bm.GraphNode(b, 1, m) for b, m in enumerate(means, 1)), ())


def test_color_scale_is_its_boundaries():
    # the scale holds no count or colors that could disagree with them
    for boundaries in ((), (0.0,)):
        with pytest.raises(ValueError, match="at least two boundaries"):
            bm.ColorScale(boundaries)
    scale = bm.ColorScale((0.0, 0.25, 0.5, 1.0))
    assert scale.bin_count == 3
    graph = bm.MapperGraph(tuple(bm.GraphNode(b, 1, 0.0, b) for b in (1, 2, 3)), ())
    positions = {b: (b / 4, 0.5) for b in (1, 2, 3)}
    root = ET.fromstring(bm.render_graph_svg(graph, positions, scale))
    fills = [el.get("fill") for el in root if el.tag.endswith(("circle", "rect"))]
    legend = [el.text for el in root if el.tag.endswith("text")]
    # background, the discs by bin, then the legend's swatches top bin first
    assert fills == ["#ffffff", *_palette(3), *reversed(_palette(3))]
    assert legend == ["mean", "[0.5, 1]", "[0.25, 0.5)", "[0, 0.25)"]


@pytest.mark.parametrize("boundaries, palette", [
    ((0.0, 1.0), ("#000000",) * 3),  # too few boundaries for the bins
    ((0.0, 0.25, 0.5, 1.0), ("#000000",) * 2),  # too few colors
    ((0.0, 0.25, 0.5, 0.75, 1.0), ("#000000",) * 4),  # one bin too many of both
], ids=["boundaries", "palette", "both"])
def test_inconsistent_color_scale_refused(boundaries, palette):
    # such a scale once reached the renderer, whose legend raised IndexError;
    # a count or colors given beside the boundaries are now refused outright
    with pytest.raises(TypeError):
        bm.ColorScale(3, boundaries, palette)
    # the boundaries alone make a scale whose count and colors agree with them
    scale = bm.ColorScale(boundaries)
    k = len(boundaries) - 1
    assert scale.bin_count == k
    graph = bm.MapperGraph(tuple(bm.GraphNode(b, 1, 0.0, b) for b in range(1, k + 1)), ())
    positions = {b: (b / (k + 1), 0.5) for b in range(1, k + 1)}
    root = ET.fromstring(bm.render_graph_svg(graph, positions, scale))
    fills = [el.get("fill") for el in root if el.tag.endswith(("circle", "rect"))]
    legend = [el.text for el in root if el.tag.endswith("text")]
    assert fills == ["#ffffff", *_palette(k), *reversed(_palette(k))]
    assert len(legend) == k + 1 and legend[0] == "mean"


def _components_reference(graph):
    """The breadth-first walk that connected_components once was, kept as its oracle."""
    adjacency = {n.ball: [] for n in graph.nodes}
    for source, target, _shared in graph.edges.tolist():
        adjacency[source].append(target)
        adjacency[target].append(source)

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


@given(component_graphs())
@settings(max_examples=300, deadline=None)
def test_components_match_breadth_first_reference(graph):
    assert bm.connected_components(graph) == _components_reference(graph)


def test_long_chain_from_its_largest_id_is_one_component():
    ids = list(range(5000, 0, -1))
    graph = bm.MapperGraph(tuple(bm.GraphNode(ball=b, size=1) for b in ids),
                           [(a, b, 1) for a, b in zip(ids, ids[1:])])
    assert bm.connected_components(graph) == _components_reference(graph) == [ids[::-1]]


class TestConnectedComponents:
    def make_graph(self, n_nodes, edges):
        nodes = tuple(bm.GraphNode(ball=b, size=1) for b in range(1, n_nodes + 1))
        return bm.MapperGraph(nodes, [(q, s, 1) for q, s in edges])

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
