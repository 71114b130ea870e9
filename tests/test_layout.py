import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper.layout import _MIN_DIST, STEP_END, STEP_START, _simulate


def make_graph(n_nodes, edges=()):
    nodes = tuple(bm.GraphNode(ball=b, size=1) for b in range(1, n_nodes + 1))
    return bm.MapperGraph(nodes, tuple(bm.GraphEdge(q, s, 1) for q, s in edges))


class TestComputeLayout:
    def test_single_node_at_origin(self):
        layout = bm.compute_layout(make_graph(1))
        assert layout == {1: (0.0, 0.0)}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            bm.compute_layout(bm.MapperGraph((), ()))

    def test_bad_parameters_rejected(self):
        g = make_graph(2)
        with pytest.raises(ValueError):
            bm.compute_layout(g, repulsion=0.0)
        with pytest.raises(ValueError):
            bm.compute_layout(g, iterations=0)

    def test_deterministic(self, auto_cover):
        g = bm.build_graph(auto_cover)
        a = bm.compute_layout(g)
        b = bm.compute_layout(g)
        assert a == b

    def test_unit_bounding_box(self, auto_cover):
        g = bm.build_graph(auto_cover)
        layout = bm.compute_layout(g, iterations=120)
        xs, ys = zip(*layout.values())
        assert (min(xs), min(ys), max(xs), max(ys)) == (0.0, 0.0, 1.0, 1.0)
        for x, y in layout.values():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
            assert np.isfinite(x) and np.isfinite(y)

    def test_topology_untouched(self, auto_cover):
        g = bm.build_graph(auto_cover)
        before = (tuple(g.nodes), tuple(g.edges))
        bm.compute_layout(g, iterations=50)
        assert (tuple(g.nodes), tuple(g.edges)) == before

    def test_two_node_symmetry(self):
        layout = bm.compute_layout(make_graph(2), iterations=40)
        (x1, y1), (x2, y2) = layout[1], layout[2]
        # mirror images about the center of the unit square
        assert x1 + x2 == pytest.approx(1.0, abs=1e-9)
        assert y1 + y2 == pytest.approx(1.0, abs=1e-9)

    def test_positions_cover_all_nodes(self, auto_cover):
        g = bm.build_graph(auto_cover)
        layout = bm.compute_layout(g, iterations=30)
        assert set(layout) == {n.ball for n in g.nodes}


class TestForceDynamics:
    """One-step behavior of the raw update rule, before any rescaling."""

    def start_pair(self):
        return np.array([[1.0, 0.0], [-1.0, 0.0]])

    def test_repulsion_separates_disconnected_pair(self):
        pos = self.start_pair()
        out = _simulate(pos, np.empty((0, 2), dtype=int), 0.05, 0.01, 1)
        assert np.linalg.norm(out[0] - out[1]) > 2.0

    def test_dominant_attraction_pulls_edge_together(self):
        pos = self.start_pair()
        out = _simulate(pos, np.array([[0, 1]]), 0.001, 1.0, 1)
        assert np.linalg.norm(out[0] - out[1]) < 2.0

    def test_step_cap_limits_motion(self):
        pos = self.start_pair()
        out = _simulate(pos, np.array([[0, 1]]), 0.001, 100.0, 1)
        # each node moves at most the initial step cap of 0.1
        assert np.all(np.linalg.norm(out - pos, axis=1) <= 0.1 + 1e-12)


def _simulate_reference(
    pos: np.ndarray,
    edge_index: np.ndarray,
    repulsion: float,
    attraction: float,
    iterations: int,
) -> np.ndarray:
    """The original B x B x 2 tensor loop, kept verbatim as the oracle."""
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


def circle_start(graph):
    """The start positions and edge index that compute_layout builds."""
    index = {n.ball: i for i, n in enumerate(graph.nodes)}
    angles = 2.0 * np.pi * np.arange(graph.n_nodes) / graph.n_nodes
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    edge_index = np.array(
        [(index[e.source], index[e.target]) for e in graph.edges], dtype=int
    ).reshape(-1, 2)
    return pos, edge_index


@st.composite
def force_inputs(draw):
    """Random graphs whose start positions include coincident and near nodes."""
    n = draw(st.integers(2, 40))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    pos = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    node = st.integers(0, n - 1)
    for i, j, offset in draw(st.lists(
        st.tuples(node, node, st.sampled_from([0.0, 1e-13, -1e-13, 3e-14])),
        max_size=n,
    )):
        pos[i] = pos[j] + offset
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edge_index = np.array(edges, dtype=int).reshape(-1, 2)
    repulsion = draw(st.floats(1e-4, 10.0))
    attraction = draw(st.floats(1e-4, 10.0))
    iterations = draw(st.integers(1, 25))
    return pos, edge_index, repulsion, attraction, iterations


class TestSimulateMatchesReference:
    """The plane-buffer loop must reproduce the tensor loop bit for bit."""

    @given(force_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, inputs):
        assert np.array_equal(_simulate(*inputs), _simulate_reference(*inputs))

    def test_auto_graph_default_iterations(self, auto_cover):
        pos, edge_index = circle_start(bm.build_graph(auto_cover))
        args = (edge_index, bm.layout.DEFAULT_REPULSION, bm.layout.DEFAULT_ATTRACTION,
                bm.layout.DEFAULT_ITERATIONS)
        assert np.array_equal(_simulate(pos, *args), _simulate_reference(pos, *args))

    def test_large_random_graph(self):
        rng = np.random.default_rng(460)
        pos = rng.normal(size=(460, 2))
        edge_index = rng.integers(0, 460, size=(1500, 2))
        args = (edge_index, 0.05, 0.01, 3)
        assert np.array_equal(_simulate(pos, *args), _simulate_reference(pos, *args))

    def test_input_positions_untouched(self):
        pos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]])
        before = pos.copy()
        _simulate(pos, np.array([[0, 2]]), 0.05, 0.01, 5)
        assert np.array_equal(pos, before)


def test_scratch_memory_bounded():
    """Peak scratch memory stays within five B x B float64 planes."""
    n = 300
    ring = np.array([(i, (i + 1) % n) for i in range(n)])
    angles = 2.0 * np.pi * np.arange(n) / n
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    tracemalloc.start()
    try:
        _simulate(pos, ring, 0.05, 0.01, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n * n
