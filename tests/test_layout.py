import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper.errors import ValidationError
from ballmapper.layout import _MIN_DIST, _TILE, STEP_END, STEP_START, _simulate

RING_200 = [(b, b % 200 + 1) for b in range(1, 201)]  # wider than one layout stripe


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

    def test_two_unconnected_nodes_sit_on_the_midline(self):
        # node 2 starts at y = sin(pi), about 1.2e-16: rounding noise, not a spread to stretch
        assert bm.compute_layout(make_graph(2)) == {1: (1.0, 0.5), 2: (0.0, 0.5)}

    def test_positions_cover_all_nodes(self, auto_cover):
        g = bm.build_graph(auto_cover)
        layout = bm.compute_layout(g, iterations=30)
        assert set(layout) == {n.ball for n in g.nodes}

    @pytest.mark.parametrize("force", [{"repulsion": 1e308}, {"attraction": 1e308},
                                       {"repulsion": 1e200}],
                             ids=["repulsion", "attraction", "repulsion_squared"])
    def test_forces_that_overflow_are_refused(self, auto_cover, force):
        # At 1e308 the forces overflow to inf and then nan in every position,
        # which the rescale would draw as one point at (0.5, 0.5). At 1e200 the
        # forces are finite but their squares are not, so the step cap scales
        # each move by step / inf = 0 and every node stays where it started.
        g = bm.build_graph(auto_cover)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="layout overflows float64"):
                bm.compute_layout(g, **force)

    # The repulsions at which compute_layout refused at the commit before the
    # near-pair clamp and the squared-distance check left _simulate: neither
    # could fire from a circle start, so the table must not move. The ring is
    # wider than one stripe, so its sums now run in another order than when
    # its row was set (refused from about 1.35e152): every repulsion here is
    # at least 10x from that threshold.
    @pytest.mark.parametrize("repulsion", [1e150, 1e154, 1e155, 1e200, 1e284, 1e285, 1e300,
                                           1.7e308])
    @pytest.mark.parametrize("n_nodes, edges, refused_from", [
        (2, (), 1e155), (3, [(1, 2)], 1e155), (None, (), 1e154),
        (200, RING_200, 1e154),
    ], ids=["two_nodes", "three_nodes", "auto", "ring_200"])
    def test_refuses_at_the_same_repulsions(self, auto_cover, n_nodes, edges, refused_from,
                                            repulsion):
        g = make_graph(n_nodes, edges) if n_nodes else bm.build_graph(auto_cover)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if repulsion >= refused_from:
                with pytest.raises(ValidationError, match="layout overflows float64"):
                    bm.compute_layout(g, repulsion=repulsion)
            else:
                assert len(bm.compute_layout(g, repulsion=repulsion)) == g.n_nodes


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
    """The original B x B x 2 tensor loop, kept as the oracle, except that a
    pair within _MIN_DIST weighs r / inf = +0 without a weight clamped to
    r / _MIN_DIST**2, which would overflow from r > 1.8e284."""
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
        safe = np.where(d2 <= _MIN_DIST ** 2, np.inf, d2)
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
    """Up to _TILE nodes the stripe loop must reproduce the tensor loop bit
    for bit; above it, stay within a gate around it."""

    @given(force_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, inputs):
        assert np.array_equal(_simulate(*inputs), _simulate_reference(*inputs))

    def test_auto_graph_default_iterations(self, auto_cover):
        pos, edge_index = circle_start(bm.build_graph(auto_cover))
        args = (edge_index, bm.layout.DEFAULT_REPULSION, bm.layout.DEFAULT_ATTRACTION,
                bm.layout.DEFAULT_ITERATIONS)
        assert np.array_equal(_simulate(pos, *args), _simulate_reference(pos, *args))

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 128])
    def test_tile_edges(self, n):
        """Graphs up to one stripe wide: each is the B x B tensor loop's bits."""
        rng = np.random.default_rng(n)
        pos = rng.normal(size=(n, 2))
        pos[n - 1] = pos[0]  # a coincident pair, the first and the last node
        edge_index = rng.integers(0, n, size=(2 * n, 2))
        args = (edge_index, 0.05, 0.01, 4)
        assert np.array_equal(_simulate(pos, *args), _simulate_reference(pos, *args))

    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("n", [129, 130, 257, 460])
    def test_wider_than_a_stripe_within_1e_12(self, n, iterations):
        """Past _TILE nodes each pair is summed once, in another order than
        the tensor loop: a few rounds stay within 1e-12 of it, coincident and
        near nodes included, and a second call gives the same bits."""
        rng = np.random.default_rng(n)
        pos = rng.normal(size=(n, 2))
        pos[n - 1] = pos[0]  # coincident nodes in the first and the last stripe
        pos[n - 2] = pos[1] + 1e-13  # within _MIN_DIST
        pos[n // 2] = pos[3] + 3e-14
        args = (pos, rng.integers(0, n, size=(2 * n, 2)), 0.05, 0.01, iterations)
        got = _simulate(*args)
        assert np.abs(got - _simulate_reference(*args)).max() <= 1e-12
        assert got.view(np.int64).tolist() == _simulate(*args).view(np.int64).tolist()

    def test_wider_than_a_stripe_within_the_reference_drift(self):
        """150 rounds on a 450-node ball graph, as drawn: the unit-square
        layout differs from the tensor loop's by less than the tensor loop's
        own drift when every start angle turns by 1e-12 (5e-9 against 2e-7
        with numpy 2.4 on x86_64)."""
        cloud = bm.gen_gaussian_cloud(10000, 2, seed=1)
        pos, edge_index = circle_start(bm.build_graph(bm.build_cover(cloud, 0.2)))
        assert pos.shape[0] > _TILE
        args = (edge_index, 0.05, 0.01, 150)
        angles = 2.0 * np.pi * np.arange(pos.shape[0]) / pos.shape[0] + 1e-12
        turned = np.column_stack([np.cos(angles), np.sin(angles)])

        def unit(p):
            lo = p.min(axis=0)
            return (p - lo) / (p.max(axis=0) - lo)

        want = unit(_simulate_reference(pos, *args))
        drift = np.abs(unit(_simulate_reference(turned, *args)) - want).max()
        assert np.abs(unit(_simulate(pos, *args)) - want).max() < drift

    @pytest.mark.parametrize("pos, repulsion", [
        # each product finite, node 0's x sum not
        ([(0.0, 0.0), (-0.76, -0.4), (-0.76, 0.4)], 1e308),
        # the outer nodes' sums overflow to -inf and +inf, the middle one's is
        # 0: no square of a push overflows, so only a check of the sums refuses
        ([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 1.5e308),
    ], ids=["force_sum", "force_sums_to_infinities"])
    def test_overflowing_sum_raises(self, pos, repulsion):
        args = (np.array(pos), np.empty((0, 2), dtype=int), repulsion, 0.01, 1)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow encountered in reduce"):
                _simulate_reference(*args)
            with pytest.raises(FloatingPointError):
                _simulate(*args)

    @given(n=st.integers(2, 40), iterations=st.integers(1, 30), log_rep=st.floats(0.0, 100.0),
           log_att=st.floats(0.0, 100.0), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_positions_span_within_the_step_bound(self, n, iterations, log_rep, log_att, data):
        """From compute_layout's circle start every node moves at most
        STEP_START a round, so after T rounds no |coordinate| passes 1 + 0.1 T
        (up to rounding), even when every force is huge: the positions span
        far less than sqrt(DBL_MAX), and no squared distance can overflow."""
        pos, _ = circle_start(make_graph(n))
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=2 * n))
        args = (np.array(edges, dtype=int).reshape(-1, 2), 10.0 ** log_rep, 10.0 ** log_att,
                iterations)
        with np.errstate(over="raise"):
            out = _simulate(pos, *args)
        assert np.abs(out).max() <= (1.0 + STEP_START * iterations) * (1.0 + 1e-12)

    @given(force_inputs(), st.floats(-4.0, 308.0), st.floats(-4.0, 308.0))
    @example((np.zeros((2, 2)), np.empty((0, 2), dtype=int), 1e285, 0.01, 1), 285.0, -2.0)
    @settings(max_examples=200, deadline=None)
    def test_raises_exactly_when_reference_raises(self, inputs, log_rep, log_att):
        """Forces log-uniform up to 1e308: einsum sets no overflow flag, so
        _simulate must find every overflow the reference's ufuncs report."""
        pos, edge_index, _, _, iterations = inputs
        args = (pos, edge_index, 10.0 ** log_rep, 10.0 ** log_att, iterations)
        outcomes = []
        for simulate in (_simulate, _simulate_reference):
            with np.errstate(over="raise"):
                try:
                    outcomes.append(simulate(*args))
                except FloatingPointError:
                    outcomes.append(None)
        got, want = outcomes
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("repulsion, refused", [(1e150, False), (1.7e308, True)])
    def test_wider_than_a_stripe_refused_outside_errstate(self, repulsion, refused):
        """A 200-node ring of radius 50: every weight and product is finite.
        At 1.7e308 node 0's x push sums 199 terms of one sign to about
        3.4e308, which overflows in any order, and the reference refuses.
        Outside errstate no ufunc raises or warns, so the isfinite check
        must refuse whatever order the stripes add the terms in."""
        pos, edge_index = circle_start(make_graph(200, RING_200))
        args = (50.0 * pos, edge_index, repulsion, 0.01, 1)
        with np.errstate(over="raise"):
            try:
                want = _simulate_reference(*args)
            except FloatingPointError:
                want = None
        assert (want is None) == refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(FloatingPointError):
                    _simulate(*args)
            else:
                assert np.abs(_simulate(*args) - want).max() <= 1e-12

    @pytest.mark.parametrize("gap, moves", [
        (_MIN_DIST, False), (np.nextafter(_MIN_DIST, 1), True),
    ], ids=["at_min_dist", "one_ulp_past"])
    def test_min_dist_boundary_is_inclusive(self, gap, moves):
        """Two nodes exactly _MIN_DIST apart on one axis exert no repulsion on
        each other; one ulp further apart they do. `<` for `<=` fails here."""
        pos = np.array([[0.0, 0.0], [gap, 0.0]])
        assert (gap * gap > _MIN_DIST ** 2) == moves  # the pair's d2 against the bound
        args = (pos, np.empty((0, 2), dtype=int), 0.05, 0.01, 1)
        out = _simulate(*args)
        assert out.view(np.int64).tolist() == _simulate_reference(*args).view(np.int64).tolist()
        assert np.array_equal(out, pos) != moves

    @pytest.mark.parametrize("gap", [0.0, _MIN_DIST])
    @pytest.mark.parametrize("repulsion", [1e284, 1e285, 1.7e308])
    def test_near_pairs_exert_no_force_at_any_repulsion(self, gap, repulsion):
        """Nodes within _MIN_DIST of each other weigh r / inf = +0, so neither
        path computes a clamped weight r / _MIN_DIST**2 that could overflow:
        past 1.8e284 neither raises, and with every pair that close no node moves."""
        args = (np.array([[0.0, 0.0], [gap, 0.0]]), np.empty((0, 2), dtype=int), repulsion,
                0.01, 1)
        with np.errstate(over="raise"):
            out = _simulate(*args)
            assert out.view(np.int64).tolist() == _simulate_reference(*args).view(np.int64).tolist()
        assert np.array_equal(out, args[0])

    def test_input_positions_untouched(self):
        pos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]])
        before = pos.copy()
        _simulate(pos, np.array([[0, 2]]), 0.05, 0.01, 5)
        assert np.array_equal(pos, before)


def test_scratch_memory_bounded():
    """Peak scratch memory is O(B * _TILE): within four B x _TILE float64 planes."""
    n = 2000
    ring = np.array([(i, (i + 1) % n) for i in range(n)])
    angles = 2.0 * np.pi * np.arange(n) / n
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    tracemalloc.start()
    try:
        _simulate(pos, ring, 0.05, 0.01, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * _TILE * n


def _wide_floats(rng, *shape):
    """Signed values over most of float64's exponents, subnormals included,
    whose products, squares and sums of a few hundred stay finite."""
    magnitude = rng.uniform(1.0, 2.0, size=shape) * np.exp2(rng.integers(-540, 500, size=shape))
    return rng.choice([-1.0, 1.0], size=shape) * magnitude


@st.composite
def einsum_operands(draw):
    """A (2, H, T) difference plane and an (H, T) weight plane."""
    width = draw(st.sampled_from([2, 3, 17, 63, 64, 127, 128]))
    height = draw(st.integers(2, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _wide_floats(rng, 2, height, width), _wide_floats(rng, height, width)


@given(einsum_operands())
@settings(max_examples=150, deadline=None)
def test_numpy_einsum_is_multiply_add_bit_for_bit(operands):
    """_simulate's first two einsums against the ufunc forms they replaced:
    dx * dx + dy * dy, and each axis's products summed over the rows by
    sum(axis=0), which adds the rows one after another. A numpy build whose
    einsum fuses the multiply-add or reorders the sum fails here, and so
    would the pins. The third einsum, over the columns, only runs past one
    stripe, where no bits are pinned."""
    diff, weight = operands
    width = diff.shape[2]
    d2 = np.empty(weight.shape)
    np.einsum("ajk,ajk->jk", diff, diff, out=d2)
    want = np.add(np.multiply(diff[0], diff[0]), np.multiply(diff[1], diff[1]))
    assert d2.view(np.int64).tolist() == want.view(np.int64).tolist()
    push = np.empty((2, width + 3))  # written through a strided view, as _simulate does
    np.einsum("ajk,jk->ak", diff, weight, out=push[:, 1:width + 1])
    want = np.stack([np.multiply(diff[a], weight).sum(axis=0) for a in range(2)])
    assert push[:, 1:width + 1].view(np.int64).tolist() == want.view(np.int64).tolist()


@st.composite
def edge_operands(draw):
    """A (2, B) push, a (2, E) pull and head and tail indices that repeat
    nodes, as a graph's edges do."""
    n = draw(st.integers(1, 70))
    m = draw(st.integers(0, 4 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    heads, tails = rng.integers(0, draw(st.integers(1, n)), size=(2, m))
    return _wide_floats(rng, 2, n), _wide_floats(rng, 2, m), heads, tails


@given(edge_operands())
@settings(max_examples=150, deadline=None)
def test_numpy_column_forms_are_row_forms_bit_for_bit(operands):
    """_simulate's (2, B) forms against the (B, 2) ones they replaced: ufunc.at
    on each axis's 1-D row, as _simulate applies it, and on (slice(None), idx)
    applies an index's repeats in the order of the row form, and
    (p ** 2).sum(axis=0) is (p.T ** 2).sum(axis=1). A numpy build that
    applies repeats in another order fails here, and so would the pins."""
    push, pull, heads, tails = operands
    axes = push.copy()
    for a in range(2):
        np.subtract.at(axes[a], heads, pull[a])
        np.add.at(axes[a], tails, pull[a])
    cols = push.copy()
    np.subtract.at(cols, (slice(None), heads), pull)
    np.add.at(cols, (slice(None), tails), pull)
    rows = np.ascontiguousarray(push.T)
    np.subtract.at(rows, heads, pull.T)
    np.add.at(rows, tails, pull.T)
    assert axes.T.view(np.int64).tolist() == rows.view(np.int64).tolist()
    assert cols.T.view(np.int64).tolist() == rows.view(np.int64).tolist()
    got, want = (cols ** 2).sum(axis=0), (cols.T ** 2).sum(axis=1)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
