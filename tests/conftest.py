import math

import numpy as np
import pytest
from hypothesis import reject, strategies as st

import ballmapper as bm

AUTO_AXES = ("mpg", "trunk", "weight", "length", "turn", "displacement", "gear_ratio")


@pytest.fixture(scope="session")
def auto_raw():
    return bm.load_csv(bm.auto_csv_path())


@pytest.fixture(scope="session")
def auto_cover(auto_raw):
    """The shipped fixture covered at radius 1.5 over 7 standardized axes."""
    cloud, dropped = bm.validate_axes(auto_raw, AUTO_AXES)
    assert dropped == ()
    std, _ = bm.standardize(cloud)
    return bm.build_cover(std, 1.5)


@pytest.fixture
def line_cloud():
    """Three collinear 1-D points; radius 1 gives two overlapping balls."""
    return bm.PointCloud(("x",), np.array([[0.0], [1.0], [2.0]]), (0, 1, 2))


@pytest.fixture
def line_cover(line_cloud):
    return bm.build_cover(line_cloud, 1.0)


def cover_from_members(epsilon, landmarks, members, row_ids):
    """A BallCover holding per-ball member tuples as build_cover stores them:
    read-only intp sizes, and each ball's rows in turn."""
    sizes = np.array([len(m) for m in members], dtype=np.intp)
    rows = np.array([r for m in members for r in m], dtype=np.intp)
    sizes.flags.writeable = rows.flags.writeable = False
    return bm.BallCover(epsilon, landmarks, sizes, rows, row_ids)


def cover_key(cover):
    """What makes two covers the same cover; BallCover itself compares by identity."""
    return cover.epsilon, cover.landmarks, cover.members, cover.row_ids


def membership_matrix(cover):
    """Invert the cover: row id -> sorted list of ball ids containing it.

    The loop build_graph once used, kept as an oracle for the cover's
    (sizes, rows) arrays as build_graph reads them.
    """
    containing = {r: [] for r in cover.row_ids}
    for ball, member_rows in enumerate(cover.members, start=1):
        for r in member_rows:
            containing[r].append(ball)
    return containing


def random_cloud(rng, n=None, k=None):
    n = n if n is not None else int(rng.integers(1, 201))
    k = k if k is not None else int(rng.integers(1, 6))
    values = rng.normal(size=(n, k))
    return bm.PointCloud(tuple(f"x{j}" for j in range(k)), values, tuple(range(n)))


@st.composite
def cover_inputs(draw):
    """(cloud, epsilon, order, seed) for build_cover, as the oracle tests use them.

    Seven kinds of cloud, with 1 to 12 axes:
    - a small integer lattice with a radius of 1, 2, sqrt(2) or sqrt(3), so
      many pairs sit exactly on the inclusive boundary;
    - the same lattice in steps of one ulp of an offset between 1e6 and 2**40,
      with the radius scaled to match, so points sit exactly at c_a +- epsilon
      on the axis the cover sorts by, where the slab bounds round;
    - the same lattice scaled to steps near 1e-160, where the squares of the
      gaps underflow, with radii down to where the radius squared is 0;
    - a shell: a centre, then points at c + epsilon * u / |u| in random
      directions u with each coordinate nudged by -4 to +4 ulps, so that
      distances straddle epsilon in every axis, not just on a lattice;
    - points near +-1e308, where gaps and their squares overflow float64;
    - standard normal points;
    - standard normal points with one drawn column stretched, so the widest
      axis is often not column 0.
    Row ids are ascending with gaps, so position and row id differ.
    """
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(
        ["lattice", "offset_lattice", "tiny", "shell", "huge", "normal", "stretched"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("lattice", "offset_lattice", "tiny", "huge"):
        cells = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        values = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        epsilon = draw(st.sampled_from([1.0, 2.0, math.sqrt(2.0), math.sqrt(3.0)]))
        if kind == "offset_lattice":
            offset = draw(st.floats(1e6, 2.0**40))
            ulp = float(np.spacing(offset))
            values = offset + values * ulp
            epsilon *= ulp
        elif kind == "tiny":
            step = draw(st.floats(1e-163, 1e-158))
            values *= step
            epsilon *= step * draw(st.sampled_from([1.0, 1e-3, 1e-10]))
        elif kind == "huge":
            values *= 5.9e307
            epsilon = draw(st.sampled_from([1.5, 1e154, 1e300, 1.5e308, 1.79e308]))
    elif kind == "shell":
        epsilon = draw(st.floats(1e-3, 1e3))
        u = rng.normal(size=(n, k))
        centre = rng.normal(size=k) * draw(st.sampled_from([0.0, 1.0, 1e3]))
        values = centre + epsilon * u / np.linalg.norm(u, axis=1, keepdims=True)
        values += rng.integers(-4, 5, size=(n, k)) * np.spacing(values)
        values[0] = centre
    else:
        values = rng.normal(size=(n, k))
        epsilon = draw(st.floats(0.2, 3.0))
        if kind == "stretched":
            values[:, draw(st.integers(0, k - 1))] *= draw(st.floats(1.5, 10.0))
    row_ids = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    cloud = bm.PointCloud(tuple(f"x{j}" for j in range(k)), values, tuple(row_ids))
    order = draw(st.sampled_from(["data", "shuffle"]))
    return cloud, epsilon, order, draw(st.integers(0, 2**32 - 1))


# Layout coordinates: the unit square's corners and centre, integral values
# (written as ints), and any other finite double.
COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 1e16]),
                       st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def laid_out_graphs(draw):
    """(graph, positions, scale) as render_graph_svg and the results writer take them.

    One to seven balls of sizes 1 to 300, any set of edges among them (none
    too), positions for every ball, and one of: no color (color_mean and
    color_bin None, no scale), color means without bins or scale, or
    assign_bins' bins and scale (means it refuses to bin are not drawn).
    """
    n = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 300), min_size=n, max_size=n))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = tuple(bm.GraphEdge(s, t, draw(st.integers(1, 300))) for s, t in sorted(chosen))
    color = draw(st.sampled_from(["none", "means", "bins"]))
    means = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    nodes = tuple(bm.GraphNode(b, size, means[b - 1] if color != "none" else None)
                  for b, size in enumerate(sizes, start=1))
    graph, scale = bm.MapperGraph(nodes, edges), None
    if color == "bins":
        try:
            scale, graph = bm.assign_bins(graph, draw(st.integers(1, 9)))
        except bm.ValidationError:  # a span like [0, 5e-324], whose bin width rounds to 0
            reject()
    positions = {b: (draw(COORDINATE), draw(COORDINATE)) for b in range(1, n + 1)}
    return graph, positions, scale
