import math

import numpy as np
import pytest
from hypothesis import strategies as st

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


def membership_matrix(cover):
    """Invert the cover: row id -> sorted list of ball ids containing it.

    The loop build_graph once used, kept as an oracle for its incidence arrays.
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

    Four kinds of cloud:
    - a small integer lattice with a radius of 1, 2, sqrt(2) or sqrt(3), so
      many pairs sit exactly on the inclusive boundary;
    - the same lattice in steps of one ulp of an offset between 1e6 and 2**40,
      with the radius scaled to match, so points sit exactly at c_a +- epsilon
      on the axis the cover sorts by, where the slab bounds round;
    - standard normal points;
    - standard normal points with one drawn column stretched, so the widest
      axis is often not column 0.
    Row ids are ascending with gaps, so position and row id differ.
    """
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["lattice", "offset_lattice", "normal", "stretched"]))
    if kind in ("lattice", "offset_lattice"):
        cells = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        values = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        epsilon = draw(st.sampled_from([1.0, 2.0, math.sqrt(2.0), math.sqrt(3.0)]))
        if kind == "offset_lattice":
            offset = draw(st.floats(1e6, 2.0**40))
            ulp = float(np.spacing(offset))
            values = offset + values * ulp
            epsilon *= ulp
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, k))
        epsilon = draw(st.floats(0.2, 3.0))
        if kind == "stretched":
            values[:, draw(st.integers(0, k - 1))] *= draw(st.floats(1.5, 10.0))
    row_ids = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    cloud = bm.PointCloud(tuple(f"x{j}" for j in range(k)), values, tuple(row_ids))
    order = draw(st.sampled_from(["data", "shuffle"]))
    return cloud, epsilon, order, draw(st.integers(0, 2**32 - 1))
