import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import ballmapper as bm
from ballmapper.errors import ValidationError

from conftest import cover_from_members, cover_inputs, cover_key, membership_matrix
from conftest import random_cloud


def _cover_reference(cloud, epsilon, order="data", seed=0):
    """The original loop that re-gathers the uncovered set before each landmark,
    kept verbatim as the oracle."""
    n = cloud.n
    if order == "shuffle":
        scan_order = np.random.default_rng(seed).permutation(n)
    else:
        scan_order = np.arange(n)

    pts = cloud.values
    covered = np.zeros(n, dtype=bool)
    landmarks = []
    members = []
    row_ids = np.asarray(cloud.row_ids)

    while True:
        uncovered = scan_order[~covered[scan_order]]
        if uncovered.size == 0:
            break
        lm = int(uncovered[0])
        diff = pts - pts[lm]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        in_ball = np.nonzero(dist <= epsilon)[0]
        covered[in_ball] = True
        landmarks.append(int(row_ids[lm]))
        members.append(tuple(int(r) for r in row_ids[in_ball]))

    return cover_from_members(float(epsilon), tuple(landmarks), tuple(members),
                              tuple(cloud.row_ids))


def _cover_slab_reference(cloud, epsilon, order="data", seed=0):
    """The one-axis slab loop build_cover ran before its column-wise prefilter,
    kept verbatim as a second oracle."""
    n = cloud.n
    if order == "shuffle":
        scan_order = np.random.default_rng(seed).permutation(n)
    else:
        scan_order = np.arange(n)

    pts = cloud.values
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    perm = np.argsort(pts[:, axis], kind="stable")
    sorted_pts = pts[perm]
    keys = pts[perm, axis]
    half_width = epsilon * (1 + 1e-12) + 1e-160
    covered = np.zeros(n, dtype=bool)
    landmarks = []
    members = []
    row_ids = np.asarray(cloud.row_ids)

    for lm in scan_order.tolist():
        if covered[lm]:
            continue
        c = pts[lm]
        lo = int(np.searchsorted(keys, c[axis] - half_width, side="left"))
        hi = int(np.searchsorted(keys, c[axis] + half_width, side="right"))
        diff = sorted_pts[lo:hi] - c
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        in_ball = np.sort(perm[lo + np.nonzero(dist <= epsilon)[0]])
        covered[in_ball] = True
        landmarks.append(int(row_ids[lm]))
        members.append(tuple(row_ids[in_ball].tolist()))

    return cover_from_members(float(epsilon), tuple(landmarks), tuple(members),
                              tuple(cloud.row_ids))


def _cover_prefilter_reference(cloud, epsilon, order="data", seed=0):
    """The widest-axis slab loop with the column-wise prefilter, followed by the
    exact test on every survivor, that build_cover ran before it scanned each
    ball's narrowest slab: kept verbatim as a third oracle."""
    n = cloud.n
    if order == "shuffle":
        scan_order = np.random.default_rng(seed).permutation(n)
    else:
        scan_order = np.arange(n)

    pts = cloud.values
    k = cloud.k
    with np.errstate(over="ignore"):
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        perm = np.argsort(pts[:, axis], kind="stable")
        cols = np.ascontiguousarray(pts[perm].T)  # K x N, sorted along axis
        keys = cols[axis]
        half_width = epsilon * (1 + (k + 2) * 2.0**-50) + 1e-160
        bound = half_width * half_width + k * 2.0**-1070
        los = np.searchsorted(keys, pts[:, axis] - half_width, side="left")
        his = np.searchsorted(keys, pts[:, axis] + half_width, side="right")
        scratch = np.empty((k, int((his - los).max())))
        covered = np.zeros(n, dtype=bool)
        landmarks: list[int] = []
        balls: list[np.ndarray] = []  # each ball's member row ids
        row_ids = np.asarray(cloud.row_ids, dtype=np.intp)

        for lm in scan_order.tolist():
            if covered[lm]:
                continue
            c = pts[lm]
            lo, hi = int(los[lm]), int(his[lm])
            d = np.subtract(cols[:, lo:hi], c[:, None], out=scratch[:, : hi - lo])
            near = perm[lo:hi][np.einsum("ij,ij->j", d, d) <= bound]
            diff = pts[near] - c
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            in_ball = near[dist <= epsilon]
            in_ball.sort()
            covered[in_ball] = True
            landmarks.append(int(row_ids[lm]))
            balls.append(row_ids[in_ball])

    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    rows = np.concatenate(balls)
    sizes.flags.writeable = rows.flags.writeable = False
    return bm.BallCover(float(epsilon), tuple(landmarks), sizes, rows, tuple(cloud.row_ids))


ORACLES = (_cover_reference, _cover_slab_reference, _cover_prefilter_reference)


def assert_matches_oracles(cover, cloud, epsilon, order="data", seed=0):
    with np.errstate(over="ignore"):  # the oracles warn on gaps that overflow
        for oracle in ORACLES:
            assert cover_key(cover) == cover_key(oracle(cloud, epsilon, order, seed))


def _slab_counts(cloud, epsilon, position):
    """Points in each axis's slab around the point at position: those whose
    coordinate lies within build_cover's half-width of the centre's."""
    half_width = epsilon * (1 + (cloud.k + 2) * 2.0**-50) + 1e-160
    c = cloud.values[position]
    inside = (cloud.values >= c - half_width) & (cloud.values <= c + half_width)
    return inside.sum(axis=0)


def brute_force_members(cloud, epsilon, landmark_row):
    """Oracle: every row within epsilon of the landmark, via per-pair distances."""
    pos = {r: i for i, r in enumerate(cloud.row_ids)}
    lm = cloud.values[pos[landmark_row]]
    return tuple(
        r for r, x in zip(cloud.row_ids, cloud.values)
        if bm.euclidean_distance(x, lm) <= epsilon
    )


class TestBuildCover:
    def test_single_point(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0]]), (0,))
        cover = bm.build_cover(cloud, 1.0)
        assert cover.landmarks == (0,)
        assert cover.members == ((0,),)

    def test_three_point_line(self, line_cover):
        assert cover_as_tuples(line_cover) == ((0, (0, 1)), (2, (1, 2)))

    def test_epsilon_zero_rejected(self, line_cloud):
        with pytest.raises(ValidationError, match="epsilon must be positive"):
            bm.build_cover(line_cloud, 0.0)

    def test_point_at_exact_radius_is_member(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0], [1.0]]), (0, 1))
        cover = bm.build_cover(cloud, 1.0)
        assert cover.n_balls == 1
        assert cover.members[0] == (0, 1)

    def test_point_whose_distance_rounds_to_epsilon_is_member(self):
        # The squares sum to exactly 3, and sqrt(3.0) == epsilon, but
        # epsilon * epsilon rounds to just below 3: the prefilter needs its margin.
        epsilon = math.sqrt(3.0)
        assert epsilon * epsilon < 3.0
        cloud = bm.PointCloud(("x", "y", "z"), np.array([[0.0, 0, 0], [1.0, 1, 1]]), (0, 1))
        assert bm.build_cover(cloud, epsilon).members == ((0, 1),)

    def test_gaussian_cloud_ball_count(self):
        cloud = bm.gen_gaussian_cloud(1000, 2, seed=1)
        cover = bm.build_cover(cloud, 1.0)
        assert 15 <= cover.n_balls <= 30

    def test_gap_whose_square_underflows_is_member(self):
        # 1e-170 squared rounds to 0, so the distance test passes it at any radius.
        cloud = bm.PointCloud(("x",), np.array([[0.0], [1e-170], [1e-150]]), (0, 1, 2))
        cover = bm.build_cover(cloud, 1e-200)
        assert cover.members == ((0, 1), (2,))
        assert cover_key(cover) == cover_key(_cover_reference(cloud, 1e-200))

    def test_gap_that_overflows_is_no_member_and_no_warning(self):
        cloud = bm.PointCloud(("x", "y"), np.array([[1e308, 0], [-1e308, 0], [1e308, 1]]),
                              (0, 1, 2))
        for epsilon in (1.5, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cover = bm.build_cover(cloud, epsilon)
            assert cover.members == ((0, 2), (1,))

    def test_exact_test_runs_on_prefilter_survivors_only(self, monkeypatch):
        # Each ball scans the narrowest of its K axis slabs: on this cloud they
        # hold 40% of the points of the balls' slabs on the widest axis. The
        # exact sqrt test sees at most the prefilter's survivors, and none at
        # all for a ball whose survivors all lie inside the proven shell.
        cloud, _ = bm.standardize(bm.gen_gaussian_cloud(3000, 5, seed=2))
        einsum, scanned, evaluated = np.einsum, [], []

        def counting_einsum(subscripts, a, b):
            (scanned if subscripts == "ij,ij->j" else evaluated).append(a.shape)
            return einsum(subscripts, a, b)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        cover = bm.build_cover(cloud, 1.0)
        monkeypatch.undo()
        assert_matches_oracles(cover, cloud, 1.0)
        pos = {r: i for i, r in enumerate(cloud.row_ids)}
        counts = np.array([_slab_counts(cloud, 1.0, pos[lm]) for lm in cover.landmarks])
        widest = int(np.argmax(np.ptp(cloud.values, axis=0)))
        assert [shape[0] for shape in scanned] == [5] * cover.n_balls
        assert sum(shape[1] for shape in scanned) == counts.min(axis=1).sum()
        assert counts.min(axis=1).sum() < 0.5 * counts[:, widest].sum()
        assert sum(shape[0] for shape in evaluated) <= 1.01 * sum(bm.ball_sizes(cover))

    @pytest.mark.parametrize("epsilon", [1.0, 1e200, 1e-170])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_shell_around_epsilon_goes_to_exact_test(self, monkeypatch, k, epsilon):
        # Points at distance epsilon * (1 + j * 2**-52), j = -4..4, along an
        # axis and along the diagonal: their s' lies between sure and bound,
        # so the exact test decides them. At 1e200 epsilon**2 overflows and
        # at 1e-170 it underflows, so sure decides nothing there.
        radii = epsilon * (1 + np.arange(-4, 5) * 2.0**-52)
        axis = np.zeros((len(radii), k))
        axis[:, 0] = radii
        diagonal = np.repeat(radii[:, None] / math.sqrt(k), k, axis=1)
        for shell in (axis, diagonal):
            values = np.vstack([np.zeros(k), shell])
            cloud = bm.PointCloud(tuple(f"x{j}" for j in range(k)), values,
                                  tuple(range(len(values))))
            sqrt, evaluated = np.sqrt, []

            def counting_sqrt(x):
                evaluated.append(x.size)
                return sqrt(x)

            monkeypatch.setattr(np, "sqrt", counting_sqrt)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cover = bm.build_cover(cloud, epsilon)
            monkeypatch.undo()
            assert evaluated
            assert_matches_oracles(cover, cloud, epsilon)

    def test_landmark_in_own_ball(self):
        rng = np.random.default_rng(3)
        cover = bm.build_cover(random_cloud(rng, n=120, k=3), 0.8)
        for lm, members in zip(cover.landmarks, cover.members):
            assert lm in members

    def test_unknown_order_policy(self, line_cloud):
        with pytest.raises(ValueError):
            bm.build_cover(line_cloud, 1.0, order="alphabetical")

    def test_shuffle_policy_is_seed_deterministic(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, n=150, k=2)
        a = bm.build_cover(cloud, 0.7, order="shuffle", seed=9)
        b = bm.build_cover(cloud, 0.7, order="shuffle", seed=9)
        c = bm.build_cover(cloud, 0.7, order="shuffle", seed=10)
        assert cover_key(a) == cover_key(b)
        assert cover_key(a) != cover_key(c)  # different permutation picks different landmarks

    @given(cover_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_rescan_reference(self, inputs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cover = bm.build_cover(*inputs)
        assert_matches_oracles(cover, *inputs)
        assert all(type(r) is int for r in cover.landmarks)
        assert all(type(r) is int for m in cover.members for r in m)

    @pytest.mark.parametrize("order", ["data", "shuffle"])
    def test_matches_rescan_reference_on_gaussian_cloud(self, order):
        cloud = bm.gen_gaussian_cloud(2000, 3, seed=4)
        cover = bm.build_cover(cloud, 0.5, order=order, seed=8)
        assert cover.n_balls > 100
        assert_matches_oracles(cover, cloud, 0.5, order, 8)

    def test_repeat_runs_identical(self, auto_cover, auto_raw):
        cloud, _ = bm.validate_axes(
            auto_raw, ("mpg", "trunk", "weight", "length", "turn", "displacement", "gear_ratio")
        )
        std, _ = bm.standardize(cloud)
        again = bm.build_cover(std, 1.5)
        assert cover_key(again) == cover_key(auto_cover)


class TestCoverStorage:
    """The cover holds its membership once, as the (sizes, rows) arrays that the
    graph, the summaries and the merged writer read."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(bm.BallCover)] == [
            "epsilon", "landmarks", "sizes", "rows", "row_ids"]

    def test_sizes_and_rows_are_read_only_intp(self, auto_cover):
        for arr in (auto_cover.sizes, auto_cover.rows):
            assert arr.dtype == np.intp
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        assert int(auto_cover.sizes.sum()) == len(auto_cover.rows)

    def test_covers_compare_by_identity(self, line_cloud):
        a, b = bm.build_cover(line_cloud, 1.0), bm.build_cover(line_cloud, 1.0)
        assert a == a
        assert a != b
        assert cover_key(a) == cover_key(b)

    def test_retains_under_16_bytes_per_membership(self):
        # The 20k/K5/eps1 rung: 8 bytes per membership for rows, plus sizes
        # and landmarks. Member tuples of Python ints took about 42.
        cloud, _ = bm.standardize(bm.gen_gaussian_cloud(20000, 5, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cover = bm.build_cover(cloud, 1.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(bm.ball_sizes(cover)) == 58349
        assert retained < 16 * 58349

    def test_scratch_memory_bounded(self):
        # The K sorted (K, N) copies take 8 * K**2 * N bytes; their
        # permutations, one transposed copy and a few per-point arrays add
        # less than half as much again at K = 5. The peak does not grow with B.
        n, k = 20000, 5
        cloud, _ = bm.standardize(bm.gen_gaussian_cloud(n, k, 1))
        tracemalloc.start()
        try:
            bm.build_cover(cloud, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * k * k * n


def cover_as_tuples(cover):
    return tuple(zip(cover.landmarks, cover.members))


class TestMembershipMatrix:
    def test_line_example(self, line_cover):
        assert membership_matrix(line_cover) == {0: [1], 1: [1, 2], 2: [2]}

    def test_single_ball(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0], [0.5]]), (0, 1))
        cover = bm.build_cover(cloud, 1.0)
        assert membership_matrix(cover) == {0: [1], 1: [1]}

    def test_matches_distance_oracle(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, n=200, k=5)
        cover = bm.build_cover(cloud, 1.2)
        matrix = membership_matrix(cover)
        for ball, lm in enumerate(cover.landmarks, start=1):
            oracle = brute_force_members(cloud, 1.2, lm)
            assert cover.members[ball - 1] == oracle
            for r in cloud.row_ids:
                assert (ball in matrix[r]) == (r in oracle)

    def test_dropped_rows_keep_original_ids(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("x\n0\n\"\"\n1\n2\n")
        raw = bm.load_csv(path)
        cloud, dropped = bm.validate_axes(raw, ("x",), drop_missing=True)
        assert dropped == (1,)
        cover = bm.build_cover(cloud, 1.0)
        assert cover.row_ids == (0, 2, 3)
        assert cover.landmarks == (0, 3)
        assert cover.members == ((0, 2), (2, 3))
        assert membership_matrix(cover) == {0: [1], 2: [1, 2], 3: [2]}


class TestBallSizes:
    def test_line_example(self, line_cover):
        assert bm.ball_sizes(line_cover) == [2, 2]

    def test_single_point(self):
        cloud = bm.PointCloud(("x",), np.array([[3.0]]), (0,))
        assert bm.ball_sizes(bm.build_cover(cloud, 2.0)) == [1]

    def test_auto_sizes(self, auto_cover):
        assert bm.ball_sizes(auto_cover) == [
            4, 2, 8, 17, 9, 6, 2, 2, 1, 5, 10, 10, 2, 2, 4, 3, 9, 3, 2,
        ]


class TestCoverProperties:
    def test_completeness_and_separation_randomized(self):
        rng = np.random.default_rng(100)
        for trial in range(100):
            cloud = random_cloud(rng)
            eps = float(rng.uniform(0.3, 2.0))
            cover = bm.build_cover(cloud, eps)
            covered = set()
            for m in cover.members:
                covered.update(m)
            assert covered == set(cloud.row_ids)
            pos = {r: i for i, r in enumerate(cloud.row_ids)}
            lms = [cloud.values[pos[l]] for l in cover.landmarks]
            for i in range(len(lms)):
                for j in range(i + 1, len(lms)):
                    assert bm.euclidean_distance(lms[i], lms[j]) > eps

    def test_shuffle_orderings_keep_macro_structure(self):
        # Landmark-order robustness: isolated outlier balls come and go with
        # the ordering, so the stable statistic is the count of components
        # covering at least 10 points. Its modal value over 50 orderings must
        # hold in >= 80% of runs.
        cloud = bm.gen_x_dataset(bm.XDatasetSpec(seed=6))
        pc = bm.PointCloud(
            ("x1", "x2"),
            np.column_stack([cloud.column("x1"), cloud.column("x2")]),
            cloud.row_ids,
        )
        counts = []
        for s in range(50):
            cover = bm.build_cover(pc, 1.2, order="shuffle", seed=s)
            comps = bm.connected_components(bm.build_graph(cover))
            counts.append(sum(
                1 for comp in comps
                if len(set().union(*(cover.members[b - 1] for b in comp))) >= 10
            ))
        modal = max(counts.count(c) for c in set(counts))
        assert modal / len(counts) >= 0.8
