import csv
import dataclasses
import io
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper import point_cloud, summary
from ballmapper.errors import ValidationError
from ballmapper.graph import _ball_means, _by_size
from ballmapper.point_cloud import format_floats, write_cells

from conftest import membership_matrix


def oracle_quantile(values, p):
    """Order-statistic quantile computed from first principles."""
    s = sorted(values)
    n = len(s)
    h = n * p / 100.0
    if h == int(h):
        k = int(h)
        return (s[k - 1] + s[min(k, n - 1)]) / 2.0
    k = int(np.ceil(h))
    return s[k - 1]


def quantile_reference(values, p):
    """quantile's scalar code before it called _quantiles: the averaging rule on
    Python floats, halving first where the sum overflows."""
    i, j = summary._order_statistics(len(values), p)
    if i == j:
        return float(values[i])
    a, b = float(values[i]), float(values[j])
    mid = (a + b) / 2.0
    return a / 2.0 + b / 2.0 if math.isinf(mid) else mid


class TestQuantile:
    def test_frozen_four_point_set(self):
        vals = sorted([4099.0, 4187.0, 6486.0, 8129.0])
        assert bm.quantile(vals, 25) == 4143.0
        assert bm.quantile(vals, 50) == 5336.5
        assert bm.quantile(vals, 75) == 7307.5

    def test_singleton(self):
        for p in (1, 25, 50, 99):
            assert bm.quantile([7.0], p) == 7.0

    def test_three_values_median(self):
        assert bm.quantile([1.0, 2.0, 3.0], 50) == 2.0  # h = 1.5 -> 2nd order stat

    def test_two_value_median_is_average(self):
        assert bm.quantile([3.0, 5.0], 50) == 4.0

    def test_midpoint_that_overflows_halves_first(self):
        assert bm.quantile([1.7e308, 1.7e308], 50) == 1.7e308
        assert bm.quantile([5e-324, 5e-324], 50) == 5e-324  # halving first would give 0

    def test_infinite_ends_average_as_python_floats_do(self):
        assert math.isnan(bm.quantile([-math.inf, math.inf], 50))  # with no warning
        assert bm.quantile([math.inf, math.inf], 50) == math.inf

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        st.sampled_from([10, 20, 25, 40, 50, 60, 75, 80, 90]),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_averages_unchanged_bit_for_bit(self, values, p):
        s = sorted(values)
        averaged = oracle_quantile(s, p)  # (a + b) / 2 with no overflow fallback
        q = bm.quantile(s, p)
        if math.isinf(averaged):
            assert s[0] <= q <= s[-1]
        else:
            assert struct.pack("<d", q) == struct.pack("<d", averaged)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=12),
           st.integers(1, 5), st.sampled_from([10, 20, 25, 40, 50, 60, 75, 80, 90]))
    @example([1.7e308, 1.7e308], 1, 50)
    @example([-1.7e308, -1.7e308, 5.0, 1.0], 2, 25)
    @settings(max_examples=300, deadline=None)
    def test_row_quantiles_are_quantile_per_row(self, values, balls, p):
        rows = np.sort(np.array([values[i:] + values[:i] for i in range(balls)]), axis=1)
        with np.errstate(over="ignore"):  # a midpoint that overflows is halved first
            got = summary._quantiles(rows, p)
        want = [quantile_reference(row, p) for row in rows.tolist()]
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        scalar = [bm.quantile(row, p) for row in rows.tolist()]
        assert np.array(scalar).view(np.int64).tolist() == got.view(np.int64).tolist()

    def test_empty_and_bad_p(self):
        with pytest.raises(ValueError):
            bm.quantile([], 50)
        with pytest.raises(ValueError):
            bm.quantile([1.0], 0)
        with pytest.raises(ValueError):
            bm.quantile([1.0], 100)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_extreme_percentiles_hit_extremes(self, values):
        s = sorted(values)
        assert bm.quantile(s, 1) == oracle_quantile(values, 1)
        assert bm.quantile(s, 99) == oracle_quantile(values, 99)
        if len(s) < 100:
            assert bm.quantile(s, 1) == s[0]
            assert bm.quantile(s, 99) == s[-1]

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
        st.sampled_from([10, 20, 25, 40, 50, 60, 75, 80, 90]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, values, p):
        assert bm.quantile(sorted(values), p) == oracle_quantile(values, p)


# ball sizes on both sides of numpy's pairwise-summation blocks (8 and 128)
PAIRWISE_SIZES = [1, 2, 7, 8, 9, 128, 129, 300]


def _random_groups(rng, n, sizes):
    """Up to 20 balls of random sizes over n rows, plus one ball of each given
    size; returns the groups and the number of rows they index."""
    rows = max([n, *sizes])
    groups = {}
    for ball in rng.permutation(20)[: int(rng.integers(1, 21))].tolist():
        size = int(rng.integers(1, n + 1))
        groups[ball] = np.sort(rng.choice(n, size=size, replace=False))
    for ball, size in enumerate(sizes, start=20):
        groups[ball] = np.sort(rng.choice(rows, size=size, replace=False))
    return groups, rows


def _as_groups(groups):
    """A dict {ball id: member rows} as the (ids, sizes, rows) the summaries take."""
    ids = sorted(groups)
    members = [np.asarray(groups[b], dtype=np.intp) for b in ids]
    return (np.array(ids, dtype=np.int64), np.array(list(map(len, members)), dtype=np.intp),
            np.concatenate(members))


def _groups_reference(balls):
    """The dict of row indices per ball id, each in file order, that _groups once returned."""
    order = np.argsort(balls, kind="stable")
    ids, starts = np.unique(balls[order], return_index=True)
    return dict(zip(ids.tolist(), np.split(order, starts[1:])))


def _by_size_reference(groups):
    """The dict loop _by_size once ran: per distinct size, the positions of its
    balls among the ids ascending, and their members as a (balls x size) array."""
    balls = sorted(groups)
    sizes = np.array([len(groups[b]) for b in balls], dtype=np.intp)
    blocks = []
    for size in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == size)
        blocks.append((at, np.array([groups[balls[i]] for i in at.tolist()], dtype=np.intp)))
    return blocks


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.sampled_from(PAIRWISE_SIZES)),
                min_size=1, max_size=10, unique_by=lambda ball: ball[0]),
       st.sampled_from([1e-300, 1.0, np.pi, 1e300, "overflow"]), st.integers(1, 3))
@example(0, list(zip([5, -3, 2**63 - 1, -2**63, 0, 9, -1, 4], PAIRWISE_SIZES)), np.pi, 2)
@example(1, list(zip([7, -7, 3, -3, 1, -1, 8, -8], PAIRWISE_SIZES)), "overflow", 3)
@settings(max_examples=100, deadline=None)
def test_blocks_and_means_match_the_dict_oracles(seed, balls, scale, v):
    rng = np.random.default_rng(seed)
    ids, counts = zip(*balls)
    # each ball's rows interleaved with the others' in file order; ids unsorted, some negative
    column = rng.permutation(np.repeat(np.array(ids, dtype=np.int64), counts))
    groups = _groups_reference(column)
    _, sizes, rows = triple = summary._groups(column)
    assert [a.tolist() for a in triple] == [a.tolist() for a in _as_groups(groups)]
    assert sizes.dtype == np.intp

    blocks, want = list(_by_size(sizes, rows)), _by_size_reference(groups)
    assert [at.tolist() for at, _ in blocks] == [at.tolist() for at, _ in want]
    for (_, members), (_, want_members) in zip(blocks, want, strict=True):
        assert members.dtype == np.intp and members.flags.c_contiguous
        assert members.tolist() == want_members.tolist()

    if scale == "overflow":  # sums that overflow to inf or nan, left for the caller
        cols = [rng.choice([1.7e308, -1.7e308, 1e308, 1.0], size=len(column)) for _ in range(v)]
    else:
        cols = [rng.normal(size=len(column)) * scale for _ in range(v)]
    got = _ball_means(sizes, rows, cols)
    # the per-ball loop: one .mean() over each ball's gathered members
    with np.errstate(over="ignore", invalid="ignore"):
        want = [[float(col[groups[b]].mean()) for b in sorted(groups)] for col in cols]
    assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


class TestBallSummary:
    def test_line_cover(self, line_cover, tmp_path):
        raw = bm.RawTable(("x", "y"), (("0", "2"), ("1", "4"), ("2", "6")))
        out = tmp_path / "means.csv"
        table = bm.ball_summary(line_cover, raw, ("y",), csv_path=out)
        assert [(r.ball, r.means, r.size) for r in table.rows] == [
            (1, (3.0,), 2), (2, (5.0,), 2),
        ]
        assert out.read_text().splitlines() == ["ball,y,size", "1,3,2", "2,5,2"]

    def test_single_ball_equals_dataset_means(self):
        cloud = bm.PointCloud(("x",), np.array([[0.0], [0.2], [0.4]]), (0, 1, 2))
        cover = bm.build_cover(cloud, 1.0)
        raw = bm.RawTable(("x",), (("0",), ("0.2",), ("0.4",)))
        table = bm.ball_summary(cover, raw, ("x",))
        assert len(table.rows) == 1
        assert table.rows[0].means[0] == pytest.approx(0.2)

    def test_unknown_variable(self, line_cover):
        raw = bm.RawTable(("x",), (("0",), ("1",), ("2",)))
        with pytest.raises(ValidationError, match="unknown column 'nope'"):
            bm.ball_summary(line_cover, raw, ("nope",))

    def test_auto_ball_one_row(self, auto_cover, auto_raw):
        table = bm.ball_summary(
            auto_cover, auto_raw,
            ("mpg", "trunk", "weight", "gear_ratio", "price", "foreign"),
        )
        row = table.rows[0]
        assert row.ball == 1
        assert row.size == 4
        mpg, trunk, weight, gear, price, foreign = row.means
        assert mpg == 22.5
        assert trunk == 9.25
        assert weight == 2712.5
        assert gear == pytest.approx(3.4375, abs=1e-12)
        assert price == 5725.25
        assert foreign == 0.25

    def test_overflowing_mean_refused(self):
        raw = bm.RawTable(("c",), (("1.7e308",), ("1.7e308",)))
        with pytest.raises(ValidationError, match="the mean of 'c' in ball 3 overflows float64"):
            summary.means_over_groups(raw, _as_groups({3: [0, 1]}), ("c",))

    def test_groups_keep_file_order(self):
        balls = ("2", "1", "2", "1", " 3 ", "3")
        raw = bm.RawTable(("ball", "x"), tuple((b, str(i)) for i, b in enumerate(balls)))
        ids, sizes, rows = summary.ball_groups_from_merged(raw)
        assert ids.tolist() == [1, 2, 3]
        assert sizes.tolist() == [2, 2, 2]
        assert rows.tolist() == [1, 3, 0, 2, 4, 5]  # balls 1, 2, 3, each in file order

    @pytest.mark.parametrize("cell", ["x", "1.0", "", "9223372036854775808",
                                      "-9223372036854775809"])
    def test_bad_ball_id_named(self, cell):
        raw = bm.RawTable(("ball", "x"), (("1", "0"), (cell, "1"), ("y", "2")))
        with pytest.raises(ValidationError) as exc:
            summary.ball_groups_from_merged(raw)
        assert str(exc.value) == f"bad ball id {cell!r} at merged row 1"

    def test_cells_no_ball_holds_are_not_parsed(self, auto_raw):
        # rep78 is missing in the five dropped rows, which no ball holds
        cloud, dropped = bm.validate_axes(auto_raw, ("rep78", "mpg"), drop_missing=True)
        assert dropped == (2, 6, 44, 50, 63)
        cover = bm.build_cover(cloud, 1.0)
        rep78 = dict(zip(cloud.row_ids, cloud.column("rep78")))
        means = bm.ball_summary(cover, auto_raw, ("rep78",))
        dist = bm.variable_summary(cover, auto_raw, "rep78")
        for members, m, d in zip(cover.members, means.rows, dist.rows):
            assert m.means[0] == d.mean == np.mean([rep78[r] for r in members])

    @pytest.mark.parametrize("summarise", [
        lambda cover, raw: bm.ball_summary(cover, raw, ("v",)),
        lambda cover, raw: bm.variable_summary(cover, raw, "v"),
    ], ids=["ball_summary", "variable_summary"])
    def test_held_bad_cell_refused_with_its_row(self, summarise):
        raw = bm.RawTable(("x", "v"), (("0", ""), ("1", "1"), ("2", "foo"), ("3", "")))
        cloud = bm.PointCloud(("x",), np.array([[1.0], [2.0]]), (1, 2))
        with pytest.raises(ValidationError) as exc:
            summarise(bm.build_cover(cloud, 0.5), raw)
        assert str(exc.value) == "non-numeric cell 'foo' in column 'v' at row 2"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 4),
           st.sampled_from([1e-300, 1.0, np.pi, 1e300]),
           st.lists(st.sampled_from(PAIRWISE_SIZES), max_size=8))
    @example(0, 1, 2, np.pi, PAIRWISE_SIZES)
    @settings(max_examples=100, deadline=None)
    def test_one_gather_per_ball_matches_per_variable_loop(self, seed, n, v, scale, sizes):
        rng = np.random.default_rng(seed)
        variables = tuple(f"v{j}" for j in range(v))
        groups, rows = _random_groups(rng, n, sizes)
        cols = {name: rng.normal(size=rows) * scale for name in variables}
        table = summary._means(_as_groups(groups), cols)
        # the loop the means were taken with before: one gather per variable
        want = [tuple(float(cols[name][groups[b]].mean()) for name in variables)
                for b in sorted(groups)]
        got = [row.means for row in table.rows]
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        assert [row.size for row in table.rows] == [len(groups[b]) for b in sorted(groups)]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300),
           st.sampled_from([1e-300, 1.0, np.pi, 1e150]),  # squares of 1e300 overflow the sd
           st.lists(st.sampled_from(PAIRWISE_SIZES), max_size=8))
    @example(0, 1, np.pi, PAIRWISE_SIZES)
    @settings(max_examples=100, deadline=None)
    def test_distribution_per_size_matches_per_ball_loop(self, seed, n, scale, sizes):
        rng = np.random.default_rng(seed)
        groups, rows = _random_groups(rng, n, sizes)
        col = rng.normal(size=rows) * scale
        got = summary._distribution(_as_groups(groups), col, "v").rows
        for row, ball in zip(got, sorted(groups), strict=True):
            # the per-ball loop the table was built with before
            member_vals = col[groups[ball]]
            vals = np.sort(member_vals)
            want = (ball, float(member_vals.mean()),
                    float(member_vals.std(ddof=1)) if len(vals) > 1 else None,
                    float(vals[0]), *(summary.quantile(vals, p) for p in (25, 50, 75)),
                    float(vals[-1]), len(vals))
            have = (row.ball, row.mean, row.sd, row.min, row.q25, row.q50, row.q75, row.max,
                    row.size)
            assert [struct.pack("<d", x) if isinstance(x, float) else x for x in have] == [
                struct.pack("<d", x) if isinstance(x, float) else x for x in want]

    @pytest.mark.parametrize("cells, summarise, message", [
        ((("1.7e308", "1.7e308"),) * 5,
         lambda raw, groups: summary.means_over_groups(raw, groups, ("a", "b")),
         "the mean of 'a' in ball 2 overflows float64"),
        ((("0", "1.7e308"),) * 5,
         lambda raw, groups: summary.means_over_groups(raw, groups, ("a", "b")),
         "the mean of 'b' in ball 2 overflows float64"),
        ((("1.7e308", "0"),) * 2 + (("0", "1.7e308"),) * 3,
         lambda raw, groups: summary.means_over_groups(raw, groups, ("a", "b")),
         "the mean of 'b' in ball 2 overflows float64"),
        ((("1.7e308", "0"),) * 5,
         lambda raw, groups: summary.distribution_over_groups(raw, groups, "a"),
         "the mean of 'a' in ball 2 overflows float64"),
        ((("1.7e308", "0"),) * 2 + (("1e200", "0"), ("-1e200", "0"), ("0", "0")),
         lambda raw, groups: summary.distribution_over_groups(raw, groups, "a"),
         "the sd of 'a' in ball 2 overflows float64"),
    ], ids=["means", "means_second_variable", "means_ball_before_variable",
            "distribution_mean", "distribution_sd"])
    def test_first_overflow_in_ball_order_across_sizes(self, cells, summarise, message):
        # ball 7 (two members) is reduced before ball 2 (three members), as
        # sizes are taken in ascending order; the lower ball id is named
        raw = bm.RawTable(("a", "b"), cells)
        with pytest.raises(ValidationError) as exc:
            summarise(raw, _as_groups({7: [0, 1], 2: [2, 3, 4]}))
        assert str(exc.value) == message

    def test_sizes_column_matches_ball_sizes(self, auto_cover, auto_raw):
        table = bm.ball_summary(auto_cover, auto_raw, ("price",))
        assert [r.size for r in table.rows] == bm.ball_sizes(auto_cover)


class TestVariableSummary:
    def test_auto_price_singleton_ball(self, auto_cover, auto_raw):
        table = bm.variable_summary(auto_cover, auto_raw, "price")
        row = table.rows[8]
        assert row.ball == 9
        assert row.sd is None
        assert row.size == 1
        assert (row.mean, row.min, row.q25, row.q50, row.q75, row.max) == (4504.0,) * 6

    def test_auto_foreign_constant_ball(self, auto_cover, auto_raw):
        table = bm.variable_summary(auto_cover, auto_raw, "foreign")
        row = table.rows[17]
        assert row.ball == 18
        assert row.size == 3
        assert row.mean == 1.0
        assert row.sd == 0.0
        assert (row.min, row.q25, row.q50, row.q75, row.max) == (1.0,) * 5

    def test_constant_variable_everywhere(self, line_cover):
        raw = bm.RawTable(("c",), (("9",), ("9",), ("9",)))
        table = bm.variable_summary(line_cover, raw, "c")
        for row in table.rows:
            assert row.sd == 0.0
            assert row.min == row.q25 == row.q50 == row.q75 == row.max == 9.0

    def test_ball_extremes_inside_dataset_extremes(self, auto_cover, auto_raw):
        price = auto_raw.numeric_column("price")
        table = bm.variable_summary(auto_cover, auto_raw, "price")
        for row in table.rows:
            assert price.min() <= row.min
            assert row.max <= price.max()
            assert row.min <= row.q25 <= row.q50 <= row.q75 <= row.max

    def test_means_bitwise_equal_to_ball_summary(self, auto_cover, auto_raw):
        means_table = bm.ball_summary(auto_cover, auto_raw, ("price",))
        dist_table = bm.variable_summary(auto_cover, auto_raw, "price")
        for a, b in zip(means_table.rows, dist_table.rows):
            assert a.means[0] == b.mean

    def test_means_bitwise_equal_on_irrational_values(self):
        # sums of floats are order-sensitive; both paths must use member order
        rng = np.random.default_rng(14)
        n = 120
        values = rng.normal(size=n) * np.pi
        cloud = bm.PointCloud(("x",), rng.normal(size=(n, 1)), tuple(range(n)))
        cover = bm.build_cover(cloud, 0.8)
        raw = bm.RawTable(("v",), tuple((repr(float(v)),) for v in values))
        means_table = bm.ball_summary(cover, raw, ("v",))
        dist_table = bm.variable_summary(cover, raw, "v")
        for a, b in zip(means_table.rows, dist_table.rows):
            assert a.means[0] == b.mean

    @pytest.mark.parametrize("cells, stat", [(("1.7e308", "1.7e308"), "mean"),
                                             (("1e200", "-1e200"), "sd")])
    def test_overflowing_mean_or_sd_refused(self, cells, stat):
        raw = bm.RawTable(("c",), tuple((c,) for c in cells))
        with pytest.raises(ValidationError, match=f"the {stat} of 'c' in ball 3 overflows float64"):
            summary.distribution_over_groups(raw, _as_groups({3: [0, 1]}), "c")

    def test_csv_sd_field_empty_for_singletons(self, auto_cover, auto_raw, tmp_path):
        out = tmp_path / "price.csv"
        bm.variable_summary(auto_cover, auto_raw, "price", csv_path=out)
        lines = out.read_text().splitlines()
        assert lines[0] == "ball,mean,sd,min,q25,q50,q75,max,size"
        ball9 = lines[9].split(",")
        assert ball9[0] == "9"
        assert ball9[2] == ""

    def test_membership_total_matches_size_sum(self, auto_cover):
        matrix = membership_matrix(auto_cover)
        total = sum(len(balls) for balls in matrix.values())
        assert total == sum(bm.ball_sizes(auto_cover)) == 101
        assert auto_cover.n_points == 74


# ------------------------------------------ the tables' column writer


def _write_table_reference(path, header, rows):
    """The tables' writer as it was: each cell on its own, an int by str, a float by
    the CSV float rule and None as an empty field, through write_cells."""
    def cell(c):
        return "" if c is None else str(c) if isinstance(c, int) else format_floats([c])[0]
    write_cells(path, header, [[cell(c) for c in row] for row in rows])


TABLE_NAME = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                     min_size=1, max_size=4)  # UTF-8 text that csv.writer takes
BALL_ID = st.integers(-2**63, 2**63 - 1)
TABLE_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, 1e16, 2.0**53 + 2, 5e-324]))


@st.composite
def means_tables(draw):
    variables = tuple(draw(st.lists(TABLE_NAME, min_size=1, max_size=3, unique=True)))
    rows = draw(st.lists(st.builds(summary.BallMeansRow, BALL_ID,
                                   st.tuples(*[TABLE_FLOAT] * len(variables)),
                                   st.integers(1, 10**6)), max_size=20))
    return bm.BallMeansTable(variables, tuple(rows))


DISTRIBUTION_ROWS = st.builds(summary.BallDistributionRow, BALL_ID, TABLE_FLOAT,
                              st.one_of(st.none(), TABLE_FLOAT), *[TABLE_FLOAT] * 5,
                              st.integers(1, 10**6))


@given(means_tables(), st.lists(DISTRIBUTION_ROWS, max_size=20))
@settings(max_examples=200, deadline=None)
def test_tables_write_as_the_cell_by_cell_writer(tmp_path_factory, means, rows):
    out = tmp_path_factory.mktemp("tables")
    means.write(out / "means.csv")
    _write_table_reference(out / "means_ref.csv", ("ball", *means.variables, "size"),
                           [(r.ball, *r.means, r.size) for r in means.rows])
    assert (out / "means.csv").read_bytes() == (out / "means_ref.csv").read_bytes()
    summary.BallDistributionTable("v", tuple(rows)).write(out / "dist.csv")
    header = [f.name for f in dataclasses.fields(summary.BallDistributionRow)]
    _write_table_reference(out / "dist_ref.csv", header,
                           [[getattr(r, name) for name in header] for r in rows])
    assert (out / "dist.csv").read_bytes() == (out / "dist_ref.csv").read_bytes()


# ------------------------------------------ the plain-file reader (numpy's C parser)

GAUSS5_NAMES = ("x1", "x2", "x3", "x4", "x5", "c")
INJECT_AT = 2500  # a data row in the second block of the file below


def _gauss5_lines(n=3000):
    """The lines of a merged CSV shaped as the gauss5_cover workload's: ball,
    x1..x5 and c, floats in repr, balls ascending, and the empty string after
    the last newline; n = 3000 rows span two blocks."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, 5))
    rows = np.column_stack([x, (x ** 2).sum(axis=1)]).tolist()
    balls = np.sort(rng.integers(1, 300, size=n)).tolist()
    return ["ball," + ",".join(GAUSS5_NAMES)] + [
        ",".join([str(b)] + [repr(v) for v in row]) for b, row in zip(balls, rows)] + [""]


def _with_cell(cell, j=6):
    """A change to the lines: data row INJECT_AT's cell j replaced."""
    def change(lines):
        cells = lines[1 + INJECT_AT].split(",")
        cells[j] = cell
        lines[1 + INJECT_AT] = ",".join(cells)
    return change


def _with_line(line):
    """A change to the lines: one more line before data row INJECT_AT."""
    return lambda lines: lines.insert(1 + INJECT_AT, line)


DECLINED = {  # name: a change to the lines that the plain reader declines
    "quote": _with_cell('"1.5"'),
    "lone_cr": _with_cell("1.5\r"),
    "crlf": lambda lines: lines.__setitem__(1 + INJECT_AT, lines[1 + INJECT_AT] + "\r"),
    "bom": lambda lines: lines.__setitem__(0, "﻿" + lines[0]),
    "nul": _with_cell("1\x005"),
    "non_ascii": _with_cell("1.5é"),
    "hash": _with_cell("#1.5"),
    "underscore": _with_cell("1_000"),
    "whitespace_line": _with_line("   "),
    "short_row": lambda lines: lines.__setitem__(
        1 + INJECT_AT, lines[1 + INJECT_AT].rsplit(",", 1)[0]),
    "long_row": lambda lines: lines.__setitem__(1 + INJECT_AT, lines[1 + INJECT_AT] + ",1"),
    "over_limit": _with_cell("1." + "0" * 248),  # within the lowered limit, but not its line
    "nan": _with_cell("nan"),
    "inf": _with_cell("-inf"),
    "overflow": _with_cell("1e999"),
    "empty_cell": _with_cell(""),
    "ball_float": _with_cell("1.0", j=0),
    "ball_past_int64": _with_cell("9223372036854775808", j=0),
    "no_rows": lambda lines: lines.__delitem__(slice(1, -1)),
}
READ = {  # name: a change to the lines that leaves the file plain
    "none": lambda lines: None,
    "blank_line": _with_line(""),
    "ball_plus": _with_cell("+7", j=0),
    "ball_spaces": _with_cell(" 7 ", j=0),
    "no_final_newline": lambda lines: lines.pop(),
}


def _read_plain_merged(path, names):
    """The plain reader's result for a merged file as (groups, columns), or None; it
    holds the names' columns alone, and no refused cell."""
    plain = point_cloud._read_plain(path, names, merged=True)
    assert plain is None or (set(plain[2]) == set(names) and plain[3] == {})
    return plain and (summary._groups(plain[1]), plain[2])


def _read_streamed_merged(path, names):
    """The streamed reader's result for a merged file as (groups, columns); no cell refused."""
    _, ids, columns, bad = point_cloud._read_streamed(path, names, merged=True)
    assert bad == dict.fromkeys(names)
    return summary._groups(ids), columns


def _merged_file(tmp_path, change):
    lines = _gauss5_lines()
    change(lines)
    path = tmp_path / "m.csv"
    path.write_bytes("\n".join(lines).encode())
    return path


@pytest.fixture
def field_limit_300():
    old = csv.field_size_limit(300)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("change", READ.values(), ids=READ.keys())
def test_plain_reader_reads_gauss5_shaped_file_as_streamed(change, tmp_path, field_limit_300):
    path = _merged_file(tmp_path, change)
    for names in (GAUSS5_NAMES, ("c",)):
        got, want = _read_plain_merged(path, names), _read_streamed_merged(path, names)
        assert got is not None
        assert [a.tolist() for a in got[0]] == [a.tolist() for a in want[0]]  # ids, sizes, rows
        assert all(got[1][n].tobytes() == want[1][n].tobytes() for n in names)


@pytest.mark.parametrize("change", DECLINED.values(), ids=DECLINED.keys())
def test_plain_reader_declines_each_feature(change, tmp_path, field_limit_300):
    path = _merged_file(tmp_path, change)
    assert _read_plain_merged(path, GAUSS5_NAMES) is None


def test_plain_reader_declines_ball_as_variable(tmp_path):
    assert _read_plain_merged(_merged_file(tmp_path, READ["none"]), ("ball",)) is None


@pytest.mark.parametrize("header", [
    "ball,x1,x2,x1", "ball,x1,x2, ", "ball,x1,x2,", "ball,x1,x2,x1 ", "bal,x1,x2,c",
    'ball,x1,x2,"c"', "ball,x1,x2,c\r", "ball,x1,x2,cé",
], ids=["duplicate", "blank", "empty", "duplicate_after_strip", "no_ball", "quoted",
        "cr", "non_ascii"])
def test_plain_reader_declines_each_header_fault(header, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(header + "\n1,2,3,4\n")
    assert _read_plain_merged(path, ("x2",)) is None


@pytest.mark.parametrize("name", ["quote", "lone_cr", "crlf", "nul", "non_ascii"])
def test_plain_reader_declines_a_late_byte_before_numpy_parses(name, tmp_path, monkeypatch):
    # the byte sits in the file's second block, so such a file is parsed only once
    path = _merged_file(tmp_path, DECLINED[name])
    assert len("\n".join(_gauss5_lines()[:1 + INJECT_AT])) > point_cloud._BLOCK_BYTES

    def parse(*args, **kwargs):
        raise AssertionError("numpy parsed a file that is not plain")
    monkeypatch.setattr(np, "loadtxt", parse)
    assert _read_plain_merged(path, GAUSS5_NAMES) is None


def test_plain_reader_stops_reading_at_a_line_over_the_limit():
    f = io.BytesIO(b"1,2\n" + b"9" * (10 * point_cloud._BLOCK_BYTES) + b"\n")
    with pytest.raises(point_cloud._NotPlain):
        list(point_cloud._plain_lines(f, 1000))
    assert f.tell() == point_cloud._BLOCK_BYTES  # the long line is not read to its end


# decimal text as a merged CSV holds it: repr of a float, or digits, point and exponent
DIGITS = st.text("0123456789", min_size=1, max_size=25)
DECIMAL = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.builds(lambda pad, sign, whole, frac, exp: f"{pad}{sign}{whole}{frac}{exp}{pad}",
              st.sampled_from(["", " "]), st.sampled_from(["", "+", "-"]), DIGITS,
              st.one_of(st.just(""), st.just("."), DIGITS.map(".".__add__)),
              st.one_of(st.just(""), st.builds("e{}{}".format, st.sampled_from(["", "+", "-"]),
                                               st.integers(0, 400)))),
)


def _numpy_cells(cells, dtype):
    """numpy's parse of one-cell lines, as the plain reader calls it; None if it
    raises or warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(cells, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None


@given(st.lists(DECIMAL, min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_numpy_float_parse_is_float_bit_for_bit(cells):
    got = _numpy_cells(cells, np.float64)
    assert got is not None
    want = np.array([float(c) for c in cells])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@given(st.text("0123456789+-._ eExi#", min_size=1, max_size=12))
@settings(max_examples=500, deadline=None)
def test_numpy_accepts_only_what_int_and_float_accept(cell):
    got = _numpy_cells([cell], np.float64)
    if got is not None and np.isfinite(got[0]):
        assert struct.pack("<d", got[0]) == struct.pack("<d", float(cell))
    got = _numpy_cells([cell], np.int64)
    if got is not None:
        assert int(got[0]) == int(cell)
