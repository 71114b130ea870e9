import csv
import io
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper.errors import ValidationError
from ballmapper import point_cloud
from ballmapper.point_cloud import _parse_cell, csv_lines, format_floats


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_minimal_single_cell(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\n3.0\n"))
        cloud, dropped = bm.validate_axes(raw, ("x",))
        assert (cloud.n, cloud.k) == (1, 1)
        assert cloud.values[0, 0] == 3.0
        assert dropped == ()

    def test_crlf_accepted(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "a,b\r\n1,2\r\n3,4\r\n"))
        assert len(raw.rows) == 2
        assert raw.rows[1] == ("3", "4")

    def test_duplicate_header_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate header names \\['x'\\]"):
            bm.load_csv(write(tmp_path, "x,x\n1,2\n"))

    def test_duplicate_header_after_stripping_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate header names \\['a'\\]"):
            bm.load_csv(write(tmp_path, "a, a\n1,2\n"))

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="row 0 has 1 cells, header has 2"):
            bm.load_csv(write(tmp_path, "a,b\n1\n"))

    @pytest.mark.parametrize("data, message", [
        (b"x\n\xff\n", "not UTF-8 text"),
        (b"x\n" + b"1" * 131073 + b"\n", "line 2: field larger than field limit (131072)"),
    ], ids=["not_utf8", "oversize_field"])
    def test_unreadable_text_names_the_file(self, tmp_path, data, message):
        p = tmp_path / "t.csv"
        p.write_bytes(data)
        with pytest.raises(ValidationError, match=re.escape(f"{p}: {message}")):
            bm.load_csv(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            bm.load_csv(tmp_path / "nope.csv")

    def test_text_columns_preserved(self, auto_raw):
        assert auto_raw.rows[0][auto_raw.column_index("make")] == "AMC Concord"
        assert len(auto_raw.rows) == 74


class TestValidateAxes:
    def test_unselected_missing_column_ignored(self, auto_raw):
        cloud, dropped = bm.validate_axes(auto_raw, ("mpg", "weight"))
        assert cloud.n == 74
        assert dropped == ()

    def test_missing_cell_is_error_by_default(self, auto_raw):
        with pytest.raises(ValidationError) as exc:
            bm.validate_axes(auto_raw, ("rep78",))
        assert str(exc.value) == "missing value in column 'rep78' at row 2"  # AMC Spirit

    def test_drop_missing_reports_rows(self, auto_raw):
        cloud, dropped = bm.validate_axes(auto_raw, ("rep78",), drop_missing=True)
        assert cloud.n == 69
        assert len(dropped) == 5
        assert all(r not in cloud.row_ids for r in dropped)

    def test_non_numeric_cell(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\n1\nfoo\n"))
        with pytest.raises(ValidationError) as exc:
            bm.validate_axes(raw, ("x",))
        assert str(exc.value) == "non-numeric cell 'foo' in column 'x' at row 1"

    def test_scientific_notation_accepted(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\n1e-3\n2E+4\n"))
        cloud, _ = bm.validate_axes(raw, ("x",))
        assert cloud.values[:, 0] == pytest.approx([1e-3, 2e4])

    def test_nan_literal_rejected(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\nnan\n"))
        with pytest.raises(ValidationError, match="non-numeric cell 'nan' in column 'x' at row 0"):
            bm.validate_axes(raw, ("x",))

    def test_unknown_axis_named(self, auto_raw):
        with pytest.raises(ValidationError, match="unknown column 'bogus'"):
            bm.validate_axes(auto_raw, ("bogus",))

    def test_row_ids_keep_file_order(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n5,1\n,2\n7,3\n"))
        cloud, dropped = bm.validate_axes(raw, ("x",), drop_missing=True)
        assert cloud.row_ids == (0, 2)
        assert dropped == (1,)

    def test_empty_after_drop(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n,1\n,2\n"))
        with pytest.raises(ValidationError, match="no rows remain after dropping rows with"):
            bm.validate_axes(raw, ("x",), drop_missing=True)

    def test_header_only_has_no_data_rows(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n"))
        for drop_missing in (False, True):
            with pytest.raises(ValidationError, match="^the table has no data rows$"):
                bm.validate_axes(raw, ("x",), drop_missing=drop_missing)

    def test_repeated_axis_named(self, auto_raw):
        with pytest.raises(ValidationError, match="'mpg'"):
            bm.validate_axes(auto_raw, ("mpg", "weight", "mpg"))

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n1,2\n foo ,\n,bar\n"))
        with pytest.raises(ValidationError) as exc:
            bm.validate_axes(raw, ("x", "y"))
        assert str(exc.value) == "non-numeric cell ' foo ' in column 'x' at row 1"
        with pytest.raises(ValidationError) as exc:
            bm.validate_axes(raw, ("y", "x"))
        assert str(exc.value) == "missing value in column 'y' at row 1"

    def test_drop_missing_drops_whole_row(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n1,2\n3,inf\n4,5\n"))
        cloud, dropped = bm.validate_axes(raw, ("x", "y"), drop_missing=True)
        assert dropped == (1,)
        assert cloud.values.tolist() == [[1.0, 2.0], [4.0, 5.0]]


def _validate_axes_reference(raw, axes, drop_missing):
    """validate_axes' row-major per-cell loop, the only path before the bulk parser."""
    cols = [raw.column_index(a) for a in axes]
    values, keep, dropped = [], [], []
    for i, row in enumerate(raw.rows):
        try:
            values.append([_parse_cell(row[j], i, a) for j, a in zip(cols, axes)])
        except ValidationError:
            if not drop_missing:
                raise
            dropped.append(i)
        else:
            keep.append(i)
    if not keep:
        raise ValidationError(
            "no rows remain after dropping rows with missing values" if dropped
            else "the table has no data rows"
        )
    return np.array(values), tuple(keep), tuple(dropped)


def _outcome(parse):
    """What a parse gives: its floats bit for bit, or its error message."""
    try:
        values, *ids = parse()
    except ValidationError as exc:
        return "error", str(exc)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    return values.shape, values.tobytes(), ids


PADS = (" \u2003", " \u2003\x1c\x1d\x1e\x1f")  # float() strips only the first set
SPECIALS = (("1_0",), ("1_0", "", "nan", "inf", "1e400"))


@st.composite
def cell_tables(draw):
    """A RawTable of numeric-looking cells; some tables are all plain floats."""
    k = draw(st.integers(1, 3))
    pad = st.text(alphabet=draw(st.sampled_from(PADS)), max_size=2)
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = st.one_of(st.tuples(pad, finite, pad).map("".join),
                     st.sampled_from(draw(st.sampled_from(SPECIALS))))
    rows = draw(st.lists(st.tuples(*[cell] * k), max_size=6))
    return bm.RawTable(tuple(f"c{j}" for j in range(k)), tuple(rows))


class TestBulkParserMatchesPerCellLoop:
    @given(cell_tables(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_validate_axes(self, raw, drop_missing):
        axes = raw.column_names[::-1]  # not file order, so the row-major order matters

        def parse():
            cloud, dropped = bm.validate_axes(raw, axes, drop_missing=drop_missing)
            return cloud.values, cloud.row_ids, dropped

        assert _outcome(parse) == _outcome(
            lambda: _validate_axes_reference(raw, axes, drop_missing))

    @given(cell_tables())
    @settings(max_examples=300, deadline=None)
    def test_numeric_column(self, raw):
        for j, name in enumerate(raw.column_names):
            got = _outcome(lambda: (raw.numeric_column(name),))
            want = _outcome(lambda: (np.array(
                [_parse_cell(r[j], i, name) for i, r in enumerate(raw.rows)]),))
            assert got == want

    @pytest.mark.parametrize("rows, message", [
        # axes (y, x): row-major meets 'foo' at row 1, column-major the '' at row 2
        ((("1", "2"), ("foo", "3"), ("4", "")), "non-numeric cell 'foo' in column 'x' at row 1"),
        ((("1", "2"), ("nan", "")), "missing value in column 'y' at row 1"),
    ], ids=["row_before_column", "two_bad_axes_in_one_row"])
    def test_first_bad_cell_examples(self, rows, message):
        raw = bm.RawTable(("x", "y"), rows)
        axes = ("y", "x")
        with pytest.raises(ValidationError) as exc:
            bm.validate_axes(raw, axes)
        assert str(exc.value) == message
        cloud, dropped = bm.validate_axes(raw, axes, drop_missing=True)
        assert (cloud.values.tolist(), cloud.row_ids) == ([[2.0, 1.0]], (0,))
        assert dropped == tuple(range(1, len(rows)))
        for drop_missing in (False, True):
            def parse():
                cloud, dropped = bm.validate_axes(raw, axes, drop_missing=drop_missing)
                return cloud.values, cloud.row_ids, dropped

            assert _outcome(parse) == _outcome(
                lambda: _validate_axes_reference(raw, axes, drop_missing))

    def test_control_padding_falls_through(self):
        raw = bm.RawTable(("x",), (("\x1c1\x1f",), ("2",)))
        cloud, _ = bm.validate_axes(raw, ("x",))
        assert cloud.values.tolist() == [[1.0], [2.0]]
        assert raw.numeric_column("x").tolist() == [1.0, 2.0]


class TestPointCloudInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bm.PointCloud(("x",), np.array([[np.nan]]), (0,))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            bm.PointCloud(("x", "x"), np.ones((2, 2)), (0, 1))

    def test_rejects_row_id_mismatch(self):
        with pytest.raises(ValueError):
            bm.PointCloud(("x",), np.ones((2, 1)), (0,))

    @pytest.mark.parametrize("row_ids", [(0, 0), (5, 2), (-1,)],
                             ids=["repeated", "descending", "negative"])
    def test_rejects_row_ids_not_ascending(self, row_ids):
        values = np.arange(len(row_ids), dtype=float).reshape(-1, 1)
        with pytest.raises(ValueError, match="strictly ascending") as exc:
            bm.PointCloud(("x",), values, row_ids)
        assert exc.type is ValueError  # misuse of the type, not bad input

    def test_values_are_read_only(self):
        cloud = bm.PointCloud(("x",), np.ones((2, 1)), (0, 1))
        with pytest.raises(ValueError):
            cloud.values[0, 0] = 2.0


class TestStandardize:
    def test_three_point_column(self):
        cloud = bm.PointCloud(("x",), np.array([[1.0], [2.0], [3.0]]), (0, 1, 2))
        out, spec = bm.standardize(cloud)
        assert out.values[:, 0] == pytest.approx([-1.0, 0.0, 1.0])
        assert spec.means == (2.0,)
        assert spec.sds == (1.0,)

    def test_constant_column_rejected(self):
        cloud = bm.PointCloud(("x",), np.array([[5.0], [5.0], [5.0]]), (0, 1, 2))
        with pytest.raises(ValidationError, match="column 'x' has zero variance"):
            bm.standardize(cloud)

    @pytest.mark.parametrize("column", [(1.7e308, 1.7e308), (1e300, -1e300, 0.0)],
                             ids=["mean", "sd"])
    def test_overflowing_moments_rejected(self, column):
        cloud = bm.PointCloud(("x",), np.array(column)[:, None], tuple(range(len(column))))
        with pytest.raises(ValidationError, match="the mean or sd of column 'x' overflows float64"):
            bm.standardize(cloud)

    def test_auto_weight_moments(self, auto_raw):
        cloud, _ = bm.validate_axes(auto_raw, ("weight",))
        _, spec = bm.standardize(cloud)
        assert spec.means[0] == pytest.approx(3019.4594594594594, abs=1e-9)
        assert spec.sds[0] == pytest.approx(777.2, abs=0.05)

    def test_standardized_moments_near_zero_one(self, auto_raw):
        cloud, _ = bm.validate_axes(
            auto_raw, ("mpg", "trunk", "weight", "length", "turn", "displacement", "gear_ratio")
        )
        std, _ = bm.standardize(cloud)
        for j in range(std.k):
            assert abs(std.values[:, j].mean()) < 1e-10
            assert abs(std.values[:, j].std(ddof=1) - 1.0) < 1e-10

    def test_untouched_columns_stay(self, auto_raw):
        cloud, _ = bm.validate_axes(auto_raw, ("mpg", "weight"))
        out, spec = bm.standardize(cloud, ("mpg",))
        assert spec.columns == ("mpg",)
        assert np.array_equal(out.column("weight"), cloud.column("weight"))


class TestEuclideanDistance:
    def test_identity(self):
        assert bm.euclidean_distance((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_pythagorean(self):
        assert bm.euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            bm.euclidean_distance((1.0,), (1.0, 2.0))

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b = rng.normal(size=(2, 5))
            expected = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
            got = bm.euclidean_distance(a, b)
            if expected:
                assert abs(got - expected) / expected < 1e-12
            else:
                assert got == 0.0

    def test_metric_properties_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b, c = rng.normal(scale=10.0, size=(3, 4))
            dab = bm.euclidean_distance(a, b)
            assert dab == bm.euclidean_distance(b, a)
            assert bm.euclidean_distance(a, a) == 0.0
            assert dab <= bm.euclidean_distance(a, c) + bm.euclidean_distance(c, b) + 1e-9


class TestCorrelationMatrix:
    def test_auto_mpg_weight(self, auto_raw):
        cloud, _ = bm.validate_axes(auto_raw, ("mpg", "weight"))
        m = bm.correlation_matrix(cloud)
        assert m[0, 1] == pytest.approx(-0.8072, abs=0.0001)

    def test_diagonal_exactly_one_and_symmetric(self, auto_raw):
        cols = ("price", "mpg", "trunk", "weight", "length", "turn",
                "displacement", "gear_ratio", "foreign")
        cloud, _ = bm.validate_axes(auto_raw, cols)
        m = bm.correlation_matrix(cloud)
        assert np.all(np.diag(m) == 1.0)
        assert np.array_equal(m, m.T)
        assert np.all(m >= -1.0) and np.all(m <= 1.0)

    def test_column_with_itself(self):
        vals = np.arange(10.0).reshape(-1, 1)
        cloud = bm.PointCloud(("x", "y"), np.hstack([vals, vals * 2]), tuple(range(10)))
        m = bm.correlation_matrix(cloud)
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_x_dataset_near_zero_correlation(self):
        for seed in (0, 1, 2):
            cloud = bm.gen_x_dataset(bm.XDatasetSpec(seed=seed))
            sub = bm.PointCloud(
                ("x1", "x2"),
                np.column_stack([cloud.column("x1"), cloud.column("x2")]),
                cloud.row_ids,
            )
            m = bm.correlation_matrix(sub)
            assert abs(m[0, 1]) < 0.05

    def test_zero_variance_rejected(self):
        cloud = bm.PointCloud(("x", "c"), np.array([[1.0, 5.0], [2.0, 5.0]]), (0, 1))
        with pytest.raises(ValidationError, match="column 'c' has zero variance"):
            bm.correlation_matrix(cloud)


class TestCsvRoundTrip:
    def test_auto_numeric_round_trip(self, auto_raw, tmp_path):
        cols = ("price", "mpg", "headroom", "trunk", "weight", "length", "turn",
                "displacement", "gear_ratio", "foreign")
        cloud, _ = bm.validate_axes(auto_raw, cols)
        path = tmp_path / "out.csv"
        bm.write_point_cloud_csv(cloud, path)
        back, _ = bm.validate_axes(bm.load_csv(path), cols)
        assert np.array_equal(back.values, cloud.values)

    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_any_finite_doubles_round_trip(self, tmp_path_factory, values):
        cloud = bm.PointCloud(("x",), np.array(values).reshape(-1, 1), tuple(range(len(values))))
        path = tmp_path_factory.mktemp("rt") / "v.csv"
        bm.write_point_cloud_csv(cloud, path)
        back, _ = bm.validate_axes(bm.load_csv(path), ("x",))
        assert np.array_equal(back.values, cloud.values)

    def test_format_floats_shortest_forms(self):
        assert format_floats([1.0, 0.1, 5725.25]) == ["1", "0.1", "5725.25"]


def _format_float_reference(x) -> str:
    """The CSV float rule as it was first written, one scalar at a time."""
    v = float(x)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# values at the edges of the int rule: signed zero, 1e16 and the integers
# just below it, the ends of float64's exact integers, and the largest doubles
FORMAT_EDGES = [-0.0, 0.0, 1e16, -1e16, 1e16 - 2, -(1e16 - 2), np.nextafter(1e16, 0),
                float(2**53 - 1), float(2**53), float(2**53 + 1), -float(2**53 + 1), 0.1,
                1e308, -1e308, 1.7976931348623157e308, np.nextafter(1e308, np.inf), 5e-324,
                math.nan, math.inf, -math.inf, 1.0, -3.0, 2.5]


@given(st.lists(st.one_of(st.sampled_from(FORMAT_EDGES), st.floats(width=64),
                          st.integers(-2**62, 2**62).map(float)), max_size=40))
@settings(max_examples=300, deadline=None)
@example(FORMAT_EDGES)
def test_format_floats_matches_scalar_rule(values):
    want = [_format_float_reference(v) for v in values]
    assert format_floats(values) == want
    assert format_floats(np.array(values, dtype=float)) == want


def test_point_cloud_csv_bytes_at_format_edges(tmp_path):
    values = np.array(FORMAT_EDGES[:17], dtype=float).reshape(-1, 1) * [1.0, -1.0]
    cloud = bm.PointCloud(("a", "b"), values, tuple(range(len(values))))
    bm.write_point_cloud_csv(cloud, tmp_path / "c.csv")
    want = "a,b\n" + "".join(f"{_format_float_reference(x)},{_format_float_reference(y)}\n"
                             for x, y in values.tolist())
    assert (tmp_path / "c.csv").read_bytes() == want.encode()


# cells that csv must quote, a lone carriage return among them
WRITER_CELL = st.lists(st.sampled_from(["a", ",", '"', "\n", "\r\n", "\r", " ", "é", ""]),
                       max_size=4).map("".join)


@given(st.lists(st.lists(WRITER_CELL, min_size=1, max_size=4), max_size=8), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_csv_lines_read_back_and_differ_only_by_quoting_lone_cr(rows, batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(point_cloud, "_CSV_BATCH", batch)
        got = list(csv_lines(rows))
    assert len(got) == len(rows)
    assert all(line.endswith("\n") and not line.endswith("\r\n") for line in got)
    assert list(csv.reader(io.StringIO("".join(got)))) == rows
    plain = io.StringIO()
    csv.writer(plain, lineterminator="\n").writerows(rows)
    if not any("\r" in cell for row in rows for cell in row):
        assert "".join(got) == plain.getvalue()


def _csv_lines_reference(rows):
    """csv_lines before plain batches were joined: every row through csv.writer."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return [line[:-2] + "\n" for line in lines]


# cells that csv writes bare: any text but the delimiter, the quote, CR, LF and NUL
PLAIN_CELL = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters=',"\r\n\x00'), max_size=4)
PLAIN_ROW = st.lists(PLAIN_CELL, min_size=2, max_size=5)
SPECIAL_ROW = st.one_of(
    st.tuples(st.lists(PLAIN_CELL, min_size=1, max_size=3), WRITER_CELL.filter(
        lambda c: any(ch in c for ch in ',"\r\n'))).map(lambda t: t[0] + [t[1]]),
    st.lists(st.one_of(PLAIN_CELL, st.integers()), min_size=1, max_size=4).filter(
        lambda row: any(isinstance(c, int) for c in row)),
    st.just([""]), st.just([]), st.lists(PLAIN_CELL, min_size=1, max_size=1),
)


@st.composite
def mixed_rows(draw):
    """Plain rows with one to three special rows among them, and a small batch
    size, so that plain batches come before and after the one a special row is in."""
    batch = draw(st.integers(1, 4))
    rows = draw(st.lists(PLAIN_ROW, min_size=0, max_size=4 * batch))
    for _ in range(draw(st.integers(1, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(SPECIAL_ROW))
    return rows, batch


@given(mixed_rows())
@example(([["a", "b"], ["c", "d"], ["1"], ["e", "f"], ["g", "h"]], 2))
@example(([["a", "b"], [""], ["e", "f"]], 1))
@settings(max_examples=300, deadline=None)
def test_csv_lines_match_csv_writer(inputs):
    rows, batch = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(point_cloud, "_CSV_BATCH", batch)
        assert list(csv_lines(rows)) == _csv_lines_reference(rows)


@given(st.lists(PLAIN_ROW, max_size=12), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_plain_batches_never_reach_csv_writer(rows, batch):
    want = _csv_lines_reference(rows)

    def refuse(*args, **kwargs):
        raise AssertionError("a plain batch reached csv.writer")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(point_cloud, "_CSV_BATCH", batch)
        mp.setattr(csv, "writer", refuse)
        assert list(csv_lines(rows)) == want
