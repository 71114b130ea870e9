import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper.errors import (
    CsvFormatError,
    EmptyAfterDropError,
    MissingValueError,
    NonNumericError,
    UnknownVariableError,
    ValidationError,
    ZeroVarianceError,
)
from ballmapper.point_cloud import format_value


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
        with pytest.raises(CsvFormatError):
            bm.load_csv(write(tmp_path, "x,x\n1,2\n"))

    def test_duplicate_header_after_stripping_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="duplicate header names \\['a'\\]"):
            bm.load_csv(write(tmp_path, "a, a\n1,2\n"))

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError):
            bm.load_csv(write(tmp_path, "a,b\n1\n"))

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
        with pytest.raises(MissingValueError) as exc:
            bm.validate_axes(auto_raw, ("rep78",))
        assert exc.value.row == 2  # AMC Spirit

    def test_drop_missing_reports_rows(self, auto_raw):
        cloud, dropped = bm.validate_axes(auto_raw, ("rep78",), drop_missing=True)
        assert cloud.n == 69
        assert len(dropped) == 5
        assert all(r not in cloud.row_ids for r in dropped)

    def test_non_numeric_cell(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\n1\nfoo\n"))
        with pytest.raises(NonNumericError) as exc:
            bm.validate_axes(raw, ("x",))
        assert (exc.value.row, exc.value.column) == (1, "x")

    def test_scientific_notation_accepted(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\n1e-3\n2E+4\n"))
        cloud, _ = bm.validate_axes(raw, ("x",))
        assert cloud.values[:, 0] == pytest.approx([1e-3, 2e4])

    def test_nan_literal_rejected(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x\nnan\n"))
        with pytest.raises(NonNumericError):
            bm.validate_axes(raw, ("x",))

    def test_unknown_axis_named(self, auto_raw):
        with pytest.raises(UnknownVariableError, match="bogus"):
            bm.validate_axes(auto_raw, ("bogus",))

    def test_row_ids_keep_file_order(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n5,1\n,2\n7,3\n"))
        cloud, dropped = bm.validate_axes(raw, ("x",), drop_missing=True)
        assert cloud.row_ids == (0, 2)
        assert dropped == (1,)

    def test_empty_after_drop(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n,1\n,2\n"))
        with pytest.raises(EmptyAfterDropError):
            bm.validate_axes(raw, ("x",), drop_missing=True)

    def test_repeated_axis_named(self, auto_raw):
        with pytest.raises(ValidationError, match="'mpg'"):
            bm.validate_axes(auto_raw, ("mpg", "weight", "mpg"))

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n1,2\n foo ,\n,bar\n"))
        with pytest.raises(NonNumericError) as exc:
            bm.validate_axes(raw, ("x", "y"))
        assert (exc.value.row, exc.value.column, exc.value.cell) == (1, "x", " foo ")
        assert str(exc.value) == "non-numeric cell ' foo ' in column 'x' at row 1"
        with pytest.raises(MissingValueError) as exc:
            bm.validate_axes(raw, ("y", "x"))
        assert (exc.value.row, exc.value.column) == (1, "y")

    def test_drop_missing_drops_whole_row(self, tmp_path):
        raw = bm.load_csv(write(tmp_path, "x,y\n1,2\n3,inf\n4,5\n"))
        cloud, dropped = bm.validate_axes(raw, ("x", "y"), drop_missing=True)
        assert dropped == (1,)
        assert cloud.values.tolist() == [[1.0, 2.0], [4.0, 5.0]]


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
        with pytest.raises(ZeroVarianceError):
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
        with pytest.raises(ZeroVarianceError):
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

    def test_format_value_shortest_forms(self):
        assert format_value(1.0) == "1"
        assert format_value(0.1) == "0.1"
        assert format_value(5725.25) == "5725.25"
        assert format_value("make") == "make"
