"""The package's public surface: its exported names and its one exception class."""
import inspect

import ballmapper as bm
from ballmapper import errors

PUBLIC_NAMES = {
    "BallCover", "BallDistributionTable", "BallMeansTable", "ColorScale", "GraphNode",
    "MapperGraph", "PointCloud", "RawTable", "RenderOptions",
    "StandardizationSpec", "ValidationError", "XDatasetSpec", "assign_bins",
    "auto_csv_path", "ball_sizes", "ball_summary", "build_cover", "build_graph",
    "compute_layout", "connected_components", "correlation_matrix", "euclidean_distance",
    "gen_gaussian_cloud", "gen_x_dataset", "load_csv", "quantile", "render_boxplot_svg",
    "render_graph_svg", "standardize", "validate_axes", "variable_summary",
    "write_point_cloud_csv",
}


def test_public_names_are_pinned():
    assert set(bm.__all__) == PUBLIC_NAMES
    assert all(hasattr(bm, name) for name in PUBLIC_NAMES)
    assert not hasattr(bm, "membership_matrix")


def test_errors_defines_one_exception_class():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, BaseException) and c.__module__ == errors.__name__]
    assert classes == [bm.ValidationError]
    assert issubclass(bm.ValidationError, ValueError)
