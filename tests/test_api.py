"""The package's public surface: its exported names and its one exception class."""
import importlib
import inspect

import pytest

import ballmapper as bm
from ballmapper import errors

PUBLIC_NAMES = {
    "BallCover", "BallDistributionTable", "BallMeansTable", "ColorScale", "GraphNode",
    "MapperGraph", "PointCloud", "RawTable", "RenderOptions",
    "StandardizationSpec", "ValidationError", "XDatasetSpec", "assign_bins",
    "auto_csv_path", "ball_sizes", "ball_summary", "build_cover", "build_graph",
    "compute_layout", "connected_components", "correlation_matrix", "euclidean_distance",
    "gen_gaussian_cloud", "gen_x_dataset", "load_csv", "render_boxplot_svg",
    "render_graph_svg", "standardize", "validate_axes", "variable_summary",
    "write_point_cloud_csv",
}


def test_public_names_are_pinned():
    assert set(bm.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 31
    assert all(hasattr(bm, name) for name in PUBLIC_NAMES)
    assert not hasattr(bm, "membership_matrix")
    assert not hasattr(bm, "quantile")  # the summaries' rule is summary._quantiles


def test_lazy_namespace_lists_binds_and_refuses_names():
    assert set(bm.__all__) <= set(dir(bm))
    namespace = {}
    exec("from ballmapper import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC_NAMES and len(namespace) == 31
    for name, value in namespace.items():
        assert value.__module__.startswith("ballmapper.")
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert vars(bm)[name] is value  # resolved once, then cached in the package
    with pytest.raises(AttributeError, match="nosuch"):
        bm.nosuch
    for name in set(dir(bm)) - set(bm.__all__):  # beyond __all__, only submodules are public
        assert name.startswith("_") or getattr(bm, name).__name__ == f"ballmapper.{name}"


def test_errors_defines_one_exception_class():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, BaseException) and c.__module__ == errors.__name__]
    assert classes == [bm.ValidationError]
    assert issubclass(bm.ValidationError, ValueError)
