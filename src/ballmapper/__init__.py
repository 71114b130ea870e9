"""Ball mapper: cover a multivariate point cloud with fixed-radius balls and
study the data through the resulting overlap graph.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or the CLI, loads no module and no numpy until a name
is read. Reading a module's name, such as ``ballmapper.layout``, imports it.
"""
__version__ = "0.1.0"

_MODULES = {
    "cover": ("BallCover", "ball_sizes", "build_cover"),
    "datagen": ("XDatasetSpec", "auto_csv_path", "gen_gaussian_cloud", "gen_x_dataset"),
    "errors": ("ValidationError",),
    "graph": ("ColorScale", "GraphNode", "MapperGraph", "assign_bins", "build_graph",
              "connected_components"),
    "layout": ("compute_layout",),
    "point_cloud": ("PointCloud", "RawTable", "StandardizationSpec", "correlation_matrix",
                    "euclidean_distance", "load_csv", "standardize", "validate_axes",
                    "write_point_cloud_csv"),
    "render": ("RenderOptions", "render_boxplot_svg", "render_graph_svg"),
    "summary": ("BallDistributionTable", "BallMeansTable", "ball_summary", "variable_summary"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
