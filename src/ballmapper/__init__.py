"""Ball mapper: cover a multivariate point cloud with fixed-radius balls and
study the data through the resulting overlap graph."""

from .cover import BallCover, ball_sizes, build_cover
from .datagen import XDatasetSpec, auto_csv_path, gen_gaussian_cloud, gen_x_dataset
from .errors import ValidationError
from .graph import (
    ColorScale,
    GraphNode,
    MapperGraph,
    assign_bins,
    build_graph,
    connected_components,
)
from .layout import compute_layout
from .point_cloud import (
    PointCloud,
    RawTable,
    StandardizationSpec,
    correlation_matrix,
    euclidean_distance,
    load_csv,
    standardize,
    validate_axes,
    write_point_cloud_csv,
)
from .render import RenderOptions, render_boxplot_svg, render_graph_svg
from .summary import (
    BallDistributionTable,
    BallMeansTable,
    ball_summary,
    quantile,
    variable_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BallCover",
    "BallDistributionTable",
    "BallMeansTable",
    "ColorScale",
    "GraphNode",
    "MapperGraph",
    "PointCloud",
    "RawTable",
    "RenderOptions",
    "StandardizationSpec",
    "ValidationError",
    "XDatasetSpec",
    "assign_bins",
    "auto_csv_path",
    "ball_sizes",
    "ball_summary",
    "build_cover",
    "build_graph",
    "compute_layout",
    "connected_components",
    "correlation_matrix",
    "euclidean_distance",
    "gen_gaussian_cloud",
    "gen_x_dataset",
    "load_csv",
    "quantile",
    "render_boxplot_svg",
    "render_graph_svg",
    "standardize",
    "validate_axes",
    "variable_summary",
    "write_point_cloud_csv",
]
