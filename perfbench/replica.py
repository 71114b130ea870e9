"""Traced replica of one ballmapper CLI command.

Usage: python3 perfbench/replica.py SPANS.json run|ball-summary|variable-summary ARGS...

The arguments are parsed by the package's own parser, then the command is
re-enacted from the library's calls in the order ``ballmapper.cli`` makes
them, with a span around each call. A span is (layer, name, start, end,
parent); spans are kept in memory and written to SPANS.json on exit. The
benchmark checks that the replica's files are identical to the CLI's, so
the spans describe the same program.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

from ballmapper import cli, layout, render, summary  # noqa: E402
from ballmapper.cover import build_cover  # noqa: E402
from ballmapper.graph import assign_bins, build_graph  # noqa: E402
from ballmapper.point_cloud import load_csv, standardize, validate_axes  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, layer, name):
        record = {"layer": layer, "name": name,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def write_file(t, name, path, text):
    with t.span("cli", name):
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def run(t, a):
    with t.span("point_cloud", "load_csv"):
        raw = load_csv(a.input)
    for name in a.axes:
        raw.column_index(name)
    with t.span("point_cloud", "validate_axes"):
        cloud, _dropped = validate_axes(raw, a.axes)
    if a.standardize:
        with t.span("point_cloud", "standardize"):
            cloud, spec = standardize(cloud)
        for name, mean, sd in zip(spec.columns, spec.means, spec.sds):
            print(f"standardized {name}: mean {mean:.6g}, sd {sd:.6g}")
    color_values = None
    if a.color is not None:
        with t.span("point_cloud", "numeric_column"):
            color_values = raw.numeric_column(a.color)[list(cloud.row_ids)]
    with t.span("cover", "build_cover"):
        cover = build_cover(cloud, a.epsilon, order=a.order, seed=a.seed)
    with t.span("graph", "build_graph"):
        graph = build_graph(cover, color_values)
    scale = None
    if a.color is not None:
        with t.span("graph", "assign_bins"):
            scale, graph = assign_bins(graph, a.bins)
    with t.span("layout", "compute_layout"):
        positions = layout.compute_layout(graph, a.repulsion, a.attraction, a.iterations)
    with t.span("render", "render_graph_svg"):
        svg = render.render_graph_svg(
            graph, positions, scale, render.RenderOptions(show_labels=a.labels)
        )
    write_file(t, "write_svg", a.svg, svg)
    with t.span("cli", "write_results"):
        cli._write_results_csv(a.results, graph, positions)
    with t.span("cli", "write_merged"):
        cli._write_merged_csv(a.merged, raw, cover)


def ball_summary(t, a):
    with t.span("point_cloud", "load_merged"):
        raw = load_csv(a.merged)
    with t.span("summary", "ball_groups"):
        groups = summary.ball_groups_from_merged(raw)
    with t.span("summary", "means_over_groups"):
        table = summary.means_over_groups(raw, groups, a.variables)
    with t.span("summary", "table_write"):
        table.write(a.out)


def variable_summary(t, a):
    with t.span("point_cloud", "load_merged"):
        raw = load_csv(a.merged)
    with t.span("summary", "ball_groups"):
        groups = summary.ball_groups_from_merged(raw)
    with t.span("summary", "distribution_over_groups"):
        table = summary.distribution_over_groups(raw, groups, a.variable)
    with t.span("summary", "table_write"):
        table.write(a.out)
    if a.boxplot is not None:
        with t.span("render", "render_boxplot_svg"):
            svg = render.render_boxplot_svg(table.rows, title=a.variable)
        write_file(t, "write_boxplot", a.boxplot, svg)


COMMANDS = {"run": run, "ball-summary": ball_summary, "variable-summary": variable_summary}


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    t = Tracer()
    t.spans.append({"layer": "setup", "name": "import", "parent": None,
                    "start": T_START, "end": time.perf_counter()})
    with t.span("command", cli_argv[0]):
        args = cli.build_parser().parse_args(cli_argv)
        COMMANDS[args.command](t, args)
    with open(spans_path, "w") as f:
        json.dump(t.spans, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
