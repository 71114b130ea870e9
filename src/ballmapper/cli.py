"""Command-line front end: run the pipeline, summarize balls, generate fixtures.

`run` executes validate -> (standardize) -> cover -> graph -> layout -> render
and writes three files: the graph SVG, a results CSV (node rows then edge
rows) and a merged CSV with one row per (point, containing ball) pair. The
summary commands consume the merged CSV, so re-running the pipeline never
silently invalidates an earlier analysis.

Exit codes: 0 success, 1 validation error, 2 I/O error or out of memory.
Every command writes its files all or none, so a failed command leaves
earlier outputs untouched, and a failed write names its target.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import islice

from . import datagen, layout, render, summary
from .cover import _check_cover_args, build_cover
from .errors import ValidationError
from .graph import DEFAULT_BIN_COUNT, _check_bin_count, assign_bins, build_graph
from .point_cloud import PointCloud, RawTable, _checked_axes, _checked_column, _read_table
from .point_cloud import csv_lines, format_floats, standardize, write_point_cloud_csv

RESULTS_HEADER = (
    "type", "ball", "x", "y", "size", "color_mean", "color_bin",
    "source", "target", "x2", "y2", "shared",
)


def _write_results_csv(path, graph, positions):
    # Every cell is a fixed word, an int or format_floats text, none of which
    # csv would quote, so each row is written as one line; each ball's x,y
    # text is made once.
    xs = format_floats([x for x, _ in positions.values()])
    ys = format_floats([y for _, y in positions.values()])
    xy = {b: f"{x},{y}" for b, x, y in zip(positions, xs, ys)}
    means = iter(format_floats([n.color_mean for n in graph.nodes if n.color_mean is not None]))
    lines = [",".join(RESULTS_HEADER) + "\n"]
    lines += [
        f"node,{n.ball},{xy[n.ball]},{n.size},{'' if n.color_mean is None else next(means)},"
        f"{'' if n.color_bin is None else n.color_bin},,,,,\n"
        for n in graph.nodes
    ]
    lines += [f"edge,,{xy[e.source]},,,,{e.source},{e.target},{xy[e.target]},{e.shared}\n"
              for e in graph.edges]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.writelines(lines)


def _write_merged_csv(path, table, cover):
    # table is (header, lines), each input row's text once: a plain input's own line, or
    # a RawTable row by csv_lines after an empty cell, less its comma and LF.
    if isinstance(table, RawTable):
        table = table.column_names, [t[1:-1] for t in csv_lines(("",) + r for r in table.rows)]
    header, lines = table
    rows = iter(cover.rows.tolist())
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.writelines(csv_lines([("ball",) + header]))
        for ball, size in enumerate(cover.sizes.tolist(), start=1):
            head = f"{ball},"
            f.write(head + f"\n{head}".join(map(lines.__getitem__, islice(rows, size))) + "\n")


def _write_all_or_none(writers) -> None:
    """Write every (path, write) output, or leave every target as it was.

    Each write(tmp_path) fills a fresh temp file beside its target; only when
    all of them succeed are they moved into place with os.replace. A target
    that is a directory is refused first, because os.replace onto it would
    fail after the earlier outputs had already moved.
    """
    for path, _write in writers:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps = []
    try:
        for path, write in writers:
            head, tail = os.path.split(os.fspath(path))
            tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            try:
                open(tmp, "x").close()  # claim the name with the usual permissions
                temps.append(tmp)
                write(tmp)
            except OSError as exc:
                exc.filename = str(path)  # report the target, not the temp name
                raise
        for tmp, (path, _write) in zip(temps, writers):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


def _refuse_same_file(paths) -> None:
    """Refuse two flags whose paths resolve to one file, before anything is read."""
    seen = {}
    for flag, path in paths.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValidationError(f"{seen[real]} and {flag} name the same file {str(path)!r}")
        seen[real] = flag


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


# Each command reads and computes, then returns its outputs as (path, write)
# pairs, where write(path) fills one file, and the line to print once all of
# them are in place. main does the refusing, writing and printing.
def cmd_run(args: argparse.Namespace):
    _check_cover_args(args.epsilon, args.order, args.seed)  # flags before the input is read
    if args.color is not None:
        _check_bin_count(args.bins)
    layout._check_layout_args(args.repulsion, args.attraction, args.iterations)
    # the reader refuses a 'ball' column after the rows, and the refusals below
    # come in the order load_csv, validate_axes and numeric_column make them
    names = args.axes + ((args.color,) if args.color not in (None, *args.axes) else ())
    header, lines, columns, bad = _read_table(args.input, names)
    axes, values = _checked_axes(header, args.axes, columns, bad)
    cloud = PointCloud(axes, values, tuple(range(len(values))))
    if args.standardize:
        cloud, std_spec = standardize(cloud)
        for name, mean, sd in zip(std_spec.columns, std_spec.means, std_spec.sds):
            print(f"standardized {name}: mean {mean:.6g}, sd {sd:.6g}")

    color = None if args.color is None else _checked_column(header, args.color, columns, bad)

    cover = build_cover(cloud, args.epsilon, order=args.order, seed=args.seed)
    graph = build_graph(cover, color)
    scale = None
    if args.color is not None:
        scale, graph = assign_bins(graph, args.bins)

    positions = layout.compute_layout(
        graph, args.repulsion, args.attraction, args.iterations
    )
    options = render.RenderOptions(show_labels=args.labels)
    svg = render.render_graph_svg(graph, positions, scale, options)

    return [
        (args.svg, lambda p: _write_text(p, svg)),
        (args.results, lambda p: _write_results_csv(p, graph, positions)),
        (args.merged, lambda p: _write_merged_csv(p, (header, lines), cover)),
    ], f"Ball mapper run complete: graph {args.svg}, results {args.results}, merged {args.merged}"


def cmd_ball_summary(args: argparse.Namespace):
    table = summary.means_from_merged(args.merged, args.variables)
    message = f"Ball means for {len(table.rows)} balls written to {args.out}"
    return [(args.out, table.write)], message


def cmd_variable_summary(args: argparse.Namespace):
    table = summary.distribution_from_merged(args.merged, args.variable)
    writers = [(args.out, table.write)]
    if args.boxplot is not None:
        svg = render.render_boxplot_svg(table.rows, title=args.variable)
        writers.append((args.boxplot, lambda p: _write_text(p, svg)))
    targets = ", ".join(str(p) for p, _ in writers)
    return writers, f"Summary of {args.variable!r} written to {targets}"


def cmd_gen(args: argparse.Namespace):
    if args.dataset == "gauss":
        cloud = datagen.gen_gaussian_cloud(args.n, args.k, args.seed)
    else:
        cloud = datagen.gen_x_dataset(datagen.XDatasetSpec(seed=args.seed))
    writers = [(args.out, lambda p: write_point_cloud_csv(cloud, p))]
    return writers, f"{cloud.n} rows written to {args.out}"


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ValidationError, so it exits 1.

    add_subparsers makes each subcommand's parser of this class too.
    """

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ballmapper",
        description="Cover a point cloud with fixed-radius balls and draw the overlap graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="build the cover and write SVG + CSV outputs")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--axes", required=True, type=_csv_list,
                   help="comma-separated axis column names")
    p.add_argument("--epsilon", "-e", required=True, type=float)
    p.add_argument("--color", default=None)
    p.add_argument("--repulsion", type=float, default=layout.DEFAULT_REPULSION)
    p.add_argument("--attraction", type=float, default=layout.DEFAULT_ATTRACTION)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--order", choices=("data", "shuffle"), default="data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT)
    p.add_argument("--iterations", type=int, default=layout.DEFAULT_ITERATIONS)
    p.add_argument("--svg", default="bm_graph.svg")
    p.add_argument("--results", default="bm_results.csv")
    p.add_argument("--merged", default="bm_merged.csv")
    p.set_defaults(func=cmd_run, paths=("input", "svg", "results", "merged"))

    p = sub.add_parser("ball-summary", help="per-ball means from a merged CSV")
    p.add_argument("--merged", required=True)
    p.add_argument("--variables", required=True, type=_csv_list)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_ball_summary, paths=("merged", "out"))

    p = sub.add_parser("variable-summary",
                       help="per-ball distribution of one variable from a merged CSV")
    p.add_argument("--merged", required=True)
    p.add_argument("--variable", required=True)
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--boxplot", default=None, help="also write a boxplot SVG here")
    p.set_defaults(func=cmd_variable_summary, paths=("merged", "out", "boxplot"))

    p = sub.add_parser("gen", help="write a synthetic benchmark CSV")
    p.add_argument("dataset", choices=("gauss", "x"))
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000, help="rows (gauss only)")
    p.add_argument("--k", type=int, default=2, help="dimensions (gauss only)")
    p.set_defaults(func=cmd_gen, paths=("out",))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _refuse_same_file({f"--{dest}": getattr(args, dest) for dest in args.paths})
        writers, message = args.func(args)
        _write_all_or_none(writers)
        print(message)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # such as numpy's refusal of a huge gen array
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
