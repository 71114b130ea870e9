"""Command-line front end: run the pipeline, summarize balls, generate fixtures.

`run` executes validate -> (standardize) -> cover -> graph -> layout -> render
and writes three files: the graph SVG, a results CSV (node rows then edge
rows) and a merged CSV with one row per (point, containing ball) pair. The
summary commands consume the merged CSV, so re-running the pipeline never
silently invalidates an earlier analysis.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import errno
import os
import secrets
import sys

from . import datagen, layout, render, summary
from .cover import build_cover
from .errors import ValidationError
from .graph import DEFAULT_BIN_COUNT, assign_bins, build_graph
from .point_cloud import RawTable, load_csv, standardize, validate_axes, write_csv
from .point_cloud import write_point_cloud_csv

RESULTS_HEADER = (
    "type", "ball", "x", "y", "size", "color_mean", "color_bin",
    "source", "target", "x2", "y2", "shared",
)


def _write_results_csv(path, graph, positions):
    rows = []
    for n in graph.nodes:
        x, y = positions[n.ball]
        rows.append((
            "node", n.ball, x, y, n.size,
            "" if n.color_mean is None else n.color_mean,
            "" if n.color_bin is None else n.color_bin,
            "", "", "", "", "",
        ))
    for e in graph.edges:
        x1, y1 = positions[e.source]
        x2, y2 = positions[e.target]
        rows.append((
            "edge", "", x1, y1, "", "", "",
            e.source, e.target, x2, y2, e.shared,
        ))
    write_csv(path, RESULTS_HEADER, rows)


def _write_merged_csv(path, raw: RawTable, cover):
    header = ("ball",) + raw.column_names
    rows = []
    for ball, member_rows in enumerate(cover.members, start=1):
        for r in member_rows:
            rows.append((ball,) + raw.rows[r])
    write_csv(path, header, rows)


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
            tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
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


def cmd_run(args: argparse.Namespace) -> None:
    _refuse_same_file({"--input": args.input, "--svg": args.svg,
                       "--results": args.results, "--merged": args.merged})
    raw = load_csv(args.input)
    if "ball" in raw.column_names:
        raise ValidationError("input column 'ball' would clash with the merged CSV's ball column")

    cloud, _dropped = validate_axes(raw, args.axes)
    if args.standardize:
        cloud, std_spec = standardize(cloud)
        for name, mean, sd in zip(std_spec.columns, std_spec.means, std_spec.sds):
            print(f"standardized {name}: mean {mean:.6g}, sd {sd:.6g}")

    color_values = None
    if args.color is not None:
        color_values = raw.numeric_column(args.color)[list(cloud.row_ids)]

    cover = build_cover(cloud, args.epsilon, order=args.order, seed=args.seed)
    graph = build_graph(cover, color_values)
    scale = None
    if args.color is not None:
        scale, graph = assign_bins(graph, args.bins)

    positions = layout.compute_layout(
        graph, args.repulsion, args.attraction, args.iterations
    )
    options = render.RenderOptions(show_labels=args.labels)
    svg = render.render_graph_svg(graph, positions, scale, options)

    _write_all_or_none([
        (args.svg, lambda p: _write_text(p, svg)),
        (args.results, lambda p: _write_results_csv(p, graph, positions)),
        (args.merged, lambda p: _write_merged_csv(p, raw, cover)),
    ])
    print(
        f"Ball mapper run complete: graph {args.svg}, "
        f"results {args.results}, merged {args.merged}"
    )


def cmd_ball_summary(merged_path, variables, out_path) -> None:
    _refuse_same_file({"--merged": merged_path, "--out": out_path})
    raw = load_csv(merged_path)
    groups = summary.ball_groups_from_merged(raw)
    table = summary.means_over_groups(raw, groups, variables)
    table.write(out_path)
    print(f"Ball means for {len(table.rows)} balls written to {out_path}")


def cmd_variable_summary(merged_path, variable, out_path, boxplot_path=None) -> None:
    _refuse_same_file({"--merged": merged_path, "--out": out_path, "--boxplot": boxplot_path})
    raw = load_csv(merged_path)
    groups = summary.ball_groups_from_merged(raw)
    table = summary.distribution_over_groups(raw, groups, variable)
    writers = [(out_path, table.write)]
    if boxplot_path is not None:
        svg = render.render_boxplot_svg(table.rows, title=variable)
        writers.append((boxplot_path, lambda p: _write_text(p, svg)))
    _write_all_or_none(writers)
    print(f"Summary of {variable!r} written to {', '.join(str(p) for p, _ in writers)}")


def cmd_gen(dataset, out_path, seed, n, k) -> None:
    if dataset == "gauss":
        cloud = datagen.gen_gaussian_cloud(n, k, seed)
    elif dataset == "x":
        cloud = datagen.gen_x_dataset(datagen.XDatasetSpec(seed=seed))
    else:
        raise ValidationError(f"unknown dataset {dataset!r} (expected 'gauss' or 'x')")
    write_point_cloud_csv(cloud, out_path)
    print(f"{cloud.n} rows written to {out_path}")


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ball-summary", help="per-ball means from a merged CSV")
    p.add_argument("--merged", required=True)
    p.add_argument("--variables", required=True, type=_csv_list)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=lambda a: cmd_ball_summary(a.merged, a.variables, a.out))

    p = sub.add_parser("variable-summary",
                       help="per-ball distribution of one variable from a merged CSV")
    p.add_argument("--merged", required=True)
    p.add_argument("--variable", required=True)
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--boxplot", default=None, help="also write a boxplot SVG here")
    p.set_defaults(func=lambda a: cmd_variable_summary(a.merged, a.variable, a.out, a.boxplot))

    p = sub.add_parser("gen", help="write a synthetic benchmark CSV")
    p.add_argument("dataset", help="'gauss' or 'x'")
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000, help="rows (gauss only)")
    p.add_argument("--k", type=int, default=2, help="dimensions (gauss only)")
    p.set_defaults(func=lambda a: cmd_gen(a.dataset, a.out, a.seed, a.n, a.k))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
