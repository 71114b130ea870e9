"""Output checker: compares the files of one sample with the reference.

Every check returns a list of problems; an empty list means the outputs are
correct. A file that cannot be read as the expected CSV raises OSError,
ValueError or csv.Error, which the caller counts as a failure.

Integer fields (ball, size, source, target, shared, color_bin) must match
exactly, float means and statistics within a relative 1e-9 (the summation
order may change), and layout coordinates only need to be finite and inside
[0, 1]. The merged CSV must match its reference byte for byte.
"""
from __future__ import annotations

import csv
import math

from workloads import sha256_file

REL_TOL = 1e-9
ABS_TOL = 1e-12  # for means that are zero up to rounding
RESULTS_HEADER = [
    "type", "ball", "x", "y", "size", "color_mean", "color_bin",
    "source", "target", "x2", "y2", "shared",
]
DIST_HEADER = ["ball", "mean", "sd", "min", "q25", "q50", "q75", "max", "size"]


def _close(text: str, expected: float) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isclose(v, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _unit(text: str) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isfinite(v) and 0.0 <= v <= 1.0


def _read(path, header) -> list[list[str]]:
    """Data rows of a CSV whose header and row widths must match ``header``."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != list(header):
        raise ValueError(f"{path}: header {rows[:1]}, expected {list(header)}")
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: a row does not have {len(header)} cells")
    return rows[1:]


def check_merged(path, ref) -> list[str]:
    if sha256_file(path) != ref["merged_sha256"]:
        return ["merged CSV differs from its reference"]
    return []


def check_results(path, ref) -> list[str]:
    body = _read(path, RESULTS_HEADER)
    sizes, edges = ref["sizes"], ref["edges"]
    if len(body) != len(sizes) + len(edges):
        return [f"results CSV has {len(body)} rows, expected {len(sizes) + len(edges)}"]
    problems = []
    coords = {}
    for b, row in enumerate(body[: len(sizes)], 1):
        kind, ball, x, y, size, mean, cbin = row[:7]
        if kind != "node" or ball != str(b):
            problems.append(f"node row {b}: expected node {b}, got {row[:2]}")
        if size != str(sizes[b - 1]) or cbin != str(ref["color_bins"][b - 1]):
            problems.append(f"ball {b}: size/color_bin {size}/{cbin}")
        if not _close(mean, ref["color_means"][b - 1]):
            problems.append(f"ball {b}: color_mean {mean}")
        if not (_unit(x) and _unit(y)):
            problems.append(f"ball {b}: position {x},{y} outside [0, 1]")
        coords[b] = (x, y)
    for (s, t, shared), row in zip(edges, body[len(sizes):]):
        kind, x1, y1, source, target, x2, y2, got = (row[i] for i in (0, 2, 3, 7, 8, 9, 10, 11))
        if kind != "edge" or (source, target, got) != (str(s), str(t), str(shared)):
            problems.append(f"edge {s}-{t} ({shared}): got {source}-{target} ({got})")
        elif (x1, y1) != coords[s] or (x2, y2) != coords[t]:
            problems.append(f"edge {s}-{t}: endpoints differ from node positions")
        if len(problems) > 20:
            break
    return problems


def check_svg(path, ref) -> list[str]:
    with open(path, "rb") as f:
        svg = f.read()
    circles, lines = svg.count(b"<circle "), svg.count(b"<line ")
    if (circles, lines) != (len(ref["sizes"]), len(ref["edges"])):
        return [f"SVG has {circles} circles and {lines} lines, "
                f"expected {len(ref['sizes'])} and {len(ref['edges'])}"]
    return []


def check_means(path, ref, variables) -> list[str]:
    rows = _read(path, ["ball", *variables, "size"])
    if len(rows) != len(ref["sizes"]):
        return [f"ball-summary has {len(rows)} rows, expected {len(ref['sizes'])}"]
    problems = []
    for b, (row, means) in enumerate(zip(rows, ref["means"]), 1):
        if row[0] != str(b) or row[-1] != str(ref["sizes"][b - 1]):
            problems.append(f"ball-summary row {b}: ball/size {row[0]}/{row[-1]}")
        elif not all(_close(t, m) for t, m in zip(row[1:-1], means)):
            problems.append(f"ball-summary row {b}: means {row[1:-1]}")
    return problems


def check_distribution(path, ref) -> list[str]:
    rows = _read(path, DIST_HEADER)
    if len(rows) != len(ref["sizes"]):
        return [f"variable-summary has {len(rows)} rows, expected {len(ref['sizes'])}"]
    problems = []
    for b, (row, stats) in enumerate(zip(rows, ref["dist"]), 1):
        if row[0] != str(b) or row[-1] != str(ref["sizes"][b - 1]):
            problems.append(f"variable-summary row {b}: ball/size {row[0]}/{row[-1]}")
            continue
        for text, expected in zip(row[1:-1], stats):
            ok = text == "" if expected is None else _close(text, expected)
            if not ok:
                problems.append(f"variable-summary row {b}: {row[1:-1]}")
                break
    return problems


def check_boxplot(path) -> list[str]:
    with open(path, "rb") as f:
        svg = f.read()
    if not (svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>")):
        return ["boxplot is not an SVG document"]
    return []


def check_run(out, ref) -> list[str]:
    """The three files `ballmapper run` writes."""
    return check_svg(out["svg"], ref) + check_results(out["results"], ref) + \
        check_merged(out["merged"], ref)

