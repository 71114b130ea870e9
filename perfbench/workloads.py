"""Workload definitions, seeded input generation and the reference outputs.

Inputs are generated here, not by ``ballmapper gen``, so that two commits of
a comparison always read identical bytes even if the package's generators
change. The draws follow ``ballmapper.datagen`` as it was when the benchmark
was defined (``selftest.py`` checks that they still agree). Each input CSV is
stored under the sha256 of its content; a (workload, seed) index points at it.

The reference is computed from the generated values by plain numpy, following
the conventions in the package README: greedy cover in row order with the
inclusive ``sqrt(einsum) <= epsilon`` test, N-1 standardization, per-ball
means in member order, equal-width color bins, and the averaging quantile
rule.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

BINS = 8


@dataclass(frozen=True)
class Workload:
    """A Gaussian cloud plus the three CLI commands run on it.

    The input has columns x1..xk (i.i.d. standard normal) and a color column
    c: the sum of x_j^2 (color_rule "sum_sq") or x1^2 ("x1_sq").
    """

    name: str
    why: str
    n: int
    k: int
    color_rule: str
    epsilon: float
    standardize: bool
    iterations: int

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(f"x{j + 1}" for j in range(self.k))

    @property
    def summary_variables(self) -> tuple[str, ...]:
        return self.axes + ("c",)

    def run_args(self, inp, out) -> list[str]:
        args = ["run", "--input", inp, "--axes", ",".join(self.axes),
                "--epsilon", repr(self.epsilon), "--color", "c",
                "--iterations", str(self.iterations), "--bins", str(BINS)]
        if self.standardize:
            args.append("--standardize")
        return args + ["--svg", out["svg"], "--results", out["results"],
                       "--merged", out["merged"]]

    def ball_summary_args(self, out) -> list[str]:
        return ["ball-summary", "--merged", out["merged"],
                "--variables", ",".join(self.summary_variables), "--out", out["means"]]

    def variable_summary_args(self, out) -> list[str]:
        return ["variable-summary", "--merged", out["merged"],
                "--variable", "c", "--out", out["dist"], "--boxplot", out["boxplot"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss5_cover",
                 "N=20k, K=5, B~1600: greedy cover plus pairwise graph dominate; K>3 bypasses "
                 "grid pruning; the one layout round's BxB temporaries set peak RSS",
                 n=20000, k=5, color_rule="sum_sq", epsilon=1.0, standardize=True,
                 iterations=1),
        Workload("gauss2_layout",
                 "N=10k, K=2, B~460, 150 iterations: the dense O(B^2) force layout is ~87% "
                 "of the run; K=2, so grid pruning of the cover would apply here",
                 n=10000, k=2, color_rule="x1_sq", epsilon=0.2, standardize=False,
                 iterations=150),
    )
}

# Small variants with the same shape, for the self-test.
TINY = {
    "gauss5_cover": Workload("gauss5_cover", "", 400, 5, "sum_sq", 1.0, True, 1),
    "gauss2_layout": Workload("gauss2_layout", "", 300, 2, "x1_sq", 0.2, False, 20),
}


# ----------------------------------------------------------------- generation

def generate_values(w: Workload, seed: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The input table for one seed: column names and an N x (K+1) float array."""
    pts = np.random.default_rng(seed).standard_normal((w.n, w.k))
    c = (pts ** 2).sum(axis=1) if w.color_rule == "sum_sq" else pts[:, 0] ** 2
    return w.summary_variables, np.column_stack([pts, c])


def _cell(v: float) -> str:
    # shortest round-trip form; integral values without ".0" (as the package writes)
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def format_lines(values: np.ndarray) -> list[str]:
    """Data lines of the CSV, without line terminators."""
    return [",".join(map(_cell, row)) for row in values.tolist()]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Inputs:
    """A generated input file and everything the checker compares against."""

    path: str
    sha256: str
    reference: dict


def prepare(w: Workload, seed: int, cache_dir: str) -> Inputs:
    """Generate (or reuse) the input CSV for this seed and its reference.

    Files are keyed by content digest; the index and the reference are keyed
    by the workload parameters, so a changed recipe never reuses stale data.
    """
    os.makedirs(cache_dir, exist_ok=True)
    params = hashlib.sha256(json.dumps(asdict(w), sort_keys=True).encode()).hexdigest()[:16]
    index = os.path.join(cache_dir, f"{w.name}-{params}-{seed}.json")
    if os.path.exists(index):
        with open(index) as f:
            cached = json.load(f)
        path = os.path.join(cache_dir, cached["sha256"] + ".csv")
        if os.path.exists(path) and sha256_file(path) == cached["sha256"]:
            return Inputs(path, cached["sha256"], cached["reference"])

    names, values = generate_values(w, seed)
    lines = format_lines(values)
    text = ",".join(names) + "\n" + "".join(line + "\n" for line in lines)
    data = text.encode()
    digest = hashlib.sha256(data).hexdigest()
    path = os.path.join(cache_dir, digest + ".csv")
    with open(path + ".tmp", "wb") as f:
        f.write(data)
    os.replace(path + ".tmp", path)

    # -0.0 is written as "0" and read back as +0.0; adding 0.0 does the same
    reference = compute_reference(w, names, values + 0.0, lines)
    with open(index + ".tmp", "w") as f:
        json.dump({"sha256": digest, "reference": reference}, f)
    os.replace(index + ".tmp", index)
    return Inputs(path, digest, reference)


# ------------------------------------------------------------------ reference

def greedy_cover(points: np.ndarray, epsilon: float) -> list[np.ndarray]:
    """Member row indices per ball, landmarks taken in row order."""
    n = len(points)
    covered = np.zeros(n, dtype=bool)
    members = []
    cursor = 0
    while True:
        while cursor < n and covered[cursor]:
            cursor += 1
        if cursor == n:
            return members
        diff = points - points[cursor]
        inside = np.nonzero(np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= epsilon)[0]
        covered[inside] = True
        members.append(inside)


def standardized(points: np.ndarray) -> np.ndarray:
    out = np.array(points)
    for j in range(out.shape[1]):
        col = out[:, j]
        mean = float(col.mean())
        sd = float(col.std(ddof=1))
        out[:, j] = (col - mean) / sd
    return out


def overlap_edges(members: list[np.ndarray], n_points: int) -> list[tuple[int, int, int]]:
    """(source, target, shared) for every intersecting ball pair, ascending.

    Counts pairs point by point from the inverted incidence, grouping points
    by how many balls contain them so each group is one rectangular array.
    """
    balls = np.concatenate([np.full(len(m), b, dtype=np.int64) for b, m in enumerate(members, 1)])
    rows = np.concatenate(members)
    order = np.lexsort((balls, rows))
    balls, rows = balls[order], rows[order]
    mult = np.bincount(rows, minlength=n_points)
    starts = np.concatenate([[0], np.cumsum(mult)[:-1]])
    stride = len(members) + 1
    keys = []
    for m in np.unique(mult[mult >= 2]):
        pts = np.nonzero(mult == m)[0]
        table = balls[starts[pts][:, None] + np.arange(m)]
        for i in range(m):
            for j in range(i + 1, m):
                keys.append(table[:, i] * stride + table[:, j])
    if not keys:
        return []
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    return [(int(k // stride), int(k % stride), int(c)) for k, c in zip(uniq, counts)]


def n_components(n_balls: int, edges) -> int:
    parent = list(range(n_balls + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s, t, _ in edges:
        parent[find(s)] = find(t)
    return len({find(b) for b in range(1, n_balls + 1)})


def quantile(sorted_vals: np.ndarray, p: float) -> float:
    """The README's averaging order-statistic rule."""
    n = len(sorted_vals)
    h = n * p / 100.0
    rounded = round(h)
    if abs(h - rounded) < 1e-9 and rounded >= 1:
        if rounded >= n:
            return float(sorted_vals[-1])
        return (float(sorted_vals[rounded - 1]) + float(sorted_vals[rounded])) / 2.0
    return float(sorted_vals[math.ceil(h) - 1])


def color_bins(means: list[float], bins: int) -> list[int]:
    lo, hi = min(means), max(means)
    if hi <= lo:
        return [1] * len(means)
    # the width comes from the computed outer boundaries, which can differ
    # from hi - lo in the last bit; bins must match exactly
    bounds = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    width = (bounds[-1] - bounds[0]) / bins
    return [min(max(int((m - bounds[0]) / width) + 1, 1), bins) for m in means]


def compute_reference(w: Workload, names, values: np.ndarray, lines: list[str]) -> dict:
    col = {name: values[:, j] for j, name in enumerate(names)}
    points = np.column_stack([col[a] for a in w.axes])
    if w.standardize:
        points = standardized(points)
    members = greedy_cover(points, w.epsilon)
    sizes = [len(m) for m in members]

    merged = hashlib.sha256(("ball," + ",".join(names) + "\n").encode())
    for b, m in enumerate(members, 1):
        merged.update("".join(f"{b},{lines[r]}\n" for r in m.tolist()).encode())

    color = col["c"]
    color_means = [float(np.mean(color[m])) for m in members]
    edges = overlap_edges(members, len(points))

    means_rows = [[float(col[v][m].mean()) for v in w.summary_variables] for m in members]
    dist_rows = []
    target = col["c"]
    for m in members:
        vals = target[m]
        s = np.sort(vals)
        dist_rows.append([
            float(vals.mean()),
            float(vals.std(ddof=1)) if len(vals) > 1 else None,
            float(s[0]), quantile(s, 25), quantile(s, 50), quantile(s, 75), float(s[-1]),
        ])

    mult = np.bincount(np.concatenate(members), minlength=len(points))
    return {
        "merged_sha256": merged.hexdigest(),
        "sizes": sizes,
        "color_means": color_means,
        "color_bins": color_bins(color_means, BINS),
        "edges": edges,
        "means": means_rows,
        "dist": dist_rows,
        "counts": {
            "n_points": len(points),
            "k": points.shape[1],
            "n_balls": len(members),
            "sum_sizes": int(sum(sizes)),
            "max_multiplicity": int(mult.max()),
            "n_edges": len(edges),
            "n_components": n_components(len(members), edges),
        },
    }
