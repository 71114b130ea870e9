"""Benchmark of the ballmapper CLI: `run` plus the two summary commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauss5_cover|gauss2_layout|all \
        --seed N --seconds S --trace 0|1

Every command runs in a child interpreter, one at a time, exactly as a user
would run it (``ballmapper.cli.main`` with ``src`` on the path and BLAS and
OpenMP threads pinned to 1), so each peak RSS belongs to one command. Inputs
are generated from the seed and every output file is checked against a
reference (see check.py). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the traced replica (replica.py) beside the CLI and
reports per-layer metrics. The last line of stdout is one JSON object; the
full record, with metadata and every sample, goes to
``.perfbench_work/results/``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
from workloads import WORKLOADS, prepare, sha256_file  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable
CLI = "import sys; from ballmapper.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = "import ballmapper.cli as c; c.build_parser()"
# setup_s probes: a few before the first sample, then some after every sample,
# so its median spans the whole run rather than one moment of it
SETUP_FIRST = 3
SETUP_EACH = 1
# Each workload's children are killed once this many seconds have passed, so
# a hung program still lets one benchmark run finish within three minutes.
BUDGET_S = 165

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "run_peak_rss_mb": "MB",
    "summary_s": "s",
    "summary_peak_rss_mb": "MB",
}

# Layers of the run whose self time is reported as a share of the command.
RUN_LAYERS = ("point_cloud", "cover", "graph", "layout", "render", "cli")

PER_LAYER = {
    "point_cloud.load_csv_s": "s",
    "point_cloud.validate_axes_s": "s",
    "point_cloud.numeric_column_s": "s",
    "point_cloud.load_merged_s": "s",
    "point_cloud.run_share": "ratio",
    "cover.build_cover_s": "s",
    "cover.n_points": "count",
    "cover.k": "count",
    "cover.n_balls": "count",
    "cover.sum_sizes": "count",
    "cover.mean_multiplicity": "ratio",
    "cover.max_multiplicity": "count",
    "cover.dist_evals": "count",
    "cover.run_share": "ratio",
    "graph.build_graph_s": "s",
    "graph.assign_bins_s": "s",
    "graph.n_edges": "count",
    "graph.n_components": "count",
    "graph.pairs_tested": "count",
    "graph.edge_yield": "ratio",
    "graph.run_share": "ratio",
    "layout.compute_layout_s": "s",
    "layout.iterations": "count",
    "layout.pair_evals": "count",
    "layout.temp_bytes": "bytes",
    "layout.run_share": "ratio",
    "render.render_graph_svg_s": "s",
    "render.svg_bytes": "bytes",
    "render.render_boxplot_svg_s": "s",
    "render.run_share": "ratio",
    "cli.write_svg_s": "s",
    "cli.write_results_s": "s",
    "cli.write_merged_s": "s",
    "cli.merged_rows": "count",
    "cli.bytes_written": "bytes",
    "cli.run_share": "ratio",
    "summary.ball_groups_s": "s",
    "summary.means_over_groups_s": "s",
    "summary.distribution_over_groups_s": "s",
    "summary.table_write_s": "s",
    "summary.summary_share": "ratio",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
}
# Counts that are derived from a formula rather than counted by the program.
COMPUTED = ("cover.dist_evals", "graph.pairs_tested", "graph.edge_yield",
            "layout.pair_evals", "layout.temp_bytes", "cover.mean_multiplicity")

# Files each command writes, by output key.
OUTPUTS = {"run": ("svg", "results", "merged"), "ball-summary": ("means",),
           "variable-summary": ("dist", "boxplot")}
FILE_NAMES = {"svg": "graph.svg", "results": "results.csv", "merged": "merged.csv",
              "means": "means.csv", "dist": "dist.csv", "boxplot": "box.svg"}


class Fail(Exception):
    """There is no runnable ballmapper program in this directory."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, log_path, timeout) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    The child is killed after ``timeout`` seconds (exit code -9).
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Counter:
    """Commands attempted and failed, with the reasons for each failure, and
    the time left before the workload's budget runs out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deadline = time.monotonic() + BUDGET_S

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])
        return not problems


def require_program():
    if not os.path.isfile(os.path.join(SRC, "ballmapper", "cli.py")):
        raise Fail(f"no ballmapper sources under {SRC}; run from the root of a checkout")
    probe = subprocess.run(
        [PY, "-c", "import ballmapper.cli as c; print(c.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    found = probe.stdout.strip()
    if probe.returncode != 0 or not found.startswith(SRC + os.sep):
        raise Fail(f"cannot import ballmapper from {SRC}: {probe.stderr.strip() or found}")


def measure_setup(reps, log_path, counter) -> list[float]:
    """Fresh interpreter: import ballmapper.cli and build the parser."""
    times = []
    for _ in range(reps):
        wall, rc, _ = spawn([PY, "-c", SETUP], log_path, counter.remaining())
        counter.record("setup", [] if rc == 0 else [f"exit code {rc}"])
        times.append(wall)
    return times


def out_paths(directory) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {k: os.path.join(directory, v) for k, v in FILE_NAMES.items()}
    for p in paths.values():
        if os.path.exists(p):
            os.remove(p)
    return paths


def command_args(w, inputs, out) -> dict:
    return {"run": w.run_args(inputs.path, out),
            "ball-summary": w.ball_summary_args(out),
            "variable-summary": w.variable_summary_args(out)}


def file_problems(command, w, out, ref) -> list[str]:
    try:
        if command == "run":
            return check.check_run(out, ref)
        if command == "ball-summary":
            return check.check_means(out["means"], ref, w.summary_variables)
        return check.check_distribution(out["dist"], ref) + check.check_boxplot(out["boxplot"])
    except (OSError, ValueError, csv.Error) as exc:
        return [f"unreadable output: {exc}"]


def cli_sample(w, inputs, directory, counter, digests) -> dict | None:
    """One `run` plus both summaries through the real CLI, checked.

    ``digests`` holds the output digests of the first sample; later samples
    must reproduce them byte for byte. Returns timings, or None if the run
    itself failed.
    """
    out = out_paths(directory)
    log = os.path.join(directory, "cli.log")
    args = command_args(w, inputs, out)
    sample = {}
    for command in ("run", "ball-summary", "variable-summary"):
        wall, rc, rss = spawn([PY, "-c", CLI, *args[command]], log, counter.remaining())
        problems = [f"exit code {rc}"] if rc != 0 else file_problems(command, w, out, inputs.reference)
        if not problems:
            for key in OUTPUTS[command]:
                digest = sha256_file(out[key])
                if digests.setdefault(key, digest) != digest:
                    problems.append(f"{key} differs from the first sample's")
        counter.record(command, problems)
        sample[command] = (wall, rss)
        if command == "run" and rc != 0:
            return None
    sample["out"] = out
    return sample


def replica_sample(w, inputs, directory, counter, digests) -> list | None:
    """The traced replica of each command; its files must equal the CLI's."""
    out = out_paths(directory)
    log = os.path.join(directory, "replica.log")
    args = command_args(w, inputs, out)
    traces = []
    for command in ("run", "ball-summary", "variable-summary"):
        spans_path = os.path.join(directory, f"spans-{command}.json")
        wall, rc, _ = spawn([PY, os.path.join(HERE, "replica.py"), spans_path, *args[command]],
                            log, counter.remaining())
        problems = [f"exit code {rc}"] if rc != 0 else [
            f"traced replica wrote a different {key}" for key in OUTPUTS[command]
            if not os.path.exists(out[key]) or sha256_file(out[key]) != digests.get(key)
        ]
        if not counter.record(f"traced {command}", problems):
            return None
        with open(spans_path) as f:
            traces.append((command, wall, json.load(f)))
    return traces


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_sample(traces) -> dict:
    """Per-layer call times and self-time shares of one traced sample."""
    m = {}
    summary_self = summary_total = 0.0
    for command, wall, spans in traces:
        own = self_times(spans)
        root = next(s for s in spans if s["layer"] == "command")
        total = root["end"] - root["start"]
        layer_self: dict[str, float] = {}
        for s, own_s in zip(spans, own):
            layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + own_s
            key = f"{s['layer']}.{s['name']}_s"
            if key in PER_LAYER:
                m[key] = m.get(key, 0.0) + (s["end"] - s["start"])
        if command == "run":
            m["trace.run_s"] = wall
            for layer in RUN_LAYERS:
                m[f"{layer}.run_share"] = layer_self.get(layer, 0.0) / total
        else:
            summary_self += layer_self.get("summary", 0.0)
            summary_total += total
    m["summary.summary_share"] = summary_self / summary_total
    return m


def counts(w, ref, out) -> dict:
    c = ref["counts"]
    b, n = c["n_balls"], c["n_points"]
    pairs = b * (b - 1) // 2
    return {
        "cover.n_points": n,
        "cover.k": c["k"],
        "cover.n_balls": b,
        "cover.sum_sizes": c["sum_sizes"],
        "cover.mean_multiplicity": c["sum_sizes"] / n,
        "cover.max_multiplicity": c["max_multiplicity"],
        "cover.dist_evals": n * b,
        "graph.n_edges": c["n_edges"],
        "graph.n_components": c["n_components"],
        "graph.pairs_tested": pairs,
        "graph.edge_yield": c["n_edges"] / pairs if pairs else 0.0,
        "layout.iterations": w.iterations,
        "layout.pair_evals": b * b * w.iterations,
        "layout.temp_bytes": 16 * b * b,
        "render.svg_bytes": os.path.getsize(out["svg"]),
        "cli.merged_rows": c["sum_sizes"],
        "cli.bytes_written": sum(os.path.getsize(out[k]) for k in OUTPUTS["run"]),
    }


def tail(values) -> dict | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    s = sorted(values)
    for p in (99, 95, 90, 75, 50):
        idx = max(math.ceil(p / 100 * len(s)) - 1, 0)
        if len(s) - 1 - idx >= 10:
            return {"p": p, "value": s[idx]}
    return None


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the program when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.join(folder, name)
        for folder, _, files in os.walk(os.path.join(SRC, "ballmapper"))
        if "__pycache__" not in folder
        for name in files
    )
    for path in paths:
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "thread_pins": {v: "1" for v in THREAD_VARS},
    }


def bench(w, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for about ``seconds`` and return its record."""
    directory = os.path.join(WORK, "samples", w.name)
    os.makedirs(directory, exist_ok=True)
    t0 = time.perf_counter()
    inputs = prepare(w, seed, os.path.join(WORK, "inputs"))
    prepare_s = time.perf_counter() - t0

    counter = Counter()
    log = os.path.join(directory, "setup.log")
    spawn([PY, "-c", SETUP], log, counter.remaining())  # warms caches; not timed
    samples = {"setup_s": measure_setup(SETUP_FIRST, log, counter)}
    digests: dict[str, str] = {}
    cli_runs, layers, last_out = [], [], None
    start = time.perf_counter()
    # a new sample starts only if it is expected to end less than half a
    # sample past the window, so a run lasts about ``seconds`` on average
    while not cli_runs or (time.perf_counter() - start) * (1 + 0.5 / len(cli_runs)) < seconds:
        s = cli_sample(w, inputs, os.path.join(directory, "cli"), counter, digests)
        if s is None:
            break
        cli_runs.append(s)
        last_out = s["out"]
        samples["setup_s"] += measure_setup(SETUP_EACH, log, counter)
        if trace:
            traces = replica_sample(w, inputs, os.path.join(directory, "traced"), counter, digests)
            if traces is None:
                break
            layers.append(layer_sample(traces))

    samples["run_s"] = [s["run"][0] for s in cli_runs]
    samples["run_peak_rss_mb"] = [s["run"][1] for s in cli_runs]
    samples["summary_s"] = [s["ball-summary"][0] + s["variable-summary"][0] for s in cli_runs]
    samples["summary_peak_rss_mb"] = [max(s["ball-summary"][1], s["variable-summary"][1])
                                      for s in cli_runs]
    if trace:
        for name in PER_LAYER:
            samples[name] = [m[name] for m in layers if name in m]
        if layers:
            samples["trace.overhead_frac"] = [statistics.median(samples["trace.run_s"])
                                              / statistics.median(samples["run_s"]) - 1.0]
        if last_out:
            samples.update({k: [v] for k, v in counts(w, inputs.reference, last_out).items()})
        wanted = PER_LAYER
    else:
        wanted = END_TO_END

    metrics, stats = {}, {}
    for name, unit in wanted.items():
        values = samples.get(name) or []
        if not values:
            counter.record(name, ["no sample measured this metric"])
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        stats[name] = {"n": len(values), "median": statistics.median(values),
                       "tail": tail(values), "unit": unit}
    return {
        "workload": w.name,
        "why": w.why,
        "params": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_sha256": inputs.sha256,
        "prepare_s": prepare_s,
        "reference_counts": inputs.reference["counts"],
        "output_sha256": digests,
        "computed_counts": list(COMPUTED) if trace else [],
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "failed_frac": counter.failed / max(counter.attempted, 1),
        "problems": counter.problems,
        "stats": stats,
        "samples": samples,
        "metrics": metrics,
    }


def report(record):
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"input sha256={record['input_sha256'][:16]} "
          f"failed_frac={record['failed_frac']:.4g} "
          f"({record['failed']}/{record['attempted']} commands)")
    for name, st in record["stats"].items():
        tail_text = (f"p{st['tail']['p']} {st['tail']['value']:.6g}" if st["tail"]
                     else "no percentile has ten samples beyond it")
        print(f"   {name:36s} {st['median']:14.6g} {st['unit']:6s} "
              f"median of n={st['n']}; {tail_text}")
    for p in record["problems"][:10]:
        print(f"   FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = parser.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        require_program()
    except (Fail, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    records = []
    for name in names:
        record = bench(WORKLOADS[name], a.seed, a.seconds, bool(a.trace))
        report(record)
        records.append(record)

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(
        WORK, "results", f"{a.workload}-seed{a.seed}-trace{a.trace}-{os.getpid()}.json")
    summary = {"environment": environment(), "command": sys.argv, "records": records,
               "claim": None}
    with open(result_path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"full record: {os.path.relpath(result_path, ROOT)}")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
