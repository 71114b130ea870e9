"""Self-test of the benchmark itself; not part of the package's test suite.

Usage, from the root of a checkout: python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics run.py produces.
2. The benchmark's input generator draws what ``ballmapper.datagen`` draws.
3. A tiny variant of each workload runs end to end through the CLI twice
   and through the traced replica, and passes every output check.
4. The checker rejects a merged CSV with one row altered and a results CSV
   with one ``shared`` count changed, and accepts the clean files.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import check
import run
from workloads import TINY, WORKLOADS, generate_values, prepare

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    expect([w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads run.py defines")
    expect({m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics match run.py")
    expect({m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer metrics match run.py")


def check_generator():
    sys.path.insert(0, run.SRC)
    from ballmapper.datagen import gen_gaussian_cloud

    for name, w in TINY.items():
        _, values = generate_values(w, 3)
        expected = gen_gaussian_cloud(w.n, w.k, 3).values
        expect(np.array_equal(values[:, : w.k], expected),
               f"{name}: generated inputs equal ballmapper.datagen's draws")


def corrupt_merged(src, dst):
    with open(src) as f:
        lines = f.readlines()
    cells = lines[2].rstrip("\n").split(",")
    cells[-1] = cells[-1] + "1"
    lines[2] = ",".join(cells) + "\n"
    with open(dst, "w") as f:
        f.writelines(lines)


def corrupt_shared(src, dst) -> bool:
    with open(src) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if line.startswith("edge,"):
            cells = line.rstrip("\n").split(",")
            cells[-1] = str(int(cells[-1]) + 1)
            lines[i] = ",".join(cells) + "\n"
            with open(dst, "w") as f:
                f.writelines(lines)
            return True
    return False


def check_tiny(name, w, work):
    inputs = prepare(w, 0, os.path.join(work, "inputs"))
    counter = run.Counter()
    digests = {}
    first = run.cli_sample(w, inputs, os.path.join(work, name, "cli"), counter, digests)
    run.cli_sample(w, inputs, os.path.join(work, name, "cli"), counter, digests)
    traces = run.replica_sample(w, inputs, os.path.join(work, name, "traced"), counter, digests)
    expect(first is not None and traces is not None and counter.failed == 0,
           f"{name} (tiny): {counter.attempted} commands, outputs correct and repeatable "
           f"{counter.problems[:3]}")
    if first is None:
        return
    if traces is not None:
        shares = run.layer_sample(traces)
        expect(all(0.0 <= shares[f"{layer}.run_share"] <= 1.0 for layer in run.RUN_LAYERS),
               f"{name} (tiny): layer self-time shares lie in [0, 1]")

    out, ref = first["out"], inputs.reference
    bad = os.path.join(work, name, "bad")
    os.makedirs(bad, exist_ok=True)
    merged = os.path.join(bad, "merged.csv")
    shutil.copyfile(out["merged"], merged)
    expect(not check.check_merged(merged, ref), f"{name}: clean merged copy accepted")
    corrupt_merged(out["merged"], merged)
    expect(bool(check.check_merged(merged, ref)), f"{name}: merged CSV with one altered row rejected")

    results = os.path.join(bad, "results.csv")
    shutil.copyfile(out["results"], results)
    expect(not check.check_results(results, ref), f"{name}: clean results copy accepted")
    if corrupt_shared(out["results"], results):
        expect(bool(check.check_results(results, ref)),
               f"{name}: results CSV with one changed shared count rejected")


def main() -> int:
    run.require_program()
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    check_manifest()
    check_generator()
    for name, w in TINY.items():
        check_tiny(name, w, work)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
