#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, in about two minutes:
  * inputs: each workload's generated inputs are byte-identical for the same seed
    and differ across seeds (the default and the held-out seed);
  * BENCHMARK.json: every metric it names is one the driver reports, in that unit;
  * layer sums: in each workload's per-layer run the attributed layer time never
    exceeds wall time (that would be double counting), all checks pass, and the
    intended layer does the most work;
  * negative tests: a truncated trace line, a fleet job that cannot finish inside
    the simulation cap, a mismatched cached/uncached arbiter outcome, and a cell
    whose arbiter throws (over-admission) each fail the run, naming the workload
    and the item;
  * a directory holding only BENCHMARK.json and perfbench/ makes run.py exit
    non-zero without printing a result.
Exits 0 when everything holds; prints each failure otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own module)

# The layer each workload is built to stress (see README.md).
INTENDED = {"scenarios_cold": ("sim",), "fleet": ("cluster", "core"), "traced_warm": ("obs",)}

NEGATIVE = [
    ("traced_warm", "truncate_trace", "strict trace re-read"),
    ("fleet", "fleet_cap", "simulation cap"),
    ("fleet", "arbiter_mismatch", "arbiter pair 0"),
    ("fleet", "arbiter_overadmit", "threw"),
]

failures = []


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def quick_run(driver, workload, trace, inject=None):
    inputs_dir = os.path.join(run.BUILD_DIR, "inputs", f"selftest-{workload}")
    run.write_inputs(run.generate_inputs(workload, run.DEFAULT_SEED), inputs_dir)
    return run.run_driver(driver, workload, inputs_dir, seconds=0, trace=trace, inject=inject)


def main():
    spec = run.load_spec()
    for workload in run.WORKLOADS:
        a = run.generate_inputs(workload, run.DEFAULT_SEED)
        b = run.generate_inputs(workload, run.DEFAULT_SEED)
        c = run.generate_inputs(workload, run.HELD_OUT_SEED)
        check(a == b, f"{workload}: inputs byte-identical for seed {run.DEFAULT_SEED}")
        check(a.keys() == c.keys() and a != c,
              f"{workload}: inputs differ between seeds {run.DEFAULT_SEED} and "
              f"{run.HELD_OUT_SEED}")

    driver = run.build_driver()
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report = quick_run(driver, workload, trace)
            units = {m["name"]: m["unit"] for m in report["metrics"]}
            missing = [e["name"] for e in spec[key] if units.get(e["name"]) != e["unit"]]
            check(not missing, f"{workload} --trace {trace}: reports every {key} metric"
                  + (f" (missing {missing})" if missing else ""))
            check(report["failed"] == 0 and report["attempted"] > 0,
                  f"{workload} --trace {trace}: {report['attempted']} operations, "
                  f"{report['failed']} failed {report['failures'][:3]}")
            if not trace:
                continue
            values = {m["name"]: m["value"] for m in report["metrics"]}
            unattributed = values["bench.unattributed_s"]
            check(unattributed >= 0.0,
                  f"{workload}: layers sum within wall time "
                  f"(unattributed {unattributed:.4f} s of {values['bench.layer_wall_s']:.3f} s)")
            shares = {layer: values[f"{layer}.share"] for layer in
                      ("scenario", "workload", "sim", "cluster", "core", "obs")}
            top = max(shares, key=shares.get)
            check(top in INTENDED[workload],
                  f"{workload}: intended layer leads (top {top} {shares[top]:.2f})")

    for workload, inject, item in NEGATIVE:
        report = quick_run(driver, workload, trace=0, inject=inject)
        named = [m for m in report["failures"] if f"[{workload}]" in m and item in m]
        check(report["failed"] > 0 and named,
              f"{workload} --inject {inject}: {report['failed']} of {report['attempted']} "
              f"operations failed, naming '{item}'")

    bare = os.path.join(run.BUILD_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fleet",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"bare directory: run.py exits {proc.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
