#!/usr/bin/env python3
"""A/A check: `benchmark/run.sh --aa N [--seed S] [--workload W] [--seconds T]`.

Runs N full end-to-end sets of the same commit, set i with seed S+i, and
prints for every workload and end-to-end metric the median, the quartiles
and the spread (Q3 - Q1 as a share of the median, quartiles as
`statistics.quantiles(values, n=4)` gives them) against the metric's bound
in BENCHMARK.json. A metric whose spread exceeds its bound cannot resolve a
regression of that size; exits 1 if any does (setup_s is reported but, as in
the acceptance procedure, not held to its bound), or if any run failed.
"""

import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv):
    if not argv or not argv[0].isdigit() or int(argv[0]) < 2:
        sys.exit("usage: run.sh --aa N [--seed S] [--workload W] [--seconds T]   (N >= 2)")
    sets, rest = int(argv[0]), argv[1:]
    options = dict(zip(rest[::2], rest[1::2]))
    seed = int(options.get("--seed", 42))
    seconds = options.get("--seconds", str(MANIFEST["run_seconds"]))
    workloads = [w["name"] for w in MANIFEST["workloads"]]
    if "--workload" in options:
        workloads = [options["--workload"]]

    values = {w: {m["name"]: [] for m in MANIFEST["end_to_end"]} for w in workloads}
    failed_runs = 0
    for i in range(sets):
        for workload in workloads:
            command = ["bash", str(HERE / "run.sh"), "--workload", workload,
                       "--seed", str(seed + i), "--seconds", seconds, "--trace", "0"]
            run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            ok = run.returncode == 0 and result["correct"] and result["failed"] == 0
            failed_runs += not ok
            print(f"set {i} seed {seed + i} {workload}: "
                  f"{'ok' if ok else 'FAILED'} ({result['failed']}/{result['attempted']} failed)",
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])

    too_wide = 0
    print(f"\n{'workload':<14} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload in workloads:
        for metric in MANIFEST["end_to_end"]:
            samples = values[workload][metric["name"]]
            if len(samples) < 2:
                continue
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            spread = (q3 - q1) / median if median else float("inf")
            wide = spread > metric["bound"] and metric["name"] != "setup_s"
            too_wide += wide
            print(f"{workload:<14} {metric['name']:<18} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {metric['bound']:>6.2f}{'  WIDER THAN ITS BOUND' if wide else ''}")
    if failed_runs or too_wide:
        sys.exit(f"{failed_runs} failed runs, {too_wide} metrics wider than their bounds")


if __name__ == "__main__":
    main(sys.argv[1:])
