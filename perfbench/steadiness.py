#!/usr/bin/env python3
"""Runs each workload N times back to back and reports how steady it is.

    python3 perfbench/steadiness.py --runs 10 [--workloads live_suite,...]
                                    [--first-seed 1] [--seconds S]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric the script prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the min/max, and the quartile spread as
a share of the median next to the metric's bound in BENCHMARK.json. A spread
at or under a third of the bound is marked "ok"; set_up time is only
compared against its bound between two sets of runs, so its spread is
informational. It also prints the share of failed operations per run, which
must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed_shares = []
        for run in range(args.runs):
            seed = args.first_seed + run
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr[-2000:])
                print("%s seed %d: exited %d" % (workload, seed,
                                                 done.returncode))
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                steady = False
                print("%s seed %d: outputs incorrect" % (workload, seed))
            failed_shares.append(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, result["metrics"][name]["value"])
                for name in values)), flush=True)

        print("\n%s: %d runs, failed share per run %s" % (
            workload, args.runs, sorted(set(failed_shares))))
        if len(set(failed_shares)) != 1:
            steady = False
        print("%-20s %12s %12s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for metric in spec["end_to_end"]:
            name, series = metric["name"], values[metric["name"]]
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            ok = spread <= metric["bound"] / 3
            if name != "setup_s":
                steady &= ok
            print("%-20s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %s"
                  % (name, mid, q1, q3, min(series), max(series),
                     spread * 100, metric["bound"] * 100,
                     "ok" if ok else "WIDE"))
        print(flush=True)
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
