#!/usr/bin/env python3
"""Cheetah's benchmark: the three ways the profiler is run, end to end.

    python3 perfbench/run.py --workload live_suite --seed 1 --seconds 30 --trace 0

Workloads (see README.md for the pinned inputs and why each was chosen):

  live_suite    one unit is one pass of driver::runSession over TABLE
  replay_dense  set-up records a dense trace; one unit is one replay of it
  daemon_soak   set-up records a trace; one unit is one cheetah-daemon soak

The script builds the harness and the tools from source into .bench_build,
runs whole units until --seconds have passed (after one untimed warm-up),
checks every unit's outputs outside the timed region, and prints one JSON
line last: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Exits non-zero without a result line when the build or a unit
fails to run.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# One input, thread count and scale per app, like a PARSEC harness table.
# linear_regression and numa_first_touch need denser sampling than the
# default period for their findings to clear the significance gates.
TABLE = [
    "--workload=x264 --scale=2 --granularity=both",
    "--workload=canneal --scale=2 --granularity=both",
    "--workload=linear_regression --scale=2 --granularity=both "
    "--sampling-period=256",
    "--workload=numa_first_touch --scale=2 --granularity=both "
    "--sampling-period=128",
]
# Period 32 keeps the replay's heap near 140 MB. At period 16 it is 265 MB,
# close to the host's shared 300 MB L3, and its time swings with what the
# neighbours keep in that cache.
REPLAY = "--workload=canneal --scale=4 --granularity=both --sampling-period=32"
# At most nproc OS threads: three replay children plus the daemon's main.
DAEMON = ("--workload=canneal --scale=1 --threads=3 --granularity=both "
          "--sampling-period=256")
DAEMON_EPOCHS = 100
# 20 MiB of line slab index (1.31M slots x 16 B for the default 64 MiB heap
# and 16 MiB globals) is fixed; below it every grain is evicted every epoch.
DAEMON_LINE_BUDGET = 20 * 1024 * 1024 + 128 * 1024
MIN_UNITS = 3
SETUP_REPEATS = {"live_suite": 20, "replay_dense": 5, "daemon_soak": 5}
TIMEOUT = 170


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness and tools; returns the bin dir."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("no Cheetah source tree next to perfbench/ "
                             "(missing %s)" % needed)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as build_log:
        def step(command):
            return subprocess.run(command, cwd=ROOT, stdout=build_log,
                                  stderr=subprocess.STDOUT).returncode == 0

        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(build_dir, "Makefile")):
            configure += ["-G", "Ninja"]
        ok = os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) \
            or step(configure)
        ok = ok and step(["cmake", "--build", build_dir, "-j",
                          str(os.cpu_count() or 1), "--target",
                          "perfbench-harness", "cheetah-daemon",
                          "cheetah-trend"])
    if not ok:
        with open(log_path) as build_log:
            sys.stderr.write(build_log.read()[-4000:])
        raise BenchError("build failed (log: %s)" % log_path)
    return build_dir


def wait_measured(process):
    """Reaps the process; returns (exit status, peak RSS in MB)."""
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0


def harness(bin_dir, mode, options, entries):
    command = [os.path.join(bin_dir, "perfbench-harness"), mode]
    for key, value in options.items():
        command += ["--" + key, str(value)]
    for entry in entries:
        command += ["--entry", entry]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError("harness %s exited %d" % (mode, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_samples(trace_path):
    """Counts sample events in a cheetah-trace-v1 file with Python's parser."""
    with open(trace_path) as trace:
        document = json.load(trace)
    if document.get("schema") != "cheetah-trace-v1":
        raise BenchError("%s is not a cheetah-trace-v1 file" % trace_path)
    return sum(1 for event in document["events"] if event["k"] == "s")


def median(values):
    return statistics.median(values) if values else 0.0


def traced_layers(result):
    """Medians over traced units of every '<layer>@traced' series."""
    layers = {}
    for name, values in result["series"].items():
        if name.endswith("@traced"):
            layers[name[:-len("@traced")]] = median(values)
    return layers


def attributed_share(result):
    """Median over traced units of (sum of layer self times) / unit time."""
    series = result["series"]
    units = series.get("unit_s@traced", [])
    shares = []
    for index, unit in enumerate(units):
        total = sum(values[index] for name, values in series.items()
                    if name.endswith("_s@traced") and name != "unit_s@traced")
        shares.append(total / unit)
    return median(shares)


def finish_checks(result, failures):
    for failure in result["check_failures"]:
        failures.append(failure["name"] + ": " + failure["detail"])


def workload_seed(seed):
    return seed % (1 << 62)


def run_live(bin_dir, args, work_dir, failures):
    seed = " --seed=%d" % workload_seed(args.seed)
    entries = [entry + seed for entry in TABLE]
    result = harness(bin_dir, "live", {
        "seconds": args.seconds, "min-units": MIN_UNITS, "trace": args.trace,
        "setup-repeats": SETUP_REPEATS["live_suite"]}, entries)
    finish_checks(result, failures)
    series, counts = result["series"], result["counts"]
    run_s = median(series["unit_s"])
    names = [re.search(r"--workload=(\S+)", entry).group(1) for entry in TABLE]
    accesses = sum(counts["entry.%s.accesses" % name] for name in names)
    samples = sum(counts["entry.%s.samples" % name] for name in names)
    shape = {"units": len(series["unit_s"])}
    for name in names:
        for field in ("accesses", "threads", "samples", "findings"):
            shape["%s.%s" % (name, field)] = counts["entry.%s.%s" % (name, field)]
    e2e = {
        "setup_s": median(series["setup_s"]),
        "run_s": run_s,
        "peak_rss_mb": counts["peak_rss_mb"],
        "sim_accesses_per_s": accesses / run_s,
        "samples_per_s": samples / run_s,
        "epoch_p50_ms": run_s * 1e3,
    }
    layers = {}
    if args.trace:
        layers = traced_layers(result)
        for name in names:
            prefix = "live." + name
            layers[prefix + ".run_s"] = median(series["entry.%s.run_s" % name])
            layers[prefix + ".sim_s"] = median(series["entry.%s.sim_s" % name])
            for field in ("accesses", "threads", "samples"):
                layers["%s.%s" % (prefix, field)] = \
                    counts["entry.%s.%s" % (name, field)]
        layers["trace.overhead_s"] = \
            median(series["unit_s@traced"]) - run_s
        layers["trace.attributed_share"] = attributed_share(result)
    return result, e2e, layers, shape


def run_replay(bin_dir, args, work_dir, failures):
    entry = REPLAY + " --seed=%d" % workload_seed(args.seed)
    trace_path = os.path.join(work_dir, "dense.trace")
    report_path = os.path.join(work_dir, "dense.json")
    record = harness(bin_dir, "record", {
        "repeats": SETUP_REPEATS["replay_dense"], "trace-out": trace_path,
        "report-out": report_path, "trace": args.trace}, [entry])
    finish_checks(record, failures)
    samples = count_samples(trace_path)
    result = harness(bin_dir, "replay", {
        "seconds": args.seconds, "min-units": MIN_UNITS, "trace": args.trace,
        "trace-file": trace_path, "expect-report": report_path,
        "expect-samples": samples}, [entry])
    finish_checks(result, failures)
    series, counts = result["series"], result["counts"]
    run_s = median(series["unit_s"])
    trace_bytes = os.path.getsize(trace_path)
    shape = {"units": len(series["unit_s"]), "samples": samples,
             "trace_bytes": trace_bytes,
             "recorded_accesses": record["counts"]["accesses"],
             "findings": counts["findings"],
             "report_bytes": counts["report_bytes"]}
    e2e = {
        "setup_s": median(record["series"]["setup_s"]),
        "run_s": run_s,
        "peak_rss_mb": counts["peak_rss_mb"],
        "sim_accesses_per_s": record["counts"]["accesses"] / run_s,
        "samples_per_s": samples / run_s,
        "epoch_p50_ms": run_s * 1e3,
    }
    layers = {}
    if args.trace:
        layers = traced_layers(result)
        layers["pmu.trace_record_s"] = median(
            record["series"]["pmu.trace_record_s"])
        layers["pmu.trace_bytes"] = trace_bytes
        layers["trace.overhead_s"] = median(series["unit_s@traced"]) - run_s
        layers["trace.attributed_share"] = attributed_share(result)
    result["attempted"] += record["attempted"]
    result["failed"] += record["failed"]
    return result, e2e, layers, shape


FOOTPRINT = re.compile(r"epoch (\d+) -> (\S+) \(line footprint (\d+)/(\d+)")


def daemon_soak(bin_dir, entry, trace_path, soak_dir, epochs):
    """Runs one cheetah-daemon soak; returns its wall time, the gaps between
    its per-epoch lines, its peak RSS, and the parsed epoch lines."""
    shutil.rmtree(soak_dir, ignore_errors=True)
    snapshots = os.path.join(soak_dir, "snapshots")
    os.makedirs(snapshots)
    command = [os.path.join(bin_dir, "cheetah", "tools", "cheetah-daemon")]
    command += entry.split() + [
        "--backend=trace:" + trace_path, "--epochs=%d" % epochs,
        "--line-budget=%d" % DAEMON_LINE_BUDGET,
        "--store=" + os.path.join(soak_dir, "store.json"),
        "--snapshot-dir=" + snapshots]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT, process.kill)
    watchdog.start()
    stamps, lines, other = [], [], []
    try:
        for line in process.stderr:
            match = FOOTPRINT.search(line)
            if match:
                stamps.append(time.perf_counter())
                lines.append(match)
            else:
                other.append(line)
    finally:
        process.stderr.close()
        status, rss_mb = wait_measured(process)
        wall = time.perf_counter() - start
        watchdog.cancel()
    if status != 0:
        sys.stderr.write("".join(other[-20:]))
        raise BenchError("cheetah-daemon exited %d" % status)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    return wall, gaps, rss_mb, lines


def check_soak(bin_dir, soak_dir, lines, epochs, samples, failures):
    """Checks one soak's store, snapshots and footprints; returns the
    number of epochs whose outputs are wrong and the soak's work counts."""
    bad = set()
    shape = {}
    store_path = os.path.join(soak_dir, "store.json")
    with open(store_path) as store:
        ids = [run["id"] for run in json.load(store)["runs"]]
    expected = ["epoch-%d" % k for k in range(epochs)]
    if ids != expected:
        failures.append("store holds %d runs, not epoch-0..epoch-%d"
                        % (len(ids), epochs - 1))
        bad.update(range(epochs))
    if len(lines) != epochs:
        failures.append("%d epoch lines for %d epochs" % (len(lines), epochs))
        bad.update(range(epochs))
    for match in lines:
        epoch, footprint, budget = (int(match.group(1)), int(match.group(3)),
                                    int(match.group(4)))
        if footprint > budget or budget != DAEMON_LINE_BUDGET:
            failures.append("epoch %d: line footprint %d over budget %d"
                            % (epoch, footprint, budget))
            bad.add(epoch)
    for epoch in range(epochs):
        path = os.path.join(soak_dir, "snapshots", "epoch-%d.json" % epoch)
        with open(path) as snapshot:
            summary = json.load(snapshot)["summary"]
        reported = summary["samples"]
        if reported != (epoch + 1) * samples:
            failures.append("epoch %d snapshot reports %d samples, not %d"
                            % (epoch, reported, (epoch + 1) * samples))
            bad.add(epoch)
    trend = subprocess.run(
        [os.path.join(bin_dir, "cheetah", "tools", "cheetah-trend"), "show",
         "--store=" + store_path], cwd=ROOT, capture_output=True)
    if trend.returncode != 0:
        failures.append("cheetah-trend show exited %d" % trend.returncode)
        bad.update(range(epochs))
    # Evicted-grain counts are left out: they vary between identical soaks.
    shape["findings"] = summary["findings"]
    shape["page_findings"] = summary["page_findings"]
    return len(bad), shape


def tenth_medians(values):
    tenth = max(1, len(values) // 10)
    return median(values[:tenth]), median(values[-tenth:])


def run_daemon(bin_dir, args, work_dir, failures):
    entry = DAEMON + " --seed=%d" % workload_seed(args.seed)
    trace_path = os.path.join(work_dir, "daemon.trace")
    report_path = os.path.join(work_dir, "daemon.json")
    record = harness(bin_dir, "record", {
        "repeats": SETUP_REPEATS["daemon_soak"], "trace-out": trace_path,
        "report-out": report_path, "trace": args.trace}, [entry])
    finish_checks(record, failures)
    samples = count_samples(trace_path)
    soak_dir = os.path.join(work_dir, "soak")

    daemon_soak(bin_dir, entry, trace_path, soak_dir, DAEMON_EPOCHS)  # warm-up
    walls, epoch_p50, rss, soak_shapes = [], [], [], []
    attempted, failed = record["attempted"], record["failed"]
    start = time.perf_counter()
    while len(walls) < MIN_UNITS or time.perf_counter() - start < args.seconds:
        wall, gaps, rss_mb, lines = daemon_soak(
            bin_dir, entry, trace_path, soak_dir, DAEMON_EPOCHS)
        walls.append(wall)
        epoch_p50.append(median(gaps))
        rss.append(rss_mb)
        attempted += DAEMON_EPOCHS
        bad, soak_shape = check_soak(bin_dir, soak_dir, lines, DAEMON_EPOCHS,
                                     samples, failures)
        failed += bad
        if soak_shapes and soak_shape != soak_shapes[0]:
            failures.append("soak work changed: %s vs %s"
                            % (soak_shape, soak_shapes[0]))
        soak_shapes.append(soak_shape)
    run_s = median(walls)
    shape = dict(soak_shapes[0])
    shape.update({"units": len(walls), "epochs": DAEMON_EPOCHS,
             "samples_per_epoch": samples,
             "trace_bytes": os.path.getsize(trace_path),
             "recorded_accesses": record["counts"]["accesses"]})
    e2e = {
        "setup_s": median(record["series"]["setup_s"]),
        "run_s": run_s,
        "peak_rss_mb": median(rss),
        "sim_accesses_per_s":
            record["counts"]["accesses"] * DAEMON_EPOCHS / run_s,
        "samples_per_s": samples * DAEMON_EPOCHS / run_s,
        "epoch_p50_ms": median(epoch_p50) * 1e3,
    }
    layers = {}
    if args.trace:
        traced_dir = os.path.join(work_dir, "traced")
        os.makedirs(os.path.join(traced_dir, "snapshots"))
        result = harness(bin_dir, "daemon", {
            "trace-file": trace_path, "epochs": DAEMON_EPOCHS,
            "line-budget": DAEMON_LINE_BUDGET,
            "store": os.path.join(traced_dir, "store.json"),
            "snapshot-dir": os.path.join(traced_dir, "snapshots")}, [entry])
        finish_checks(result, failures)
        attempted += result["attempted"]
        failed += result["failed"]
        series, counts = result["series"], result["counts"]
        for name, values in series.items():
            if name.endswith("@epoch") and name != "epoch_ms@epoch":
                early, late = tenth_medians(values)
                layers[name[:-len("@epoch")] + ".early"] = early
                layers[name[:-len("@epoch")] + ".late"] = late
            elif not name.endswith("@epoch"):
                layers[name] = median(values)
        for name in ("history.store_bytes", "runtime.threads_registered",
                     "detect.footprint_bytes", "detect.evicted_grains"):
            layers[name] = counts[name]
        layers["pmu.trace_record_s"] = median(
            record["series"]["pmu.trace_record_s"])
        layers["pmu.trace_bytes"] = os.path.getsize(trace_path)
        layers["pmu.samples"] = samples
        layers["daemon.epochs"] = DAEMON_EPOCHS
        layers["trace.overhead_s"] = counts["unit_s"] - run_s
        layers["trace.attributed_share"] = \
            counts["attributed_s"] / counts["unit_s"]
    summary = {"attempted": attempted, "failed": failed}
    return summary, e2e, layers, shape


WORKLOADS = {"live_suite": run_live, "replay_dense": run_replay,
             "daemon_soak": run_daemon}


def derive_rates(layers):
    """Per-access and per-sample costs from the summed layer times."""
    if layers.get("sim.accesses"):
        layers["sim.ns_per_access"] = \
            layers["sim.run_s"] * 1e9 / layers["sim.accesses"]
    if layers.get("pmu.samples") and "detect.ingest_s" in layers:
        layers["detect.ns_per_sample"] = \
            layers["detect.ingest_s"] * 1e9 / layers["pmu.samples"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        bin_dir = build()
        work_dir = os.path.join(bin_dir, "work",
                                "%s-%d" % (args.workload, os.getpid()))
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        failures = []
        try:
            result, e2e, layers, shape = WORKLOADS[args.workload](
                bin_dir, args, work_dir, failures)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("error: %s" % error)
        return 1

    derive_rates(layers)
    if args.trace and layers.get("trace.attributed_share", 0) < 0.95:
        failures.append("layer self times cover only %.3f of the traced "
                        "wall time" % layers.get("trace.attributed_share", 0))
    for failure in failures:
        log("check failed: " + failure)
    if args.trace:
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print("shape: " + json.dumps(shape, sort_keys=True))
    for name, metric in metrics.items():
        print("%-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not failures,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
