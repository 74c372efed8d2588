#!/usr/bin/env python3
"""End-to-end benchmark of the PARMONC run engine.

Builds parmonc_perfbench (perfbench/src) against the library sources of this
checkout, then runs one workload repeatedly through runSimulation for the
requested number of seconds and prints one JSON object as its last line:

    python3 perfbench/run.py --workload paper-diffusion --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the timed runs); --trace 1 reports the per-layer metrics from traced runs
and layer probes. --smoke runs every workload at a tiny volume and checks
that each metric named in BENCHMARK.json is emitted with its unit.
See perfbench/README.md.
"""

import argparse
import array
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "parmonc_perfbench")
BUILD_TYPE = "RelWithDebInfo"
# Compiler and run temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))

# save-default is not in BENCHMARK.json: its wall time follows the host's
# fsync latency, which drifts more than any allowed bound (README.md).
# It stays runnable by hand and in --smoke.
WORKLOADS = ("paper-diffusion", "diffusion-philox", "strict-tiny",
             "save-default")
# Realization counts of one smoke run: enough for the correctness gate,
# small enough that --smoke finishes in seconds.
SMOKE_VOLUMES = {"paper-diffusion": 150, "diffusion-philox": 150,
                 "strict-tiny": 30000, "save-default": 60}
MIN_TIMED_RUNS = 3
RUN_TIMEOUT_S = 120
# Stop starting runs after this long, whatever --seconds says, so one
# invocation always ends within its 180 s budget.
HARD_STOP_S = 140

# Counts DeterministicSchedule makes exact; any drift is a fault.
EXACT_COUNTS = ("count.realizations", "count.streams_issued",
                "count.messages", "count.bytes")
# save points are exact only where the save cadence is "every poll".
EXACT_SAVE_POINTS = ("save-default",)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "realizations_per_s": "1/s",
                    "cpu_us_per_realization": "us", "peak_rss_mib": "MiB"}
# Per-layer metrics by source: numbers each traced run reports (median over
# the traced runs), percentiles of their pooled samples, the probes process,
# and the runs' exact counts under layer names.
TRACED_RUN_UNITS = {
    "rng.draws_per_realization": "count",
    "core.engine_overhead_ns_per_realization": "ns",
    "core.snapshot_bytes": "bytes",
}
# Percentiles over the raw samples the traced runs write, pooled across
# the invocation: (metric, sample file, percentile, scale to unit, unit).
POOLED_PERCENTILES = (
    ("sde.body_ns_p50", "body_spans.u32", 0.50, 1.0, "ns"),
    ("sde.body_ns_p99", "body_spans.u32", 0.99, 1.0, "ns"),
    ("core.save_interval_p50_us", "save_intervals.u32", 0.50, 1e-3, "us"),
    ("core.save_interval_p99_us", "save_intervals.u32", 0.99, 1e-3, "us"),
)
PROBE_UNITS = {
    "rng.draw_ns": "ns", "rng.stream_issue_ns": "ns",
    "rng.leap_setup_us": "us", "stats.accumulate_ns": "ns",
    "stats.merge_us": "us", "stats.error_bounds_us": "us",
    "mpsim.encode_us": "us", "mpsim.decode_us": "us",
    "mpsim.send_recv_us": "us", "mpsim.spawn_ms": "ms",
    "core.prepare_us": "us", "core.write_results_us": "us",
    "core.write_snapshot_us": "us", "support.write_atomic_us": "us",
    "support.fsync_us": "us", "ckpt.commit_us": "us",
    "ckpt.enqueue_us": "us", "obs.counter_add_ns": "ns",
    "obs.latency_record_ns": "ns",
}
COUNT_METRICS = {"mpsim.messages": ("count.messages", "count"),
                 "mpsim.bytes": ("count.bytes", "bytes"),
                 "core.save_points": ("count.save_points", "count")}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds parmonc_perfbench; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=ENV)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "parmonc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=ENV)


def invoke(args):
    """Runs parmonc_perfbench once; returns its parsed JSON line, or None."""
    # Own process group, so a hung run is killed with its rank processes.
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=ENV,
                            start_new_session=True)
    watchdog = threading.Timer(
        RUN_TIMEOUT_S, lambda: os.killpg(proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        log("parmonc_perfbench exited %d: %s" % (proc.returncode, " ".join(args)))
        return None
    lines = [line for line in out.decode().splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("parmonc_perfbench printed no result: %s" % " ".join(args))
        return None


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Checker:
    """The correctness gate across the runs of one invocation."""

    def __init__(self, workload):
        self.workload = workload
        self.counts = None
        self.func_hash = None
        self.failures = []

    def check(self, run):
        """Returns True if the run is correct; records why not."""
        if run is None:
            return self.fail("run did not complete")
        if not run.get("ok"):
            return self.fail("runSimulation failed: %s" % run.get("error"))
        if run["degraded"] or run["failed_sends"] or run["dead_workers"]:
            return self.fail("run degraded (failed sends %d, dead %d)" %
                             (run["failed_sends"], run["dead_workers"]))
        if run.get("setup_s") is None:
            return self.fail("no realization ran in the calling process")
        if run["total_volume"] != run["volume"]:
            return self.fail("volume %d != %d" % (run["total_volume"],
                                                  run["volume"]))
        if not run["gate_passed"]:
            return self.fail("%s (worst %.3g sigma, allowed %.3g; "
                             "variance ratio %.3g)" %
                             (run["gate_reason"], run["gate_worst_sigmas"],
                              run["gate_allowed_sigmas"],
                              run["gate_worst_variance_ratio"]))
        digest = sha256(run["func_dat"])
        if self.func_hash is None:
            self.func_hash = digest
        elif digest != self.func_hash:
            return self.fail("func.dat differs between runs of one seed")
        keys = EXACT_COUNTS + (("count.save_points",)
                               if self.workload in EXACT_SAVE_POINTS else ())
        counts = {key: run[key] for key in keys}
        if self.counts is None:
            self.counts = counts
            return self.compare_recorded(counts, run["volume"])
        if counts != self.counts:
            return self.fail("exact counts drifted: %s vs %s" %
                             (counts, self.counts))
        return True

    def compare_recorded(self, counts, volume):
        """Exact counts do not depend on the seed, so every invocation in
        this checkout must see the same ones."""
        path = os.path.join(WORK_ROOT, "exact_counts.json")
        key = "%s/%d" % (self.workload, volume)
        recorded = {}
        if os.path.exists(path):
            with open(path) as handle:
                recorded = json.load(handle)
        if key in recorded and recorded[key] != counts:
            return self.fail("exact counts differ from an earlier "
                             "invocation: %s vs %s" % (counts, recorded[key]))
        recorded[key] = counts
        with open(path, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
        return True

    def fail(self, why):
        self.failures.append(why)
        log("FAILED %s: %s" % (self.workload, why))
        return False


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def read_samples(path):
    samples = array.array("I")
    with open(path, "rb") as handle:
        samples.frombytes(handle.read())
    return samples


def measure(workload, seed, seconds, trace, volume=None):
    """Runs one workload for `seconds`; returns the result object."""
    work = os.path.join(WORK_ROOT, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    stamp = invoke(["stamp", "--workdir", work])
    if stamp is None:
        raise RuntimeError("host stamp failed")
    print("# host %s" % json.dumps(stamp, sort_keys=True))
    if stamp.get("workdir_fs") in ("tmpfs", "ramfs"):
        log("warning: %s is on %s; save-point costs are not disk costs"
            % (work, stamp["workdir_fs"]))

    base_args = ["run", "--workload", workload, "--seed", str(seed)]
    if volume is not None:
        base_args += ["--volume", str(volume)]
    start = time.monotonic()
    plain, traced = [], []
    pooled = {name: array.array("I") for _, name, _, _, _ in
              POOLED_PERCENTILES}
    checker = Checker(workload)
    attempted = failed = 0
    index = 0
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_TIMED_RUNS if not trace else \
            (len(plain) >= 2 and len(traced) >= 2)
        if (elapsed >= seconds and (enough or failed)) or \
                elapsed >= HARD_STOP_S:
            break
        # Traced invocations alternate untraced and traced runs, so the
        # tracing overhead is measured under the same host conditions.
        as_traced = bool(trace) and index % 2 == 1
        run_dir = os.path.join(work, "run%d" % index)
        os.makedirs(run_dir)
        args = base_args + ["--workdir", run_dir] + \
            (["--traced"] if as_traced else [])
        run = invoke(args)
        index += 1
        attempted += 1
        if not checker.check(run):
            failed += 1
        else:
            (traced if as_traced else plain).append(run)
            for name, pool in pooled.items() if as_traced else ():
                pool.extend(read_samples(os.path.join(run_dir, name)))
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    samples = {}  # metric -> number of samples behind it
    if not trace and plain:
        for run in plain:
            run["realizations_per_s"] = \
                run["volume"] / (run["wall_s"] - run["setup_s"])
            run["cpu_us_per_realization"] = run["cpu_s"] * 1e6 / run["volume"]
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = metric(
                statistics.median(run[key] for run in plain), unit)
            samples[key] = "%d runs" % len(plain)
    elif trace and traced and plain:
        for key, unit in TRACED_RUN_UNITS.items():
            metrics[key] = metric(
                statistics.median(run[key] for run in traced), unit)
            samples[key] = "%d traced runs" % len(traced)
        for key, (source, unit) in COUNT_METRICS.items():
            metrics[key] = metric(
                statistics.median(run[source] for run in traced), unit)
            samples[key] = "%d traced runs" % len(traced)
        for key, name, q, scale, unit in POOLED_PERCENTILES:
            ordered = sorted(pooled[name])
            if ordered:
                metrics[key] = metric(percentile(ordered, q) * scale, unit)
                samples[key] = "%d samples" % len(ordered)
        wall = statistics.median(r["wall_s"] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_pct"] = metric(
            (wall / untraced_wall - 1.0) * 100.0, "%")
        samples["trace.overhead_pct"] = "%d traced / %d untraced runs" % (
            len(traced), len(plain))
        probe_dir = os.path.join(work, "probes")
        os.makedirs(probe_dir)
        probes = invoke(["probes", "--workload", workload, "--seed",
                         str(seed), "--workdir", probe_dir])
        if probes is None:
            raise RuntimeError("layer probes failed")
        for key, unit in PROBE_UNITS.items():
            metrics[key] = metric(probes[key], unit)
    shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0 and attempted > 0 and bool(metrics)
    for name, entry in sorted(metrics.items()):
        print("# %s %s %.6g %s (%s)" % (workload, name, entry["value"],
                                        entry["unit"],
                                        samples.get(name, "probe median")))
    print("# %s run_error_rate %.6g (failed %d of %d runs)" %
          (workload, failed / max(attempted, 1), failed, attempted))
    if checker.counts:
        print("# %s exact_counts %s" % (workload,
                                        json.dumps(checker.counts,
                                                   sort_keys=True)))
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def smoke():
    """Every workload at a tiny volume, traced and untraced; checks that
    each BENCHMARK.json metric is emitted with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if not set(names) <= set(WORKLOADS):
        problems.append("workloads %s not in %s" % (names, list(WORKLOADS)))
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(name, 1, 0, trace, SMOKE_VOLUMES[name])
            if not result["correct"] or result["failed"]:
                problems.append("%s trace=%d: not correct" % (name, trace))
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            if set(got) != set(wanted):
                problems.append("%s trace=%d: metrics %s != %s" % (
                    name, trace, sorted(got), sorted(wanted)))
            for key, unit in wanted.items():
                entry = got.get(key)
                if entry is None or entry["unit"] != unit or \
                        not isinstance(entry["value"], (int, float)):
                    problems.append("%s trace=%d: bad %s: %s" % (
                        name, trace, key, entry))
    for problem in problems:
        log("smoke: " + problem)
    print("smoke: %s" % ("ok" if not problems else
                         "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        log("build failed: %s" % error)
        return 1
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.smoke:
        return smoke()
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError) as error:
        log("benchmark failed: %s" % error)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
