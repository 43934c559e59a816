#!/usr/bin/env python3
"""Host-time benchmark of PP: one command per workload.

    python3 perfbench/run.py --workload <profile-suite|repo-report|fleet-ingest>
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library and the
benchmark binary from source into .bench_build/perfbench (CMake, 4 jobs);
later runs only re-check the build. Every PP_* environment variable is
dropped and the ones that change behaviour are pinned, so nothing leaks in
from the caller's shell. Runs never delete files; remove
.bench_build/perfbench-work by hand to reclaim the space.

Human-readable lines (host facts, every end-to-end metric with its unit,
the spread of each repeated measurement, any correctness mismatch) come
first; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. The exit code is non-zero when the outputs
fail the correctness gate or the benchmark cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DEFAULT_REFERENCE = os.path.join(HERE, "reference", "suite-digests.txt")
WORKLOADS = ("profile-suite", "repo-report", "fleet-ingest")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 150

# Behaviour-changing knobs, pinned. Unset ones (PP_RUN_CACHE_DIR,
# PP_PROFILE_OUT, PP_FAULT_*, PP_DRIVER_SERIAL, PP_COLLECTD_*, PP_OBS_OUT,
# PP_OBS_TRACE) stay unset: the harness passes cache and deposit
# directories explicitly. Observability recording stays at its shipped
# default (on), so its cost is in every measured time; its per-thread ring
# is pinned to the smallest capacity because rings of exited threads are
# never freed (README.md, "Findings").
PINNED_ENV = {
    "PP_DRIVER_THREADS": "2",
    "PP_PROFDB_THREADS": "1",
    "PP_VM_ENGINE": "threaded",
    "PP_BL_K": "1",
    "PP_OBS": "1",
    "PP_OBS_RING_CAPACITY": "64",
}

# The issue's end-to-end metrics, in print order, with units. Those not
# in BENCHMARK.json are printed here but not gated (see README.md).
REPORTED = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
    ("sim_minsts_per_s", "Minst/s"),
    ("artifacts_per_s", "1/s"),
    ("uploads_per_s", "1/s"),
    ("upload_p50_ms", "ms"),
    ("upload_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
]


def log(message):
    print(message, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                      "--target", "perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PP_")}
    env.update(PINNED_ENV)
    return env


def spread(values):
    """Inter-quartile range as a share of the median (statistics.quantiles,
    n=4, the estimator the acceptance check uses)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a seconds-long run for the tests")
    parser.add_argument("--reference", default=DEFAULT_REFERENCE,
                        help="per-run digest file of the profile suite")
    args = parser.parse_args()

    spec = load_spec()
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1

    # Each run writes into a new directory and nothing is deleted: on an
    # ext4 filesystem mounted with `discard`, removing the previous run's
    # ~10k files made this run's set-up 4-5x slower. Flush what earlier
    # runs wrote so that its writeback does not land inside this run.
    work = os.path.join(WORK_ROOT, args.workload,
                        "%d-%d" % (time.time_ns(), os.getpid()))
    os.makedirs(work)
    os.sync()
    command = [BINARY, args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--work-dir", work,
               "--reference", os.path.abspath(args.reference)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=pinned_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no result from the benchmark binary "
                         "(exit %d)\n" % proc.returncode)
        return 1

    facts = raw["facts"]
    log("work directory (spans, caches): " + work)
    log("host: " + ", ".join("%s=%s" % kv for kv in sorted(facts.items())))
    for mismatch in raw["mismatches"]:
        log("MISMATCH: " + mismatch)

    attempted, failed = raw["attempted"], raw["failed"]
    measured = {name: value for name, (value, _) in raw["metrics"].items()}
    if args.trace == 0:
        measured["failed_frac"] = failed / attempted
        for name, unit in REPORTED:
            if name in measured:
                value = measured[name]
            elif name in facts:
                value = float(facts[name])
            else:
                log("metric %-18s n/a (not defined on %s)"
                    % (name, args.workload))
                continue
            log("metric %-18s %14.6g %s" % (name, value, unit))
        wanted = spec["end_to_end"]
    else:
        for name, (value, unit) in sorted(raw["metrics"].items()):
            log("layer  %-38s %14.6g %s" % (name, value, unit))
        log("tracing overhead (traced wall - untraced wall): %.6g s"
            % measured.get("trace.overhead_s", 0.0))
        wanted = spec["per_layer"]

    spreads = {name: spread(values)
               for name, values in raw["samples"].items() if len(values) > 1}
    for name, value in sorted(spreads.items()):
        log("spread %-18s %.4f (IQR/median over %d repetitions)"
            % (name, value, len(raw["samples"][name])))
    if spreads:
        worst = max(spreads, key=spreads.get)
        log("least steady: %s (%.4f)" % (worst, spreads[worst]))

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif args.trace == 1:
            # A layer this workload never calls did no work on it.
            value = 0.0
            log("layer  %-38s not exercised by %s: 0" % (name, args.workload))
        else:
            sys.stderr.write("perfbench: metric %s missing\n" % name)
            return 1
        metrics[name] = {"value": value, "unit": entry["unit"]}
    correct = bool(raw["correct"]) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
