#!/usr/bin/env python3
"""End-to-end benchmark of the pardon FL system: builds, runs, checks, reports.

    python3 perfbench/run.py --workload pacs_ltdo --seed 1 --seconds 30 --trace 0

Works from the repository root whatever the current directory. Builds the
perfbench binary into .bench_build/perfbench (configure once, incremental
afterwards; build output goes to stderr), then runs passes of the workload,
one fresh process per pass, until the next pass would overrun --seconds.
--trace 0 reports the end-to-end metrics of BENCHMARK.json over untraced passes;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones. The last stdout line is the JSON result. Exits 1
when an output check fails (after printing the result with "correct":
false), 2 on a build or runtime error, 3 when a reported percentile lacks
samples.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("pacs_ltdo", "iwildcam_obs", "net_loopback")
# What the binary compiles and reads: the digest names the measured code when
# the checkout carries no git metadata.
DIGEST_PATHS = ("src", "bench", "configs", "perfbench", "CMakeLists.txt")
MIN_PASSES = 3          # untraced passes with --trace 0
MIN_TRACED_PASSES = 2   # of each kind with --trace 1
RUN_DEADLINE_S = 150    # no pass starts that would end later than this
RUN_LIMIT_S = 175       # a pass still running then is killed


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_build_step(command):
    # Build chatter goes to stderr so stdout stays the report.
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(command))


def build():
    for required in ("BENCHMARK.json", "src/CMakeLists.txt",
                     "bench/experiment.cpp", "configs"):
        if not os.path.exists(required):
            fail("missing %s: run inside a checkout of the repository"
                 % required)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    digest = hashlib.sha256()
    files = []
    for path in DIGEST_PATHS:
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            files.extend(os.path.join(base, name) for name in names)
    for path in sorted(files):
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def run_binary(command, timeout):
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s exceeded %.0f s" % (" ".join(command), timeout))
    if result.returncode != 0 or not result.stdout.strip():
        fail("%s failed with exit code %d" % (" ".join(command),
                                              result.returncode))
    return json.loads(result.stdout.strip().splitlines()[-1])


def run_passes(binary, args):
    """Untraced and traced pass records, alternating when tracing."""
    passes = {False: [], True: []}
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes[False]) > len(passes[True])
        pass_start = time.monotonic()
        passes[traced].append(run_binary(
            [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--traced=%d" % traced],
            RUN_LIMIT_S - (pass_start - start)))
        longest = max(longest, time.monotonic() - pass_start)
        if args.trace:
            enough = min(len(passes[False]), len(passes[True])) >= \
                MIN_TRACED_PASSES
        else:
            enough = len(passes[False]) >= MIN_PASSES
        next_end = time.monotonic() - start + longest
        have_each = passes[False] and (passes[True] or not args.trace)
        if have_each and (next_end > RUN_DEADLINE_S or
                          (enough and next_end > args.seconds)):
            return passes[False], passes[True]


def median_of(records, key):
    return statistics.median(key(record) for record in records)


def check_outputs(binary, args, records):
    failures = []
    for record in records:
        failures.extend(record["check_failures"])
    if len({record["accuracy_table"] for record in records}) != 1:
        failures.append("accuracy table differs between passes of one build")
    digests = {record["params_digest"] for record in records}
    if len(digests) != 1:
        failures.append("final params differ between passes of one build")
    if args.workload == "net_loopback":
        reference = run_binary([binary, "--workload=net_loopback",
                                "--reference"], RUN_LIMIT_S)["params_digest"]
        if digests != {reference}:
            failures.append("socket rounds did not reproduce "
                            "fl::Simulator::Run bitwise")
    return failures


def end_to_end(specs, untraced):
    """name -> (value or None when missing, n, basis)."""
    passes = len(untraced)
    rounds = untraced[0]["rounds"]

    def percentile(key):
        values = [record[key] for record in untraced]
        value = None if None in values else statistics.median(values)
        return value, rounds, "rounds/pass x %d passes" % passes

    measured = {
        "run_s": (median_of(untraced, lambda r: r["run_s"]), passes,
                  "passes"),
        "setup_s": (median_of(untraced, lambda r: r["setup_s"]), passes,
                    "passes"),
        "updates_per_s": (median_of(
            untraced, lambda r: r["folded"] / (r["run_s"] - r["setup_s"])),
            passes, "passes"),
        "round_p50_ms": percentile("round_p50_ms"),
        "round_p95_ms": percentile("round_p95_ms"),
        "test_acc_pct": (untraced[0]["test_acc_pct"], passes, "passes"),
        "peak_rss_mb": (median_of(untraced, lambda r: r["peak_rss_mb"]),
                        passes, "processes"),
        "wire_mb_per_round": (untraced[0]["wire_mb_per_round"], passes,
                              "passes"),
    }
    return {spec["name"]: measured[spec["name"]] for spec in specs}


def per_layer(specs, untraced, traced):
    """name -> (value or None when missing, n, basis)."""
    run_untraced = median_of(untraced, lambda r: r["run_s"])
    run_traced = median_of(traced, lambda r: r["run_s"])
    derived = {
        "bench.trace_overhead_pct": 100.0 * (run_traced / run_untraced - 1.0),
        "bench.attributed_pct": median_of(
            traced, lambda r: 100.0 * sum(r["self_s"].values()) / r["run_s"]),
    }
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in derived:
            out[name] = (derived[name], len(traced), "passes")
            continue
        present = [r for r in traced if name in r["layers"]]
        if not present:
            out[name] = (0.0, 0, "not exercised by this workload")
            continue
        value = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        if any(name in r["layer_missing"] for r in traced):
            value = None
        samples = present[0]["layer_samples"].get(name)
        out[name] = (value, samples if samples else len(traced),
                     "samples/pass" if samples else "passes")
    return out


def print_metrics(title, specs, values):
    print(title)
    for spec in specs:
        value, n, basis = values[spec["name"]]
        shown = "missing" if value is None else "%.6g" % value
        print("  %-32s %14s %-8s (n=%d %s)" % (spec["name"], shown,
                                               spec["unit"], n, basis))


def print_attribution(traced):
    names = sorted({name for r in traced for name in r["self_s"]})
    run = median_of(traced, lambda r: r["run_s"])
    rows = sorted(((statistics.median(r["self_s"].get(name, 0.0)
                                      for r in traced), name)
                   for name in names), reverse=True)
    print("critical-path self time per layer (median of %d traced passes, "
          "run_s %.4f s):" % (len(traced), run))
    for seconds, name in rows:
        print("  %-32s %10.4f s %6.1f%%" % (name, seconds,
                                            100.0 * seconds / run))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    binary = build()
    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    untraced, traced = run_passes(binary, args)
    records = untraced + traced
    failures = check_outputs(binary, args, records)

    context = dict(records[0]["context"], commit=commit(),
                   source_digest=source_digest())
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("context " + json.dumps(context, sort_keys=True))
    print("accuracy table (%d passes):" % len(records))
    sys.stdout.write(records[0]["accuracy_table"])
    specs = benchmark["end_to_end"]
    values = end_to_end(specs, untraced)
    print_metrics("end-to-end (untraced passes):", specs, values)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print("  %-32s %14.6g %-8s (n=%d client trainings)"
          % ("fail_frac", failed / max(attempted, 1), "ratio", attempted))
    if args.trace:
        specs = benchmark["per_layer"]
        values = per_layer(specs, untraced, traced)
        print_metrics("per-layer (traced passes):", specs, values)
        print_attribution(traced)
    else:
        for name, (value, _, _) in values.items():
            if value is None:
                fail("%s has fewer than 10 samples beyond it" % name, code=3)
    for failure in failures:
        print("CHECK FAILED: " + failure, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]][0] or 0.0,
                                   "unit": spec["unit"]} for spec in specs},
    }
    print(json.dumps(result))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
