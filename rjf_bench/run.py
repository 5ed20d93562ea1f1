#!/usr/bin/env python3
"""End-to-end benchmark of the reactive-jamming framework (see README.md).

Builds rjf_bench from the sources of the checkout it sits in, runs one
workload, checks its outputs against reference.json and prints the metrics
named in BENCHMARK.json, ending with one JSON line:

  python3 rjf_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 rjf_bench/run.py --workload all ...   (last line: {NAME: result})
  python3 rjf_bench/run.py --smoke [--binary PATH]
  python3 rjf_bench/run.py --make-reference [--seed N]

Exit status: 0 when every output check passes, 1 when a check fails (the
result line is still printed) or the build or a run fails, 2 on bad usage.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rjf_bench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ["campaign_ofdm", "campaign_dsss", "network_reactive",
             "stream_realtime"]
# Set-ups per measured run, each in a fresh process, median reported. Half
# are taken before the measurement and half after, SETUP_GAP_S apart: a
# shared host slows down in bursts of about a second, and back-to-back
# set-ups would all land in the same burst.
SETUP_RUNS = 11
SETUP_GAP_S = 0.2
# Output checks allow 4.5 standard errors plus one unit of discreteness.
SIGMAS = 4.5
RUN_TIMEOUT_S = 170
REFERENCE_SEED = 20261016  # held out: never a seed the benchmark is run with


def fail(msg):
    print(f"rjf_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build incrementally (both quick once the tree exists);
    output goes to stderr, the compiler's temporary files to TMP_DIR."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "rjf_bench",
              "-j", jobs]]
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "rjf_bench")


def run_binary(binary, args, echo=True):
    """Run rjf_bench; echo its human lines, return its final JSON line."""
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        proc = subprocess.run([binary, *args, "--tmpdir", TMP_DIR],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rjf_bench {' '.join(args)} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"rjf_bench {' '.join(args)} exited {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def check_point(point, ref):
    """Deviation of one checked output from its reference, in standard
    errors, and whether it lies inside SIGMAS of them plus one unit of
    discreteness."""
    kind = point["kind"]
    if kind == "binomial":  # P_det of n trials
        n, x = point["n"], point["k"] / point["n"]
        x_ref = ref["k"] / ref["n"]
        # Variance of the pooled proportion, continuity-corrected so that a
        # point at P_det 0 or 1 in both samples still has a spread: with 0
        # misses in the reference, a few misses in a tenth of its trials are
        # no evidence of a change.
        pooled = (point["k"] + ref["k"] + 0.5) / (n + ref["n"] + 1)
        se = math.sqrt(pooled * (1 - pooled) * (1 / n + 1 / ref["n"]))
        quantum = 1 / n
    elif kind == "band":  # mean over rounds of a per-sim value
        values, ref_values = point["values"], ref["values"]
        x, x_ref = statistics.fmean(values), statistics.fmean(ref_values)
        se = statistics.stdev(ref_values) * math.sqrt(
            1 / len(values) + 1 / len(ref_values))
        quantum = point["quantum"]
    elif kind == "mean":  # per-block mean over n independent blocks
        x, x_ref = point["mean"], ref["mean"]
        se = ref["sd"] * math.sqrt(1 / point["n"] + 1 / ref["n"])
        quantum = 1 / point["n"]
    else:
        raise ValueError(f"unknown check kind {kind}")
    tolerance = SIGMAS * se + quantum
    dev = abs(x - x_ref)
    return SIGMAS * dev / tolerance, dev <= tolerance, x, x_ref


def check_outputs(workload, result, reference):
    """Returns (units failed, largest deviation in standard errors)."""
    ref_points = {p["label"]: p for p in reference[workload]["points"]}
    failed, max_dev = 0, 0.0
    for point in result["checks"]:
        ref = ref_points.get(point["label"])
        if ref is None:
            fail(f"{workload}: no reference for {point['label']}; "
                 "regenerate reference.json")
        dev, ok, x, x_ref = check_point(point, ref)
        max_dev = max(max_dev, dev)
        if not ok:
            failed += point["units"]
            print(f"CHECK FAILED {workload} {point['label']}: {x:.6g} vs "
                  f"reference {x_ref:.6g} ({dev:.2f} standard errors)",
                  file=sys.stderr)
    return failed, max_dev


def metric_values(result, setups, max_dev, trace):
    """Per-layer values of a traced run, else the end-to-end values."""
    if trace:
        return dict(result["layers"], **{"check.max_dev_sigma": max_dev})
    return {"setup_s": statistics.median(setups),
            "air_s_per_ref_s": result["air_s_per_ref_s"],
            "peak_rss_mb": result["peak_rss_mb"]}


def unmatched_metrics(spec, values, trace):
    """Metrics BENCHMARK.json lists without a value, and values it does
    not list."""
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return sorted(names - set(values)), sorted(set(values) - names)


def setup_times(binary, args, count):
    """Set-up times of `count` fresh processes, SETUP_GAP_S apart."""
    times = []
    for _ in range(count):
        time.sleep(SETUP_GAP_S)
        times.append(run_binary(binary, args + ["--setup-only"],
                                echo=False)["setup_s"])
    return times


def measure(binary, spec, reference, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    extra = 0 if trace else SETUP_RUNS - 1
    setups = setup_times(binary, args, extra // 2)
    result = run_binary(binary, args + (["--trace"] if trace else []))
    setups += [result["setup_s"]] + setup_times(binary, args,
                                                extra - extra // 2)

    failed, max_dev = check_outputs(workload, result, reference)
    failed = min(result["units"], failed + result["unit_errors"])
    values = metric_values(result, setups, max_dev, trace)
    missing, _ = unmatched_metrics(spec, values, trace)
    if missing:
        fail(f"{workload} printed no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{workload:17s} {name:38s} {m['value']:16.6f} {m['unit']}")
    return {"correct": failed == 0, "attempted": result["units"],
            "failed": failed, "metrics": metrics}


def smoke(binary, spec, reference):
    """Every workload at a tiny size, traced: checks pass, the replay
    reproduces the untraced counts, and every BENCHMARK.json metric is
    printed in both modes."""
    ok = True
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", "3", "--seconds", "0",
                "--smoke"]
        traced = run_binary(binary, args + ["--trace"], echo=False)
        failed, max_dev = check_outputs(workload, traced, reference)
        unmatched = [name for trace in (False, True) for names in
                     unmatched_metrics(spec, metric_values(
                         traced, [traced["setup_s"]], max_dev, trace), trace)
                     for name in names]
        status = "ok"
        if failed or traced["unit_errors"] or unmatched:
            ok = False
            status = (f"FAILED: {failed} units off reference, "
                      f"{traced['unit_errors']} replay mismatches, "
                      f"metrics not matching BENCHMARK.json: {unmatched}")
        print(f"smoke {workload:17s} {traced['units']:6d} units  {status}")
    return 0 if ok else 1


def make_reference(binary, seed):
    reference = {}
    for workload in WORKLOADS:
        print(f"reference {workload} (seed {seed})", file=sys.stderr)
        result = run_binary(binary, ["--workload", workload, "--seed",
                                     str(seed), "--reference"])
        points = [{k: v for k, v in p.items()
                   if k not in ("kind", "units", "quantum")}
                  for p in result["checks"]]
        reference[workload] = {"seed": seed, "points": points}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--binary", help="use this rjf_bench, do not build")
    args = parser.parse_args()
    if not (args.smoke or args.make_reference) and (
            args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = args.binary or build()
    if args.make_reference:
        return make_reference(
            binary, REFERENCE_SEED if args.seed is None else args.seed)
    with open(REFERENCE) as f:
        reference = json.load(f)
    if args.smoke:
        return smoke(binary, spec, reference)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: measure(binary, spec, reference, w, args.seed,
                          args.seconds, args.trace == 1) for w in workloads}
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
