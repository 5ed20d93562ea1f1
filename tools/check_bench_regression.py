#!/usr/bin/env python3
"""Fail CI when a benchmark rate drops too far below the committed baseline.

Compares one or more rate keys between the committed BENCH_fabric.json and a
freshly measured run. A key regresses when fresh < (1 - max_drop) * baseline.
Rates above baseline never fail (faster is fine; shared-runner noise mostly
errs slow).

Absolute floors gate keys that carry a hard invariant rather than a relative
rate — e.g. BENCH_fault.json's fault_deterministic flag must stay 1 and
BENCH_phy.json's BM_Fft1024 rate must stay above its SIMD speedup floor.
Absolute ceilings (--max-value) gate
counters that must stay at or below a bound — e.g. BENCH_fault.json's
fault_zero_fault_mismatch must stay 0 (the zero-fault inertness contract).
A --min-value/--max-value key missing from the fresh run fails (the
invariant was not measured at all).

Usage:
  tools/check_bench_regression.py --baseline BENCH_fabric.json \
      --fresh BENCH_fabric.ci.json --key BM_DspCoreRunBlock_items_per_s \
      [--key ...] [--max-drop 0.10]
  tools/check_bench_regression.py --fresh BENCH_scenarios.ci.json \
      --min-value scenarios_deterministic=1
  tools/check_bench_regression.py --fresh BENCH_fault.ci.json \
      --min-value fault_deterministic=1 --max-value fault_zero_fault_mismatch=0
"""
import argparse
import json
import sys


def parse_bound(spec: str):
    key, sep, bound = spec.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=BOUND, got {spec!r}")
    try:
        return key, float(bound)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bound must be a number, got {bound!r}") from exc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--key", action="append", default=[])
    parser.add_argument("--max-drop", type=float, default=0.10)
    parser.add_argument("--min-value", action="append", default=[],
                        type=parse_bound, metavar="KEY=FLOOR",
                        help="fail unless fresh[KEY] >= FLOOR")
    parser.add_argument("--max-value", action="append", default=[],
                        type=parse_bound, metavar="KEY=CEILING",
                        help="fail unless fresh[KEY] <= CEILING")
    args = parser.parse_args()

    if args.key and not args.baseline:
        parser.error("--key requires --baseline")
    if not args.key and not args.min_value and not args.max_value:
        parser.error(
            "nothing to check: pass --key, --min-value and/or --max-value")

    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failed = False
    for key in args.key:
        if key not in baseline:
            print(f"[skip] {key}: not in baseline (new benchmark?)")
            continue
        if key not in fresh:
            print(f"[FAIL] {key}: missing from fresh run")
            failed = True
            continue
        base, now = float(baseline[key]), float(fresh[key])
        if base <= 0:
            print(f"[skip] {key}: baseline rate is {base}")
            continue
        ratio = now / base
        floor = 1.0 - args.max_drop
        status = "FAIL" if ratio < floor else "ok"
        print(f"[{status}] {key}: baseline {base:.4g}, fresh {now:.4g} "
              f"({ratio * 100.0:.1f}% of baseline, floor {floor * 100.0:.0f}%)")
        failed = failed or ratio < floor

    for key, floor in args.min_value:
        if key not in fresh:
            print(f"[FAIL] {key}: missing from fresh run (floor {floor:g})")
            failed = True
            continue
        now = float(fresh[key])
        status = "FAIL" if now < floor else "ok"
        print(f"[{status}] {key}: fresh {now:.4g}, floor {floor:g}")
        failed = failed or now < floor

    for key, ceiling in args.max_value:
        if key not in fresh:
            print(f"[FAIL] {key}: missing from fresh run (ceiling {ceiling:g})")
            failed = True
            continue
        now = float(fresh[key])
        status = "FAIL" if now > ceiling else "ok"
        print(f"[{status}] {key}: fresh {now:.4g}, ceiling {ceiling:g}")
        failed = failed or now > ceiling

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
