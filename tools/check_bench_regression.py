#!/usr/bin/env python3
"""Gate benchmark throughput regressions from BENCH_*.json snapshots.

Compares the ``*_per_sec`` gauges of a current dnsnoise-metrics bench
snapshot (written by bench/micro_throughput or bench/fig02_traffic_volume)
against a committed baseline.  Both schema versions are accepted: the gate
reads only the "gauges" section, which dnsnoise-metrics-v1 and -v2 share,
so v1 baselines keep gating v2 runs.  Higher is better; a gauge that dropped by
more than ``--threshold`` (default 30%) fails the check.

``*_allocs_per_query`` gauges are gated the other way round: lower is
better, and growth beyond ``--alloc-threshold`` (default 20%) fails.
Because the healthy steady-state value is exactly zero, the relative test
alone would flag any nonzero noise, so ``--alloc-slack`` (default 0.05
allocations/query) is added as an absolute allowance before the ratio is
judged.

``*_latency_seconds`` gauges (bench/fig_loadgen percentiles, the server
bench's closed-loop RTTs) are likewise lower-is-better: growth beyond
``--latency-threshold`` (default 100%) fails, after an absolute
``--latency-slack`` allowance (default 2ms) that keeps microsecond-scale
loopback baselines from flagging on scheduler noise.

Gauges present on only one side are reported but never fail the check:
benchmarks come and go, and machine differences are judged only on the
ratio of matched gauges.  A missing baseline file skips the check with
exit 0 so fresh branches don't need one.  A missing or malformed
*current* file is always an error (exit 2): that means the benchmark
itself broke, and skipping would silently disable the gate.  Likewise a
current snapshot with no gated gauges at all while the baseline has some
exits 2 — an empty comparison must not read as a pass — and so does a
run where current and baseline share *zero* gauge names: every
comparison would be a "not gating" note, which must not count as green.

``--floor NAME=VALUE`` (repeatable) adds an absolute lower bound on a
current gauge, independent of the baseline ratio.  Relative thresholds
absorb slow CI machines, but a served-queries bench that collapses to a
crawl should fail even against a generous baseline; the floor is the
backstop.  A floor naming a gauge the current run did not produce is
exit 2 — the bench stopped emitting the gauge, not a pass.

``--min-ratio NUM/DEN=FLOOR`` (repeatable) bounds the ratio of two
current gauges from below, e.g. a thread-scaling speedup
``bench.BM_EngineDay.4.real_time.items_per_sec/bench.BM_EngineDay.1.
real_time.items_per_sec=1.15``.  A ratio of one run's gauges carries
across hosts where absolute throughput does not.  A ratio below its floor
is a regression (exit 1); a ratio naming a gauge the current run did not
produce, or whose denominator is not positive, is exit 2.

Every failure message names the baseline file path, not just the gauge:
when a legitimate performance change moves a number, the remedy is
re-recording exactly that file, and the CI log should say which one.

Exit codes: 0 ok/skipped, 1 regression found, 2 missing/malformed input.
"""

import argparse
import json
import sys

SCHEMAS = ("dnsnoise-metrics-v1", "dnsnoise-metrics-v2")


def load_gauges(path, suffix):
    """Returns {name: value} for gauges of one snapshot ending in suffix."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") not in SCHEMAS:
        raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        raise ValueError(f"{path}: missing gauges section")
    # A NaN gauge serializes as JSON null (obs/json_writer); treat it as
    # absent rather than crashing the gate on float(None).
    return {
        name: float(value)
        for name, value in gauges.items()
        if name.endswith(suffix)
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--alloc-threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional allocs_per_query growth "
        "(default 0.20)",
    )
    parser.add_argument(
        "--alloc-slack",
        type=float,
        default=0.05,
        help="absolute allocs/query allowance before the growth ratio is "
        "judged, so ~zero baselines don't flag on noise (default 0.05)",
    )
    parser.add_argument(
        "--latency-threshold",
        type=float,
        default=1.0,
        help="maximum tolerated fractional latency growth (default 1.0, "
        "i.e. a doubling)",
    )
    parser.add_argument(
        "--latency-slack",
        type=float,
        default=0.002,
        help="absolute seconds allowance before the latency growth ratio "
        "is judged, so microsecond baselines don't flag on noise "
        "(default 0.002)",
    )
    parser.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="absolute lower bound on a current gauge, judged in addition "
        "to the baseline ratio (repeatable); a floor whose gauge is "
        "absent from the current run is an error",
    )
    parser.add_argument(
        "--min-ratio",
        action="append",
        default=[],
        metavar="NUM/DEN=FLOOR",
        help="lower bound on the ratio of two current gauges (repeatable); "
        "a ratio naming an absent gauge is an error",
    )
    args = parser.parse_args()

    ratios = []
    for spec in args.min_ratio:
        names, sep, value = spec.rpartition("=")
        numerator, slash, denominator = names.partition("/")
        try:
            if not sep or not slash or not numerator or not denominator:
                raise ValueError("expected NUM/DEN=FLOOR")
            ratios.append((numerator, denominator, float(value)))
        except ValueError as err:
            print(f"error: bad --min-ratio {spec!r}: {err}")
            return 2

    floors = {}
    for spec in args.floor:
        name, sep, value = spec.partition("=")
        try:
            if not sep:
                raise ValueError("expected NAME=VALUE")
            floors[name] = float(value)
        except ValueError as err:
            print(f"error: bad --floor {spec!r}: {err}")
            return 2

    try:
        current = load_gauges(args.current, "_per_sec")
        current_allocs = load_gauges(args.current, "allocs_per_query")
        current_latency = load_gauges(args.current, "_latency_seconds")
        current_all = load_gauges(args.current, "")
    except FileNotFoundError:
        print(f"error: current snapshot {args.current} not found "
              "(did the benchmark run fail before writing it?)")
        return 2
    except (ValueError, json.JSONDecodeError) as err:
        print(f"error: current snapshot is unusable: {err}")
        return 2

    try:
        baseline = load_gauges(args.baseline, "_per_sec")
        baseline_allocs = load_gauges(args.baseline, "allocs_per_query")
        baseline_latency = load_gauges(args.baseline, "_latency_seconds")
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; skipping regression check")
        return 0
    except (ValueError, json.JSONDecodeError) as err:
        print(f"error: baseline snapshot is unusable: {err}")
        return 2

    if not baseline and not baseline_allocs and not baseline_latency:
        print(f"baseline {args.baseline} has no gated gauges; skipping")
        return 0
    if not current and not current_allocs and not current_latency:
        print(f"error: current snapshot {args.current} has no gated "
              f"gauges while baseline {args.baseline} has "
              f"{len(baseline) + len(baseline_allocs) + len(baseline_latency)}"
              "; the benchmark output changed shape or was truncated")
        return 2
    matched = ((set(baseline) & set(current)) |
               (set(baseline_allocs) & set(current_allocs)) |
               (set(baseline_latency) & set(current_latency)))
    if not matched:
        print(f"error: current snapshot {args.current} and baseline "
              f"{args.baseline} share no gauge names; every comparison "
              "would be skipped, which must not read as a pass")
        return 2

    regressions = []
    for name in sorted(floors):
        if name not in current_all:
            print(f"error: --floor gauge {name} is absent from the "
                  f"current snapshot {args.current}; the benchmark "
                  "stopped emitting it")
            return 2
        value, floor = current_all[name], floors[name]
        status = "ok"
        if value < floor:
            status = "REGRESSION"
            regressions.append(
                f"{name} ({value:,.0f} below absolute floor {floor:,.0f}; "
                f"baseline file: {args.baseline})")
        print(f"{status:>10}  {name}: {value:,.0f} (floor {floor:,.0f})")
    for numerator, denominator, floor in ratios:
        missing = [name for name in (numerator, denominator)
                   if name not in current_all]
        if missing:
            print(f"error: --min-ratio gauge {missing[0]} is absent from "
                  f"the current snapshot {args.current}; the benchmark "
                  "stopped emitting it")
            return 2
        if current_all[denominator] <= 0:
            print(f"error: --min-ratio denominator {denominator} is "
                  f"{current_all[denominator]} in {args.current}")
            return 2
        ratio = current_all[numerator] / current_all[denominator]
        status = "ok"
        if ratio < floor:
            status = "REGRESSION"
            regressions.append(
                f"{numerator} / {denominator} ({ratio:.3f} below floor "
                f"{floor:.3f}; baseline file: {args.baseline})")
        print(f"{status:>10}  {numerator} / {denominator}: {ratio:.3f} "
              f"(floor {floor:.3f})")
    for name in sorted(baseline):
        if name not in current:
            print(f"note: {name} missing from current run (not gating)")
            continue
        before, after = baseline[name], current[name]
        if before <= 0:
            print(f"note: {name} baseline is {before}; skipping")
            continue
        change = after / before - 1.0
        status = "ok"
        if change < -args.threshold:
            status = "REGRESSION"
            regressions.append(
                f"{name} ({before:,.0f} -> {after:,.0f}, {change:+.1%}, "
                f"limit -{args.threshold:.0%}; "
                f"baseline file: {args.baseline})")
        print(f"{status:>10}  {name}: {before:,.0f} -> {after:,.0f} "
              f"({change:+.1%})")
    # Lower-is-better gauges: an alloc crept back into a zero-alloc path.
    for name in sorted(baseline_allocs):
        if name not in current_allocs:
            print(f"note: {name} missing from current run (not gating)")
            continue
        before, after = baseline_allocs[name], current_allocs[name]
        limit = before * (1.0 + args.alloc_threshold) + args.alloc_slack
        status = "ok"
        if after > limit:
            status = "REGRESSION"
            regressions.append(
                f"{name} ({before:.3f} -> {after:.3f} allocs/query, "
                f"limit {limit:.3f}; baseline file: {args.baseline})")
        print(f"{status:>10}  {name}: {before:.3f} -> {after:.3f} "
              f"allocs/query (limit {limit:.3f})")
    # Lower-is-better gauges: latency percentiles must not balloon.
    for name in sorted(baseline_latency):
        if name not in current_latency:
            print(f"note: {name} missing from current run (not gating)")
            continue
        before, after = baseline_latency[name], current_latency[name]
        limit = before * (1.0 + args.latency_threshold) + args.latency_slack
        status = "ok"
        if after > limit:
            status = "REGRESSION"
            regressions.append(
                f"{name} ({before:.6f}s -> {after:.6f}s, "
                f"limit {limit:.6f}s; baseline file: {args.baseline})")
        print(f"{status:>10}  {name}: {before:.6f}s -> {after:.6f}s "
              f"(limit {limit:.6f}s)")
    for name in sorted((set(current) - set(baseline)) |
                       (set(current_allocs) - set(baseline_allocs)) |
                       (set(current_latency) - set(baseline_latency))):
        print(f"note: {name} is new (no baseline; not gating)")

    if regressions:
        # Name the baseline file in the failure summary too: the fix for a
        # legitimate speedup/slowdown is editing exactly that file, and CI
        # logs are where people go looking for which one.
        print(f"\n{len(regressions)} gauge(s) regressed "
              f"(baseline: {args.baseline}):")
        for detail in regressions:
            print(f"  {detail}")
        return 1
    print("\nno regressions beyond thresholds "
          f"(throughput -{args.threshold:.0%}, "
          f"allocs +{args.alloc_threshold:.0%}+{args.alloc_slack}, "
          f"latency +{args.latency_threshold:.0%}+{args.latency_slack}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
