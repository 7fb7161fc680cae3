#!/usr/bin/env python3
"""Exit-code contract tests for tools/check_bench_regression.py.

Runs the gate as a subprocess against generated fixture snapshots and
asserts the documented exit codes: 0 ok/skipped, 1 regression found,
2 missing/malformed input.  Registered with ctest as
``tools.check_bench_regression``.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


def snapshot(gauges):
    return {"schema": "dnsnoise-metrics-v1", "counters": {},
            "gauges": gauges, "timers": {}}


def snapshot_v2(gauges):
    """A dnsnoise-metrics-v2 snapshot: same gauges section, timers and
    histograms reshaped around the one histogram type."""
    return {"schema": "dnsnoise-metrics-v2", "counters": {},
            "gauges": gauges,
            "timers": {"miner.mine": {
                "count": 1, "total_seconds": 0.5, "min_seconds": 0.5,
                "max_seconds": 0.5, "p50_seconds": 0.5, "p90_seconds": 0.5,
                "p99_seconds": 0.5, "p999_seconds": 0.5}},
            "histograms": {"server.latency.total_ns": {
                "count": 2, "total": 3000, "min": 1000, "max": 2000,
                "p50": 1000, "p90": 2000, "p99": 2000, "p999": 2000}}}


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name, doc=None, raw=None):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            if raw is not None:
                fh.write(raw)
            else:
                json.dump(doc, fh)
        return path

    def run_gate(self, current, baseline, *extra):
        result = subprocess.run(
            [sys.executable, GATE, current, baseline, *extra],
            capture_output=True, text=True)
        return result.returncode, result.stdout

    def test_no_regression_passes(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)

    def test_throughput_drop_beyond_threshold_fails(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 500.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_drop_within_threshold_passes(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 800.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_custom_threshold_is_honored(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 800.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, _ = self.run_gate(current, baseline, "--threshold", "0.10")
        self.assertEqual(code, 1)

    def test_alloc_growth_fails(self):
        current = self.path("current.json",
                            snapshot({"a.allocs_per_query": 0.5}))
        baseline = self.path("baseline.json",
                             snapshot({"a.allocs_per_query": 0.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("allocs/query", out)

    def test_alloc_slack_absorbs_noise(self):
        current = self.path("current.json",
                            snapshot({"a.allocs_per_query": 0.04}))
        baseline = self.path("baseline.json",
                             snapshot({"a.allocs_per_query": 0.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_latency_growth_beyond_threshold_fails(self):
        # Lower is better: p99 quadrupling past slack+ratio must fail.
        current = self.path(
            "current.json",
            snapshot({"loadgen.open.p99_latency_seconds": 0.400}))
        baseline = self.path(
            "baseline.json",
            snapshot({"loadgen.open.p99_latency_seconds": 0.100}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("p99_latency_seconds", out)

    def test_latency_growth_within_threshold_passes(self):
        current = self.path(
            "current.json",
            snapshot({"loadgen.open.p99_latency_seconds": 0.150}))
        baseline = self.path(
            "baseline.json",
            snapshot({"loadgen.open.p99_latency_seconds": 0.100}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_latency_slack_absorbs_microsecond_noise(self):
        # 50us -> 1.5ms is a 30x ratio but within the 2ms absolute slack:
        # loopback-scale baselines must not flag on scheduler noise.
        current = self.path(
            "current.json",
            snapshot({"server.wire_p99_latency_seconds": 0.0015}))
        baseline = self.path(
            "baseline.json",
            snapshot({"server.wire_p99_latency_seconds": 0.00005}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_latency_improvement_never_gates(self):
        current = self.path(
            "current.json",
            snapshot({"loadgen.closed.p50_latency_seconds": 0.010}))
        baseline = self.path(
            "baseline.json",
            snapshot({"loadgen.closed.p50_latency_seconds": 0.500}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_custom_latency_threshold_is_honored(self):
        current = self.path(
            "current.json",
            snapshot({"loadgen.open.p999_latency_seconds": 0.160}))
        baseline = self.path(
            "baseline.json",
            snapshot({"loadgen.open.p999_latency_seconds": 0.100}))
        code, _ = self.run_gate(current, baseline,
                                "--latency-threshold", "0.25")
        self.assertEqual(code, 1)

    def test_latency_only_snapshots_still_gate(self):
        # A snapshot whose only gated gauges are latency percentiles must
        # count as gated (not "no gated gauges" / "share no names").
        current = self.path(
            "current.json",
            snapshot({"loadgen.open.p99_latency_seconds": 0.100}))
        baseline = self.path(
            "baseline.json",
            snapshot({"loadgen.open.p99_latency_seconds": 0.100}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)

    def test_missing_baseline_skips_with_zero(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(
            current, os.path.join(self.dir.name, "absent.json"))
        self.assertEqual(code, 0, out)
        self.assertIn("skipping", out)

    def test_missing_current_errors(self):
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(
            os.path.join(self.dir.name, "absent.json"), baseline)
        self.assertEqual(code, 2, out)

    def test_malformed_current_errors(self):
        current = self.path("current.json", raw="{not json")
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 2, out)

    def test_wrong_schema_errors(self):
        current = self.path(
            "current.json",
            {"schema": "something-else", "gauges": {}})
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 2, out)

    def test_v2_current_against_v1_baseline_passes(self):
        # Committed baselines stay v1: the gate reads gauges only, and
        # that section is the same in both versions.
        current = self.path("current.json",
                            snapshot_v2({"a.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)

    def test_v2_current_against_v1_baseline_still_gates(self):
        current = self.path("current.json",
                            snapshot_v2({"a.events_per_sec": 500.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 1, out)

    def test_v2_against_v2_gates_latency(self):
        current = self.path(
            "current.json",
            snapshot_v2({"loadgen.open.p99_latency_seconds": 0.900}))
        baseline = self.path(
            "baseline.json",
            snapshot_v2({"loadgen.open.p99_latency_seconds": 0.100}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 1, out)

    def test_unknown_metrics_version_errors(self):
        current = self.path(
            "current.json",
            {"schema": "dnsnoise-metrics-v3",
             "gauges": {"a.events_per_sec": 1000.0}})
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 2, out)

    def test_empty_current_against_populated_baseline_errors(self):
        current = self.path("current.json", snapshot({}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 1000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 2, out)
        self.assertIn("no gated", out)

    def test_gauge_only_on_one_side_never_gates(self):
        current = self.path(
            "current.json",
            snapshot({"a.events_per_sec": 1000.0,
                      "b.events_per_sec": 1.0}))
        baseline = self.path(
            "baseline.json",
            snapshot({"a.events_per_sec": 1000.0,
                      "c.events_per_sec": 9999.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("missing from current", out)
        self.assertIn("is new", out)

    def test_zero_name_overlap_errors(self):
        # Both sides have gated gauges but none in common: every check
        # would be a "not gating" note, which must not read as a pass.
        current = self.path("current.json",
                            snapshot({"b.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"c.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 2, out)
        self.assertIn("share no gauge names", out)

    def test_floor_pass(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline,
                                  "--floor", "a.events_per_sec=500")
        self.assertEqual(code, 0, out)
        self.assertIn("floor", out)

    def test_floor_violation_fails(self):
        # The ratio passes (current > baseline) but the absolute floor
        # still fails: floors are independent of the baseline.
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline,
                                  "--floor", "a.events_per_sec=5000")
        self.assertEqual(code, 1, out)
        self.assertIn("below absolute floor", out)

    def test_floor_gates_unsuffixed_gauges_too(self):
        current = self.path(
            "current.json",
            snapshot({"a.events_per_sec": 1000.0, "a.answered": 3.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline,
                                  "--floor", "a.answered=10")
        self.assertEqual(code, 1, out)

    def test_floor_on_missing_gauge_errors(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        code, out = self.run_gate(current, baseline,
                                  "--floor", "gone.events_per_sec=1")
        self.assertEqual(code, 2, out)
        self.assertIn("absent from the current snapshot", out)

    def test_malformed_floor_spec_errors(self):
        current = self.path("current.json",
                            snapshot({"a.events_per_sec": 1000.0}))
        baseline = self.path("baseline.json",
                             snapshot({"a.events_per_sec": 900.0}))
        for spec in ("no-equals", "a.events_per_sec=not-a-number"):
            code, out = self.run_gate(current, baseline, "--floor", spec)
            self.assertEqual(code, 2, (spec, out))

    def ratio_fixture(self, four, one):
        current = self.path(
            "current.json",
            snapshot({"d.4.items_per_sec": four, "d.1.items_per_sec": one}))
        baseline = self.path(
            "baseline.json",
            snapshot({"d.1.items_per_sec": one}))
        return current, baseline

    def test_min_ratio_pass(self):
        current, baseline = self.ratio_fixture(1800.0, 1000.0)
        code, out = self.run_gate(
            current, baseline,
            "--min-ratio", "d.4.items_per_sec/d.1.items_per_sec=1.15")
        self.assertEqual(code, 0, out)
        self.assertIn("1.800 (floor 1.150)", out)

    def test_min_ratio_below_floor_fails(self):
        # Both gauges are absent from the baseline: the ratio is judged on
        # the current run alone.
        current, baseline = self.ratio_fixture(1100.0, 1000.0)
        code, out = self.run_gate(
            current, baseline,
            "--min-ratio", "d.4.items_per_sec/d.1.items_per_sec=1.15")
        self.assertEqual(code, 1, out)
        self.assertIn("below floor", out)
        self.assertIn(baseline, out[out.index("gauge(s) regressed"):])

    def test_min_ratio_on_missing_gauge_errors(self):
        current, baseline = self.ratio_fixture(1800.0, 1000.0)
        for spec in ("gone.items_per_sec/d.1.items_per_sec=1.15",
                     "d.4.items_per_sec/gone.items_per_sec=1.15"):
            code, out = self.run_gate(current, baseline, "--min-ratio", spec)
            self.assertEqual(code, 2, (spec, out))
            self.assertIn("absent from the current snapshot", out)

    def test_min_ratio_with_zero_denominator_errors(self):
        current, baseline = self.ratio_fixture(1800.0, 0.0)
        code, out = self.run_gate(
            current, baseline,
            "--min-ratio", "d.4.items_per_sec/d.1.items_per_sec=1.15")
        self.assertEqual(code, 2, out)

    def test_malformed_min_ratio_spec_errors(self):
        current, baseline = self.ratio_fixture(1800.0, 1000.0)
        for spec in ("d.4.items_per_sec=1.15",
                     "d.4.items_per_sec/d.1.items_per_sec",
                     "/d.1.items_per_sec=1.15",
                     "d.4.items_per_sec/d.1.items_per_sec=fast"):
            code, out = self.run_gate(current, baseline, "--min-ratio", spec)
            self.assertEqual(code, 2, (spec, out))

    def test_failure_messages_name_the_baseline_file(self):
        # Every regression detail must cite the baseline file path so the
        # CI log says which file to re-record after a legitimate change.
        current = self.path(
            "current.json",
            snapshot({"a.events_per_sec": 100.0,
                      "a.allocs_per_query": 5.0,
                      "loadgen.open.p99_latency_seconds": 0.900}))
        baseline = self.path(
            "slow-baseline.json",
            snapshot({"a.events_per_sec": 1000.0,
                      "a.allocs_per_query": 0.0,
                      "loadgen.open.p99_latency_seconds": 0.100}))
        code, out = self.run_gate(current, baseline,
                                  "--floor", "a.events_per_sec=500")
        self.assertEqual(code, 1, out)
        summary = out[out.index("gauge(s) regressed"):]
        self.assertIn(baseline, summary)
        # All four regression kinds fired, and each detail line names the
        # baseline file, not just the gauge.
        details = [line for line in summary.splitlines()
                   if line.startswith("  ")]
        self.assertEqual(len(details), 4, out)
        for detail in details:
            self.assertIn(baseline, detail, detail)

    def test_null_gauges_are_ignored(self):
        # A NaN gauge serializes as JSON null; the gate must not crash
        # and must not gate on it.
        current = self.path(
            "current.json",
            snapshot({"a.events_per_sec": 1000.0,
                      "b.events_per_sec": None}))
        baseline = self.path(
            "baseline.json",
            snapshot({"a.events_per_sec": 900.0,
                      "b.events_per_sec": 5000.0}))
        code, out = self.run_gate(current, baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("missing from current", out)


if __name__ == "__main__":
    unittest.main()
