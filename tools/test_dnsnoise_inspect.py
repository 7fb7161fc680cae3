#!/usr/bin/env python3
"""Contract tests for tools/dnsnoise-inspect's metrics and trace views.

Runs the tool as a subprocess against fixture snapshots of both metrics
schema versions and of a dnsnoise-trace-v1 export, and loads it as a
module to check the OpenMetrics parse-back on an exposition in the
obs/openmetrics layout.  Registered with ctest as
``tools.dnsnoise_inspect``.
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "dnsnoise-inspect")


def load_tool():
    loader = importlib.machinery.SourceFileLoader("dnsnoise_inspect", TOOL)
    spec = importlib.util.spec_from_loader("dnsnoise_inspect", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


V1 = {
    "schema": "dnsnoise-metrics-v1",
    "counters": {"server.queries": 1000},
    "gauges": {"loadgen.open.p99_latency_seconds": 0.002},
    "timers": {"miner.mine": {"count": 1, "total_seconds": 0.5,
                              "min_seconds": 0.5, "max_seconds": 0.5}},
    "histograms": {"server.latency.total_ns": {
        "count": 1000, "zero_count": 0, "p50": 31000.0, "p90": 40000.0,
        "p99": 61000.0, "p999": 90000.0,
        "bins": [{"lo": 17782.8, "hi": 31622.8, "count": 500},
                 {"lo": 31622.8, "hi": 100000.0, "count": 500}]}},
}

V2 = {
    "schema": "dnsnoise-metrics-v2",
    "counters": {"server.queries": 1200},
    "gauges": {"loadgen.open.p99_latency_seconds": 0.001},
    "timers": {"miner.mine": {
        "count": 1, "total_seconds": 0.25, "min_seconds": 0.25,
        "max_seconds": 0.25, "p50_seconds": 0.25, "p90_seconds": 0.25,
        "p99_seconds": 0.25, "p999_seconds": 0.25}},
    "histograms": {"server.latency.total_ns": {
        "count": 1200, "total": 30000000, "min": 9000, "max": 95000,
        "p50": 24500.0, "p90": 38000.0, "p99": 52000.0, "p999": 88000.0}},
}

EXPOSITION = """\
# TYPE dnsnoise_telemetry info
dnsnoise_telemetry_info{schema="dnsnoise-openmetrics-v2"} 1
# TYPE dnsnoise_cluster_tap_batch_size histogram
dnsnoise_cluster_tap_batch_size_bucket{le="32"} 1
dnsnoise_cluster_tap_batch_size_bucket{le="512"} 3
dnsnoise_cluster_tap_batch_size_bucket{le="+Inf"} 3
dnsnoise_cluster_tap_batch_size_sum 520
dnsnoise_cluster_tap_batch_size_count 3
# TYPE dnsnoise_cluster_tap_batch_size_percentile gauge
dnsnoise_cluster_tap_batch_size_percentile{p="50"} 256
dnsnoise_cluster_tap_batch_size_percentile{p="90"} 256
dnsnoise_cluster_tap_batch_size_percentile{p="99"} 256
dnsnoise_cluster_tap_batch_size_percentile{p="99.9"} 256
# TYPE dnsnoise_miner_findings counter
dnsnoise_miner_findings_total 14
# TYPE dnsnoise_miner_mine_seconds histogram
dnsnoise_miner_mine_seconds_bucket{le="0.536870912"} 1
dnsnoise_miner_mine_seconds_bucket{le="+Inf"} 1
dnsnoise_miner_mine_seconds_sum 0.5
dnsnoise_miner_mine_seconds_count 1
# TYPE dnsnoise_miner_mine_seconds_percentile gauge
dnsnoise_miner_mine_seconds_percentile{p="50"} 0.5
dnsnoise_miner_mine_seconds_percentile{p="90"} 0.5
dnsnoise_miner_mine_seconds_percentile{p="99"} 0.5
dnsnoise_miner_mine_seconds_percentile{p="99.9"} 0.5
# TYPE dnsnoise_obs_run_active gauge
dnsnoise_obs_run_active 0
# EOF
"""

# The obs/trace_export layout: a 2.5 us cluster query span on shard 1, a
# 1 ms engine merge span, and one miner instant.
TRACE = {
    "schema": "dnsnoise-trace-v1",
    "displayTimeUnit": "ms",
    "meta": {"dropped_events": "0", "ring_capacity": "32768",
             "sample_every_n": "64"},
    "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
         "args": {"name": "cluster"}},
        {"name": "thread_name", "ph": "M", "pid": 2, "tid": 1,
         "args": {"name": "shard1"}},
        {"name": "cluster.query", "cat": "cluster", "ph": "X",
         "ts": 1234.567, "dur": 2.5, "pid": 2, "tid": 1,
         "args": {"label": "x.ads.example", "qtype": 1, "outcome": "miss",
                  "id": 42}},
        {"name": "engine.merge", "cat": "engine", "ph": "X", "ts": 5000.0,
         "dur": 1000.0, "pid": 3, "tid": 0},
        {"name": "miner.decolor", "cat": "miner", "ph": "i", "s": "t",
         "ts": 9000.0, "pid": 4, "tid": 0,
         "args": {"label": "ads.example", "id": 17}},
    ],
}


class InspectTestCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run_tool(self, *args):
        result = subprocess.run([sys.executable, TOOL, *args],
                                capture_output=True, text=True)
        return result.returncode, result.stdout + result.stderr


class InspectMetricsTest(InspectTestCase):

    def test_summary_renders_v2_histograms(self):
        code, out = self.run_tool("summary", self.path("v2.json", V2))
        self.assertEqual(code, 0, out)
        self.assertIn("dnsnoise-metrics-v2", out)
        line = next(l for l in out.splitlines()
                    if "server.latency.total_ns" in l)
        self.assertIn("1,200 values", line)
        self.assertIn("total     30,000,000", line)
        self.assertIn("p50  24500.000", line)
        self.assertIn("p99  52000.000", line)
        timer = next(l for l in out.splitlines() if "miner.mine" in l)
        self.assertIn("p99 250000.000 us", timer)

    def test_summary_still_renders_v1(self):
        code, out = self.run_tool("summary", self.path("v1.json", V1))
        self.assertEqual(code, 0, out)
        line = next(l for l in out.splitlines()
                    if "server.latency.total_ns" in l)
        self.assertIn("p99  61000.000", line)

    def test_diff_v1_baseline_against_v2_snapshot(self):
        code, out = self.run_tool("diff", self.path("v1.json", V1),
                                  self.path("v2.json", V2))
        self.assertEqual(code, 0, out)
        self.assertIn("counter/server.queries", out)
        self.assertIn("histogram/server.latency.total_ns/p99", out)
        self.assertIn("timer/miner.mine", out)
        # The latency gauge shrank: a lower-is-better improvement.
        gauge = next(l for l in out.splitlines()
                     if "loadgen.open.p99_latency_seconds" in l)
        self.assertIn("(better)", gauge)
        # Fields only v2 carries show up as additions, not errors.
        self.assertIn("timer/miner.mine/p99_seconds", out)
        self.assertIn("only in current", out)

    def test_diff_metrics_against_trace_is_a_schema_mismatch(self):
        trace = {"schema": "dnsnoise-trace-v1", "traceEvents": []}
        code, out = self.run_tool("diff", self.path("v2.json", V2),
                                  self.path("trace.json", trace))
        self.assertEqual(code, 2, out)
        self.assertIn("schema mismatch", out)

    def test_unknown_metrics_version_is_rejected(self):
        doc = dict(V2, schema="dnsnoise-metrics-v9")
        code, out = self.run_tool("summary", self.path("v9.json", doc))
        self.assertEqual(code, 2, out)

    def test_openmetrics_parse_back_reads_histogram_families(self):
        doc = load_tool().parse_openmetrics(EXPOSITION, "scrape")
        self.assertEqual(doc["schema"], "dnsnoise-metrics-v2")
        self.assertEqual(doc["counters"], {"miner_findings": 14.0})
        # Timers are the _seconds histogram families.
        self.assertEqual(doc["timers"]["miner_mine"], {
            "total_seconds": 0.5, "count": 1.0, "p50_seconds": 0.5,
            "p90_seconds": 0.5, "p99_seconds": 0.5, "p999_seconds": 0.5})
        self.assertEqual(doc["histograms"]["cluster_tap_batch_size"], {
            "total": 520.0, "count": 3.0, "p50": 256.0, "p90": 256.0,
            "p99": 256.0, "p999": 256.0})
        # Buckets and the info series never leak into gauges.
        self.assertEqual(doc["gauges"], {"obs_run_active": 0.0})

    def test_parse_back_keeps_constant_labels_off_the_percentile_key(self):
        labelled = EXPOSITION.replace('{p="99"}', '{run="x",p="99"}')
        doc = load_tool().parse_openmetrics(labelled, "scrape")
        self.assertEqual(doc["timers"]["miner_mine"]["p99_seconds"], 0.5)


class InspectTraceTest(InspectTestCase):
    def summary(self, doc):
        code, out = self.run_tool("summary", self.path("trace.json", doc),
                                  "--top", "5")
        self.assertEqual(code, 0, out)
        return out.splitlines()

    def test_summary_groups_ops_under_their_stage(self):
        lines = self.summary(TRACE)
        breakdown = lines[lines.index("per-stage wall breakdown:") + 1:]
        stages = [i for i, l in enumerate(breakdown) if l.startswith("  [")]
        self.assertEqual([breakdown[i] for i in stages],
                         ["  [cluster]", "  [engine]", "  [miner]"])
        self.assertIn("cluster.query", breakdown[stages[0] + 1])
        self.assertIn("1 spans", breakdown[stages[0] + 1])
        self.assertIn("engine.merge", breakdown[stages[1] + 1])

    def test_summary_counts_instants(self):
        line = next(l for l in self.summary(TRACE) if "miner.decolor" in l)
        self.assertIn("1 instants", line)

    def test_summary_lists_the_slowest_span_first(self):
        lines = self.summary(TRACE)
        top = lines.index("top 2 slowest spans:")
        self.assertIn("engine.merge", lines[top + 1])
        self.assertIn("cluster.query", lines[top + 2])
        self.assertIn("x.ads.example", lines[top + 2])

    def test_summary_warns_only_when_events_were_dropped(self):
        self.assertFalse(any(l.startswith("warning:")
                             for l in self.summary(TRACE)))
        wrapped = dict(TRACE, meta=dict(TRACE["meta"], dropped_events="3"))
        warnings = [l for l in self.summary(wrapped)
                    if l.startswith("warning:")]
        self.assertEqual(len(warnings), 1)
        self.assertIn("ring buffer wrapped (3 events lost)", warnings[0])


if __name__ == "__main__":
    unittest.main()
