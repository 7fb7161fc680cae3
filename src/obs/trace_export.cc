#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "obs/json_writer.h"

namespace dnsnoise::obs {

namespace {

/// Nanoseconds as microseconds with fixed 3 decimals ("12.345"): full
/// resolution, byte-stable, and what Chrome's ts/dur expect.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

std::string_view outcome_name(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kNone: return "";
    case TraceOutcome::kHit: return "hit";
    case TraceOutcome::kMiss: return "miss";
    case TraceOutcome::kNxDomain: return "nxdomain";
  }
  return "";
}

/// One metadata event naming a pid (process_name) or tid (thread_name).
void append_meta_event(std::string& out, std::string_view meta_name, int pid,
                       std::uint32_t tid, std::string_view value,
                       bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "    {\"name\": \"";
  out += meta_name;
  out += "\", \"ph\": \"M\", \"pid\": " + std::to_string(pid) +
         ", \"tid\": " + std::to_string(tid) + ", \"args\": {\"name\": ";
  json_string(out, value);
  out += "}}";
}

void append_event(std::string& out, const TraceSnapshotEvent& entry,
                  bool& first) {
  if (!first) out += ",\n";
  first = false;
  const TraceEvent& event = entry.event;
  out += "    {\"name\": \"";
  out += trace_op_name(event.op);
  out += "\", \"cat\": \"";
  out += trace_stage_name(entry.stage);
  out += "\", \"ph\": \"";
  out += event.instant ? "i" : "X";
  out += '"';
  if (event.instant) out += ", \"s\": \"t\"";  // thread-scoped instant
  out += ", \"ts\": ";
  append_us(out, event.ts_ns);
  if (!event.instant) {
    out += ", \"dur\": ";
    append_us(out, event.dur_ns);
  }
  out += ", \"pid\": " + std::to_string(static_cast<int>(entry.stage)) +
         ", \"tid\": " + std::to_string(entry.shard);
  // args in fixed key order, unset keys omitted (stability contract).
  std::string args;
  if (event.label[0] != '\0') {
    args += "\"label\": ";
    json_string(args, event.label);
  }
  if (event.qtype != 0) {
    if (!args.empty()) args += ", ";
    args += "\"qtype\": " + std::to_string(event.qtype);
  }
  if (event.outcome != TraceOutcome::kNone) {
    if (!args.empty()) args += ", ";
    args += "\"outcome\": \"";
    args += outcome_name(event.outcome);
    args += '"';
  }
  if (event.id != kTraceNoId) {
    if (!args.empty()) args += ", ";
    args += "\"id\": " + std::to_string(event.id);
  }
  if (!args.empty()) out += ", \"args\": {" + args + "}";
  out += '}';
}

}  // namespace

std::string to_json(const TraceSnapshot& snapshot,
                    const std::map<std::string, std::string>& meta) {
  std::map<std::string, std::string> merged = meta;
  merged["sample_every_n"] = std::to_string(snapshot.config.sample_every_n);
  merged["ring_capacity"] = std::to_string(snapshot.config.ring_capacity);
  merged["dropped_events"] = std::to_string(snapshot.dropped);

  std::string out = "{\n  \"schema\": \"dnsnoise-trace-v1\",\n"
                    "  \"displayTimeUnit\": \"ms\",\n";
  json_key(out, 2, "meta");
  out += "{\n";
  bool first = true;
  for (const auto& [k, v] : merged) {
    if (!first) out += ",\n";
    first = false;
    json_key(out, 4, k);
    json_string(out, v);
  }
  out += "\n  },\n";
  json_key(out, 2, "traceEvents");
  out += "[\n";

  // Name every (stage, shard) lane first so viewers group lanes sensibly.
  first = true;
  std::set<int> pids_named;
  for (const TraceSnapshotEvent& entry : snapshot.events) {
    const int pid = static_cast<int>(entry.stage);
    if (pids_named.insert(pid).second) {
      append_meta_event(out, "process_name", pid, 0,
                        trace_stage_name(entry.stage), first);
    }
  }
  std::set<std::pair<int, std::uint32_t>> tids_named;
  for (const TraceSnapshotEvent& entry : snapshot.events) {
    const int pid = static_cast<int>(entry.stage);
    if (tids_named.insert({pid, entry.shard}).second) {
      append_meta_event(out, "thread_name", pid, entry.shard,
                        "shard" + std::to_string(entry.shard), first);
    }
  }
  for (const TraceSnapshotEvent& entry : snapshot.events) {
    append_event(out, entry, first);
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace dnsnoise::obs
