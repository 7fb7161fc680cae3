#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {
namespace {

/// FNV-1a over the bytes fed to it.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void text(const std::string& s) {
    bytes(s.data(), s.size());
    u64(s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string to_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t findings_digest(const dnsnoise::MiningDayResult& result) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(result.status));
  h.u64(result.findings.size());
  for (const dnsnoise::DisposableZoneFinding& f : result.findings) {
    h.text(f.zone);
    h.u64(f.depth);
    h.f64(f.confidence);
    h.u64(f.group_size);
  }
  const dnsnoise::MiningEvaluation& e = result.evaluation;
  h.u64(e.findings);
  h.u64(e.true_positive_findings);
  h.u64(e.false_positive_findings);
  h.u64(e.unique_2lds);
  h.u64(e.truth_zones_discovered);
  // Ordered copy: the evaluation keeps archetypes in a hash map.
  const std::map<std::string, std::size_t> by_archetype(
      e.discovered_by_archetype.begin(), e.discovered_by_archetype.end());
  for (const auto& [archetype, count] : by_archetype) {
    h.text(archetype);
    h.u64(count);
  }
  const dnsnoise::DayAggregates& a = result.aggregates;
  h.u64(a.unique_queried);
  h.u64(a.unique_resolved);
  h.u64(a.unique_rrs);
  h.u64(a.disposable_queried);
  h.u64(a.disposable_resolved);
  h.u64(a.disposable_rrs);
  return h.value();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
