#include "resolver/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/sketch/traffic_sketch.h"

namespace dnsnoise {

RdnsCluster::RdnsCluster(const ClusterConfig& config,
                         const SyntheticAuthority& authority)
    : authority_(authority),
      tap_batch_events_(std::max<std::size_t>(config.tap_batch_events, 1)) {
  if (config.server_count == 0) {
    throw std::invalid_argument("RdnsCluster: server_count must be > 0");
  }
  caches_.reserve(config.server_count);
  for (std::size_t i = 0; i < config.server_count; ++i) {
    caches_.emplace_back(config.cache);
  }
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *config.metrics;
    server_metrics_.reserve(config.server_count);
    for (std::size_t i = 0; i < config.server_count; ++i) {
      const std::string prefix =
          "cluster.server" + std::to_string(config.metrics_server_base + i);
      server_metrics_.push_back({&metrics.counter(prefix + ".cache_hits"),
                                 &metrics.counter(prefix + ".cache_misses"),
                                 &metrics.counter(prefix + ".nxdomain")});
    }
    below_answers_metric_ = &metrics.counter("cluster.below_answers");
    above_answers_metric_ = &metrics.counter("cluster.above_answers");
    tap_batch_size_ = &metrics.histogram("cluster.tap_batch_size");
  }
  if (config.trace != nullptr) {
    trace_ = config.trace;
    server_trace_.reserve(config.server_count);
    for (std::size_t i = 0; i < config.server_count; ++i) {
      const auto server =
          static_cast<std::uint32_t>(config.metrics_server_base + i);
      // Sampling phase derives from the cluster's per-shard seed, so the
      // sampled query subset is fixed by (seed, server, query order) —
      // identical whichever thread runs the shard.
      server_trace_.push_back(
          {&trace_->stream(obs::TraceStage::kCluster, server),
           trace_->sampler(shard_seed(config.seed, server))});
    }
  }
}

RdnsCluster::~RdnsCluster() { flush_taps(); }

void RdnsCluster::add_tap_observer(TapObserver* observer) {
  if (observer == nullptr) {
    throw std::invalid_argument("RdnsCluster: null tap observer");
  }
  if (std::find(observers_.begin(), observers_.end(), observer) ==
      observers_.end()) {
    observers_.push_back(observer);
  }
}

void RdnsCluster::remove_tap_observer(TapObserver* observer) {
  flush_taps();
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void RdnsCluster::set_traffic_sketch(obs::TrafficSketch* sketch) {
  // Drain before swapping so each sketch sees exactly the queries served
  // while it was attached (same no-drop contract as remove_tap_observer).
  if (traffic_sketch_ != nullptr) traffic_sketch_->flush_pending();
  traffic_sketch_ = sketch;
  if (sketch == nullptr) return;
  std::vector<const NameTable*> tables;
  tables.reserve(caches_.size());
  for (const DnsCache& cache : caches_) tables.push_back(&cache.names());
  sketch->bind_sources(std::move(tables));
}

void RdnsCluster::flush_taps() {
  if (traffic_sketch_ != nullptr) traffic_sketch_->flush_pending();
  if (tap_event_count_ == 0) return;
  if (tap_batch_size_ != nullptr) tap_batch_size_->record(tap_event_count_);
  const TapBatch batch{std::span(tap_events_).first(tap_event_count_),
                       std::span(tap_answers_).first(tap_answer_count_)};
  for (TapObserver* observer : observers_) observer->on_tap_batch(batch);
  // Empty the batch but keep its slots for the next one to reuse.
  tap_event_count_ = 0;
  tap_answer_count_ = 0;
}

void RdnsCluster::buffer_tap_event(SimTime ts, TapDirection direction,
                                   std::uint64_t client_id,
                                   const Question& question, RCode rcode,
                                   std::span<const ResourceRecord> answers) {
  if (tap_event_count_ == tap_events_.size()) tap_events_.emplace_back();
  TapEvent& event = tap_events_[tap_event_count_++];
  event.ts = ts;
  event.direction = direction;
  event.client_id = client_id;
  event.rcode = rcode;
  event.question = question;
  event.answer_offset = static_cast<std::uint32_t>(tap_answer_count_);
  event.answer_count = static_cast<std::uint32_t>(answers.size());
  for (const ResourceRecord& rr : answers) {
    if (tap_answer_count_ == tap_answers_.size()) {
      tap_answers_.push_back(rr);
    } else {
      tap_answers_[tap_answer_count_] = rr;
    }
    ++tap_answer_count_;
  }
  if (tap_event_count_ >= tap_batch_events_) flush_taps();
}

QueryView RdnsCluster::query_view(std::uint64_t client_id,
                                  const Question& question, SimTime now) {
  QueryView view;
  view.server = pick_server(client_id);
  DnsCache& cache = caches_[view.server];
  const std::string& qname = question.name.text();

  ServerMetrics* const metrics =
      server_metrics_.empty() ? nullptr : &server_metrics_[view.server];
  // Deterministic head sampling: the per-server counter advances on every
  // query, so the traced subset is a pure function of the query order.
  ServerTrace* const trace =
      server_trace_.empty() ? nullptr : &server_trace_[view.server];
  const bool traced = trace != nullptr && trace->sampler.sample();
  const std::uint64_t trace_start = traced ? trace_->now_ns() : 0;

  // Traffic-sketch hook: intern the qname up front — one pass over the
  // name bytes, exactly what lookup()'s own probe costs — so the sketch
  // can be handed a table-stable id once the outcome is known.  The
  // interned probe reuses the stored hash instead of rehashing.
  obs::TrafficSketch* const sketch = traffic_sketch_;
  NameId sketch_name = kInvalidNameId;
  const CachedAnswer* cached;
  if (sketch == nullptr) {
    cached = cache.lookup(qname, question.type, now);
  } else {
    sketch_name = cache.intern_name(qname);
    cached = cache.lookup_interned(sketch_name, question.type, now);
  }
  if (cached != nullptr) {
    view.rcode = cached->rcode;
    view.cache_hit = true;
    view.answers = cached->answers;
    if (metrics != nullptr) metrics->cache_hits->add();
  } else {
    // Cache miss: iterate to the authority; its answer is observed above.
    AuthorityAnswer upstream = authority_.resolve(question, now);
    view.rcode = upstream.rcode;
    ++above_answers_;
    if (metrics != nullptr) {
      metrics->cache_misses->add();
      above_answers_metric_->add();
    }
    if (upstream.rcode == RCode::NoError) {
      ++answered_misses_;
      if (upstream.disposable_zone) ++disposable_answered_misses_;
    }
    if (upstream.dnssec_signed && upstream.rcode == RCode::NoError) {
      ++dnssec_validations_;
      if (upstream.disposable_zone) ++dnssec_disposable_validations_;
    }
    // Buffer the above-tap copy before the answers may be moved into the
    // cache below.
    if (!observers_.empty()) {
      buffer_tap_event(now, TapDirection::kAbove, 0, question, upstream.rcode,
                       upstream.answers);
    }
    const CachedAnswer* resident = nullptr;
    if (upstream.rcode == RCode::NoError) {
      resident = cache.insert_positive(qname, question.type, upstream.answers,
                                       now, upstream.disposable_zone);
    } else if (upstream.rcode == RCode::NXDomain) {
      cache.insert_negative(qname, question.type, now);
    }
    if (resident != nullptr) {
      view.answers = resident->answers;
    } else {
      // Uncacheable (zero TTL / empty / error): park the answers in the
      // scratch buffer so the view outlives `upstream`.
      miss_answers_ = std::move(upstream.answers);
      view.answers = miss_answers_;
    }
  }

  ++below_answers_;
  if (metrics != nullptr) {
    below_answers_metric_->add();
    if (view.rcode == RCode::NXDomain) metrics->nxdomain->add();
  }
  if (!observers_.empty()) {
    buffer_tap_event(now, TapDirection::kBelow, client_id, question,
                     view.rcode, view.answers);
  }
  if (sketch != nullptr && !qname.empty()) {
    sketch->observe(static_cast<std::uint32_t>(view.server), sketch_name,
                    client_id, view.rcode, now);
  }
  if (traced) {
    const obs::TraceOutcome outcome =
        view.rcode == RCode::NXDomain ? obs::TraceOutcome::kNxDomain
        : view.cache_hit              ? obs::TraceOutcome::kHit
                                      : obs::TraceOutcome::kMiss;
    trace->stream->span(obs::TraceOp::kClusterQuery, trace_start,
                        trace_->now_ns() - trace_start, qname,
                        static_cast<std::uint16_t>(question.type), outcome);
  }
  return view;
}

QueryOutcome RdnsCluster::query(std::uint64_t client_id,
                                const Question& question, SimTime now) {
  const QueryView view = query_view(client_id, question, now);
  QueryOutcome outcome;
  outcome.rcode = view.rcode;
  outcome.cache_hit = view.cache_hit;
  outcome.server = view.server;
  outcome.answers.assign(view.answers.begin(), view.answers.end());
  return outcome;
}

DnsCacheStats RdnsCluster::aggregate_stats() const {
  DnsCacheStats total;
  for (const DnsCache& cache : caches_) accumulate(total, cache.stats());
  return total;
}

}  // namespace dnsnoise
