#include "resolver/cluster.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace dnsnoise {

RdnsCluster::RdnsCluster(const ClusterConfig& config,
                         const SyntheticAuthority& authority)
    : authority_(authority), taps_(names_) {
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

void RdnsCluster::remove_tap_observer(TapObserver* observer) {
  flush_taps();
  taps_.remove_observer(observer);
}

void RdnsCluster::flush_taps() {
  if (tap_batch_size_ != nullptr && taps_.pending() != 0) {
    tap_batch_size_->record(taps_.pending());
  }
  taps_.flush();
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

  // One intern per query: the id keys the cache, the authority's answer
  // and the tap events, so the name bytes are hashed once here and never
  // again on this query's path.
  const NameId qid = names_.intern(qname);
  const CachedAnswer* cached = cache.lookup(qid, question.type, now);
  if (cached != nullptr) {
    view.rcode = cached->rcode;
    view.cache_hit = true;
    view.answers = cached->answers.span();
    if (metrics != nullptr) metrics->cache_hits->add();
  } else {
    // Cache miss: iterate to the authority; its answer is observed above.
    authority_.resolve(question, qid, now, upstream_);
    view.rcode = upstream_.rcode;
    ++above_answers_;
    if (metrics != nullptr) {
      metrics->cache_misses->add();
      above_answers_metric_->add();
    }
    if (upstream_.rcode == RCode::NoError) {
      ++answered_misses_;
      if (upstream_.disposable_zone) ++disposable_answered_misses_;
    }
    if (upstream_.dnssec_signed && upstream_.rcode == RCode::NoError) {
      ++dnssec_validations_;
      if (upstream_.disposable_zone) ++dnssec_disposable_validations_;
    }
    if (taps_.observed() &&
        taps_.push(now, TapDirection::kAbove, 0, qid, question.type,
                   upstream_.rcode, upstream_.records())) {
      flush_taps();
    }
    const CachedAnswer* resident = nullptr;
    if (upstream_.rcode == RCode::NoError) {
      resident = cache.insert_positive(qid, question.type, upstream_.records(),
                                       now, upstream_.disposable_zone);
    } else if (upstream_.rcode == RCode::NXDomain) {
      cache.insert_negative(qid, question.type, now);
    }
    // Uncacheable (zero TTL / empty / error): the view aliases the answer
    // buffer, which lives until the next miss.
    view.answers = resident != nullptr ? resident->answers.span()
                                       : upstream_.records();
  }

  ++below_answers_;
  if (metrics != nullptr) {
    below_answers_metric_->add();
    if (view.rcode == RCode::NXDomain) metrics->nxdomain->add();
  }
  if (taps_.observed() &&
      taps_.push(now, TapDirection::kBelow, client_id, qid, question.type,
                 view.rcode, view.answers)) {
    flush_taps();
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

DnsCacheStats RdnsCluster::aggregate_stats() const {
  DnsCacheStats total;
  for (const DnsCache& cache : caches_) accumulate(total, cache.stats());
  return total;
}

}  // namespace dnsnoise
