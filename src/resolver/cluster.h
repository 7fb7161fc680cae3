// Recursive DNS server cluster simulator.
//
// Reproduces the paper's vantage point (Section III-A): client queries are
// load-balanced by client hash across a cluster of recursive servers, each
// with an independent cache.  Observers subscribe to the two answer streams the
// monitoring tap records — "below" (server -> client) and "above"
// (authority -> server) — and to nothing else, exactly like the paper's
// black-box view.  Delivery is batched through the TapObserver API (see
// resolver/tap.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"
#include "obs/trace.h"
#include "resolver/authority.h"
#include "resolver/dns_cache.h"
#include "resolver/tap.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace dnsnoise::obs {
class Counter;
class LatencyRecorder;
class MetricsRegistry;
}  // namespace dnsnoise::obs

namespace dnsnoise {

struct ClusterConfig {
  /// Servers, each with its own cache.  A client always reaches the same
  /// server, shard_of(client, server_count) (util/rng.h) — the typical
  /// anycast/load-balancer setup, and the split the engine shards by.
  std::size_t server_count = 4;
  DnsCacheConfig cache;
  /// Phase seed of the per-server trace sampling (see `trace`).
  std::uint64_t seed = 1;
  /// Opt-in observability sink (see DESIGN.md §10).  When set, the cluster
  /// registers per-server cache hit/miss/NXDOMAIN counters plus the
  /// tap-batch size histogram.  Must outlive the cluster.  Null = no
  /// instrumentation, no overhead beyond one branch per query.
  obs::MetricsRegistry* metrics = nullptr;
  /// Offset added to server indices in metric names: shard k of a sharded
  /// engine run is a 1-server cluster, but its metrics must land under
  /// cluster.server<k>, not cluster.server0.
  std::size_t metrics_server_base = 0;
  /// Opt-in event tracing (DESIGN.md §12).  When set, each server records
  /// head-sampled per-query spans (qname, qtype, hit/miss/NXDOMAIN) into
  /// the collector's cluster stream for that server index.  Sampling is
  /// deterministic per server, phase-seeded from `seed` — independent of
  /// thread count and of the simulation RNG streams.  Must outlive the
  /// cluster; null = no tracing, one predicted branch per query.
  obs::TraceCollector* trace = nullptr;

  /// The configuration of one shard of this cluster: a single-server slice
  /// whose seed is split off the cluster seed per shard index (never the
  /// shared seed itself — sibling shards must not correlate).  The engine
  /// builds one RdnsCluster per shard from these.
  ClusterConfig for_shard(std::size_t shard_index) const {
    ClusterConfig shard = *this;
    shard.server_count = 1;
    shard.seed = shard_seed(seed, shard_index);
    shard.metrics_server_base = metrics_server_base + shard_index;
    return shard;
  }
};

/// Result of one client query, as seen below the cluster: `answers` are
/// compact records whose ids resolve through RdnsCluster::names(), viewing
/// storage owned by the cluster (the resident cache entry, or the
/// cluster's answer buffer for an uncacheable miss).  The view stays valid
/// until the next query_view()/flush_taps() call on the same cluster.
/// Neither a hit nor a miss copies a record onto the heap.
struct QueryView {
  RCode rcode = RCode::NoError;
  bool cache_hit = false;
  std::size_t server = 0;
  std::span<const CompactRecord> answers;
};

class RdnsCluster {
 public:
  /// `authority` must outlive the cluster.
  RdnsCluster(const ClusterConfig& config, const SyntheticAuthority& authority);

  /// Destruction flushes any buffered tap events to the observers still
  /// registered (which must therefore outlive the cluster or be removed
  /// first).
  ~RdnsCluster();

  RdnsCluster(const RdnsCluster&) = delete;
  RdnsCluster& operator=(const RdnsCluster&) = delete;

  // --- Tap observation -----------------------------------------------------

  /// Registers `observer` for batched tap delivery.  The observer must stay
  /// valid until removed or until the cluster is destroyed.
  void add_tap_observer(TapObserver* observer) { taps_.add_observer(observer); }

  /// Flushes buffered events, then unregisters `observer`.  Unknown
  /// observers are ignored.
  void remove_tap_observer(TapObserver* observer);

  /// Delivers any buffered events to all observers immediately.  Call after
  /// the last query of a run so trailing events are not stuck in the batch.
  void flush_taps();

  /// Observers subscribed via add_tap_observer.
  std::size_t tap_observer_count() const noexcept {
    return taps_.observer_count();
  }

  /// Resolves one client query at simulated time `now` without copying
  /// answers: the qname is interned once into names(), on a cache hit the
  /// returned view aliases the resident cache entry, on a miss the
  /// authority writes into the cluster's answer buffer and the view
  /// aliases either the freshly inserted entry or that buffer (for
  /// uncacheable answers).  See QueryView for the lifetime contract.
  QueryView query_view(std::uint64_t client_id, const Question& question,
                       SimTime now);

  /// The one table of every qname, answer owner and text rdata this
  /// cluster has seen, shared by all its servers.  Append-only: ids and
  /// text views stay valid for the cluster's lifetime.  Not thread-safe
  /// against a concurrent query_view().
  const NameTable& names() const noexcept { return names_; }

  std::size_t server_count() const noexcept { return caches_.size(); }

  /// Cluster-wide aggregate of the per-server cache stats.
  DnsCacheStats aggregate_stats() const;

  std::uint64_t below_answers() const noexcept { return below_answers_; }
  std::uint64_t above_answers() const noexcept { return above_answers_; }

  /// DNSSEC cost counters (Section VI-B): every cache miss against a signed
  /// zone forces the validating resolver to verify one RRSIG chain; misses
  /// for disposable names are validations whose result is never reused.
  std::uint64_t dnssec_validations() const noexcept {
    return dnssec_validations_;
  }
  std::uint64_t dnssec_disposable_validations() const noexcept {
    return dnssec_disposable_validations_;
  }

  /// Successful cache misses (answered upstream), total and disposable:
  /// under *universal* DNSSEC deployment every such miss costs one
  /// validation, so these drive the Section VI-B what-if analysis.
  std::uint64_t answered_misses() const noexcept { return answered_misses_; }
  std::uint64_t disposable_answered_misses() const noexcept {
    return disposable_answered_misses_;
  }

 private:
  /// Per-server metric handles, resolved once at construction (registry
  /// lookups are mutex-guarded; query_view() must stay lock-free).
  struct ServerMetrics {
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* nxdomain = nullptr;
  };

  /// Per-server trace stream + deterministic query sampler, resolved once
  /// at construction (stream acquisition is mutex-guarded too).
  struct ServerTrace {
    obs::TraceStream* stream = nullptr;
    obs::TraceSampler sampler;
  };

  const SyntheticAuthority& authority_;
  NameTable names_;
  std::vector<DnsCache> caches_;
  // The authority writes each miss's answer here; it also backs the view
  // of an uncacheable answer (see QueryView lifetime contract).
  AuthorityAnswer upstream_{names_};
  // The pending tap batch and its observers.  Its answers are copies,
  // never views of a cache entry: a later query of the same batch may
  // expire and erase that entry before the batch is delivered.
  TapBuffer taps_;
  std::uint64_t below_answers_ = 0;
  std::uint64_t above_answers_ = 0;
  std::uint64_t dnssec_validations_ = 0;
  std::uint64_t dnssec_disposable_validations_ = 0;
  std::uint64_t answered_misses_ = 0;
  std::uint64_t disposable_answered_misses_ = 0;
  std::vector<ServerMetrics> server_metrics_;  // empty when uninstrumented
  std::vector<ServerTrace> server_trace_;      // empty when untraced
  obs::TraceCollector* trace_ = nullptr;
  obs::Counter* below_answers_metric_ = nullptr;
  obs::Counter* above_answers_metric_ = nullptr;
  obs::LatencyRecorder* tap_batch_size_ = nullptr;

  std::size_t pick_server(std::uint64_t client_id) const noexcept {
    return shard_of(client_id, caches_.size());
  }
};

}  // namespace dnsnoise
